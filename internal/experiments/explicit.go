package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"buffopt/internal/core"
	"buffopt/internal/rctree"
)

// ExplicitModeAblation quantifies the cost of estimation mode's
// pessimism: the single worst-case aggressor assumption (λ = 0.7 of every
// wire, fastest slope) versus the actual post-routing coupling, which is
// usually lighter. This is Fig. 2's point at suite scale — once real
// neighbor information exists, wires carry explicit aggressor lists and
// buffer insertion gets cheaper.
type ExplicitModeAblation struct {
	Nets int
	// EstimationBuffers/ExplicitBuffers are total insertions per mode.
	EstimationBuffers, ExplicitBuffers int
	// NetsCheaper counts nets where explicit mode needed fewer buffers;
	// NetsViolatingExplicit counts nets that still violate under the true
	// (lighter) coupling.
	NetsCheaper, NetsViolatingExplicit int
	Failures                           int
}

// RunExplicitModeAblation re-runs BuffOpt on the suite with synthesized
// "measured" couplings: each wire's explicit aggressor has a ratio drawn
// below the worst-case λ and a slope at or below the worst-case μ
// (deterministic in the suite seed).
func (s *Suite) RunExplicitModeAblation() ExplicitModeAblation {
	out := ExplicitModeAblation{Nets: len(s.Nets)}
	type per struct {
		est, exp          int
		cheaper, violated bool
		failed            bool
	}
	rows := make([]per, len(s.Nets))
	s.forEachNet(func(i int) {
		r := &rows[i]
		est, err := core.Optimize(context.Background(), core.Problem{
			Tree: s.Segmented[i], Library: s.Library, Params: s.Tech.Noise, Objective: core.MinBuffersNoise,
		}, core.Options{})
		if err != nil {
			r.failed = true
			return
		}
		// Synthesize measured couplings on a fresh copy. The per-net RNG
		// keeps the whole ablation deterministic and parallel-safe.
		rng := rand.New(rand.NewSource(s.Config.Seed*1000 + int64(i)))
		exp := s.Segmented[i].Clone()
		for _, v := range exp.Preorder() {
			if v == exp.Root() {
				continue
			}
			node := exp.Node(v)
			ratio := s.Tech.Noise.CouplingRatio * (0.3 + 0.7*rng.Float64())
			slope := s.Tech.Noise.Slope * (0.4 + 0.6*rng.Float64())
			node.Wire.Aggressors = []rctree.Coupling{{Ratio: ratio, Slope: slope}}
		}
		expRes, err := core.Optimize(context.Background(), core.Problem{
			Tree: exp, Library: s.Library, Params: s.Tech.Noise, Objective: core.MinBuffersNoise,
		}, core.Options{})
		if err != nil {
			r.failed = true
			return
		}
		r.est = est.NumBuffers()
		r.exp = expRes.NumBuffers()
		r.cheaper = r.exp < r.est
	})
	for _, r := range rows {
		if r.failed {
			out.Failures++
			continue
		}
		out.EstimationBuffers += r.est
		out.ExplicitBuffers += r.exp
		if r.cheaper {
			out.NetsCheaper++
		}
		if r.violated {
			out.NetsViolatingExplicit++
		}
	}
	return out
}

// Format renders the ablation.
func (a ExplicitModeAblation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: estimation mode vs explicit post-routing coupling (%d nets)\n", a.Nets)
	fmt.Fprintf(&b, "buffers: %d worst-case estimation → %d with measured couplings\n",
		a.EstimationBuffers, a.ExplicitBuffers)
	fmt.Fprintf(&b, "%d nets needed fewer buffers under the true coupling; %d failures\n",
		a.NetsCheaper, a.Failures)
	return b.String()
}
