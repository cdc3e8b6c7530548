package noisesim

import (
	"context"
	"math/rand"
	"testing"

	"buffopt/internal/core"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/segment"
)

// TestUpperBoundOnGeneratedNets is the repository's keystone property:
// across realistic generated nets — unbuffered and BuffOpt-buffered — the
// Devgan metric bounds the simulated peak at every gate input. This is
// the theorem (Devgan ICCAD'97) the whole optimization rests on, checked
// against the fully independent MNA transient engine.
func TestUpperBoundOnGeneratedNets(t *testing.T) {
	s, err := netgen.Generate(netgen.Config{Seed: 31, NumNets: 25})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Vdd: s.Tech.Vdd, Params: s.Tech.Noise}
	for i, tr := range s.Nets {
		sim, err := Simulate(tr, nil, opts)
		if err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		metric := noise.Analyze(tr, nil, s.Tech.Noise)
		for v, peak := range sim.Peak {
			if peak > metric.Noise[v]*(1+1e-6) {
				t.Errorf("net %d node %d: simulated %g V exceeds bound %g V",
					i, v, peak, metric.Noise[v])
			}
		}

		// Buffered version.
		seg := tr.Clone()
		if _, err := segment.ByLength(seg, 0.5e-3); err != nil {
			t.Fatal(err)
		}
		if _, err := seg.InsertBelow(seg.Root()); err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(context.Background(), core.Problem{
			Tree: seg, Library: s.Library, Params: s.Tech.Noise, Objective: core.MinBuffersNoise,
		}, core.Options{})
		if err != nil {
			t.Fatalf("net %d: BuffOpt: %v", i, err)
		}
		bsim, err := Simulate(res.Tree, res.Buffers, opts)
		if err != nil {
			t.Fatalf("net %d: buffered sim: %v", i, err)
		}
		bmetric := noise.Analyze(res.Tree, res.Buffers, s.Tech.Noise)
		for v, peak := range bsim.Peak {
			if peak > bmetric.Noise[v]*(1+1e-6) {
				t.Errorf("net %d buffered node %d: simulated %g V exceeds bound %g V",
					i, v, peak, bmetric.Noise[v])
			}
		}
		// Metric-clean (BuffOpt's guarantee) must imply simulation-clean.
		if !bsim.Clean() {
			t.Errorf("net %d: simulation found violations after BuffOpt: %+v", i, bsim.Violations)
		}
	}
}

// TestMoreCouplingMoreNoise: scaling every coupling ratio up scales the
// simulated peak up (monotonicity of the physical system in the coupling
// strength).
func TestMoreCouplingMoreNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		mm := 2 + 4*rng.Float64()
		tr := buildLine(t, 80*mm, 200e-15*mm, mm*1e-3, 0.8, 150+300*rng.Float64())
		sink := tr.Sinks()[0]
		weak := Options{Params: noise.Params{CouplingRatio: 0.3, Slope: 7.2e9}}
		strong := Options{Params: noise.Params{CouplingRatio: 0.7, Slope: 7.2e9}}
		w, err := Simulate(tr, nil, weak)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Simulate(tr, nil, strong)
		if err != nil {
			t.Fatal(err)
		}
		if s.Peak[sink] <= w.Peak[sink] {
			t.Errorf("trial %d: λ=0.7 peak %g not above λ=0.3 peak %g",
				trial, s.Peak[sink], w.Peak[sink])
		}
	}
}

// TestFasterAggressorMoreNoise: a faster aggressor slope increases peak
// noise, approaching (never exceeding) the metric.
func TestFasterAggressorMoreNoise(t *testing.T) {
	tr := buildLine(t, 320, 800e-15, 4e-3, 0.8, 200)
	sink := tr.Sinks()[0]
	prev := 0.0
	for _, rise := range []float64{1e-9, 0.5e-9, 0.25e-9, 0.1e-9} {
		p := noise.Params{CouplingRatio: 0.7, Slope: 1.8 / rise}
		sim, err := Simulate(tr, nil, Options{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Peak[sink] <= prev {
			t.Errorf("rise %g: peak %g did not grow from %g", rise, sim.Peak[sink], prev)
		}
		bound := noise.Analyze(tr, nil, p).Noise[sink]
		if sim.Peak[sink] > bound*(1+1e-6) {
			t.Errorf("rise %g: peak %g exceeds bound %g", rise, sim.Peak[sink], bound)
		}
		prev = sim.Peak[sink]
	}
}
