// Package enginetest gates the engine registry: every row of
// core.EngineTable is held to its contract class on a shared corpus.
// Exact rows (the default configuration, serial and forced-parallel) must
// produce bit-identical objective values — slack compared as raw float
// bits, cost exactly — to the reference row (classic cross-product merge,
// serial walk) on every problem, plus independently re-verified
// placements; heuristic rows are held to validity and
// never-better-than-exact. The suite is what makes it safe for the
// dynamic program to pick its merge path and parallelism by itself.
//
// The corpus is stratified by net size (sink-count cap per stratum) so
// the fast-merge path sees both the shallow lists of small nets and the
// long frontiers of wide ones, and every net runs the delay objective —
// Li–Shi's home turf — plus one round-robin profile covering the
// count-indexed, noise, safe-pruning, sizing, and min-buffer
// configurations (the fallback paths).
package enginetest

import (
	"context"
	"fmt"
	"math"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// stratum is one slice of the corpus: nets generated under a distinct
// sink-count cap, so list lengths and tree depths differ systematically
// across strata rather than by luck of one seed.
type stratum struct {
	name     string
	seed     int64
	nets     int
	maxSinks int
}

// strata defines the 200-net corpus: 4 × 50 nets from narrow two-pin-ish
// nets to the fat end of the Table I sink distribution.
func strata() []stratum {
	return []stratum{
		{name: "narrow", seed: 101, nets: 50, maxSinks: 6},
		{name: "mid", seed: 102, nets: 50, maxSinks: 15},
		{name: "tableI", seed: 103, nets: 50, maxSinks: 30},
		{name: "wide", seed: 104, nets: 50, maxSinks: 60},
	}
}

// buildStratum generates and segments one stratum exactly as the
// experiments pipeline does (0.5 mm segmentation, candidate site below
// the driver).
func buildStratum(t testing.TB, s stratum, n int) ([]*rctree.Tree, *buffers.Library, noise.Params) {
	t.Helper()
	suite, err := netgen.Generate(netgen.Config{Seed: s.seed, NumNets: n, MaxSinks: s.maxSinks})
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*rctree.Tree, len(suite.Nets))
	for i, tr := range suite.Nets {
		seg := tr.Clone()
		if _, err := segment.ByLength(seg, 0.5e-3); err != nil {
			t.Fatal(err)
		}
		if _, err := seg.InsertBelow(seg.Root()); err != nil {
			t.Fatal(err)
		}
		nets[i] = seg
	}
	return nets, suite.Library, suite.Tech.Noise
}

// profile is one problem configuration a net is differenced under.
type profile struct {
	name      string
	objective core.Objective
	k         int // MaxBuffers when ≥ 0
	safe      bool
	sizing    *core.Sizing
}

// problem materializes the profile for one net.
func (pr profile) problem(tr *rctree.Tree, lib *buffers.Library, p noise.Params) core.Problem {
	prob := core.Problem{Tree: tr, Library: lib, Params: p, Objective: pr.objective}
	if pr.k >= 0 {
		k := pr.k
		prob.MaxBuffers = &k
	}
	return prob
}

func (pr profile) options() core.Options {
	return core.Options{SafePruning: pr.safe, Sizing: pr.sizing}
}

// profiles returns the round-robin profile ring. Every net also runs
// "delay" unconditionally (see TestEngineDifferential); the ring adds the
// configurations where the fast merge must fall back, so the fallback
// gating is differenced as hard as the fast path.
func profiles() []profile {
	return []profile{
		{name: "delay", objective: core.MaxSlack, k: -1},
		{name: "delay-k8", objective: core.MaxSlack, k: 8},
		{name: "noise", objective: core.MaxSlackNoise, k: -1},
		{name: "minbuf", objective: core.MinBuffersNoise, k: -1},
		{name: "safe", objective: core.MaxSlackNoise, k: -1, safe: true},
		{name: "sizing", objective: core.MaxSlack, k: -1, sizing: &core.Sizing{Widths: []float64{1, 2}}},
	}
}

// approx compares two slacks computed by different float associations of
// the same real value (the DP's incremental charges vs. the analyzers'
// from-scratch sums).
func approx(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// checkValid independently re-verifies a result's placement: every buffer
// sits on a legal non-root site, the reported cost is the placement's
// weight sum, sink polarity is even, the analyzers' slack agrees with the
// DP's report, and — for noise-constrained objectives — the placement is
// noise-clean under the standalone noise analyzer.
func checkValid(t *testing.T, res *core.Result, pr profile, p noise.Params) {
	t.Helper()
	tr := res.Solution.Tree
	cost := 0
	for v, b := range res.Buffers {
		node := tr.Node(v)
		if !node.BufferOK || v == tr.Root() {
			t.Fatalf("buffer %q placed on illegal node %d", b.Name, v)
		}
		cost += b.Cost()
	}
	if cost != res.Cost {
		t.Fatalf("reported cost %d, placement weighs %d", res.Cost, cost)
	}
	if pr.k >= 0 && res.Cost > pr.k {
		t.Fatalf("cost %d exceeds bound %d", res.Cost, pr.k)
	}
	if got := elmore.Analyze(tr, res.Buffers).WorstSlack; !approx(got, res.Slack) {
		t.Fatalf("reported slack %g, analyzer computes %g", res.Slack, got)
	}
	if pr.objective != core.MaxSlack {
		if !noise.Analyze(tr, res.Buffers, p).Clean() {
			t.Fatalf("noise-constrained result is not noise-clean under the analyzer")
		}
	}
}

// sameObjective asserts bit-identical objective values between a row and
// the reference baseline: slack as raw float bits, cost exactly.
func sameObjective(base, got *core.Result) error {
	if bb, gb := math.Float64bits(base.Slack), math.Float64bits(got.Slack); bb != gb {
		return fmt.Errorf("slack bits %016x vs baseline %016x (%g vs %g)",
			gb, bb, got.Slack, base.Slack)
	}
	if base.Cost != got.Cost {
		return fmt.Errorf("cost %d vs baseline %d", got.Cost, base.Cost)
	}
	return nil
}

// runEngines runs one problem under every registered row and applies the
// per-class assertions against the reference baseline (row 0 of the
// table). Failure classes must agree too: if the baseline cannot solve
// the net (noise unfixable), every exact engine must fail the same way.
func runEngines(t *testing.T, prob core.Problem, pr profile, p noise.Params) {
	t.Helper()
	table := core.EngineTable()
	base, baseErr := table[0].Run(context.Background(), prob, pr.options())
	if baseErr == nil {
		checkValid(t, base, pr, p)
	}
	for _, spec := range table[1:] {
		res, err := spec.Run(context.Background(), prob, pr.options())
		if !spec.Exact {
			// Heuristics: valid when they succeed, never better than the
			// exact optimum. For the min-weight objective that means no
			// cheaper noise-clean placement; for slack objectives no
			// larger slack (beyond reassociation noise).
			if err != nil || baseErr != nil {
				continue
			}
			checkValid(t, res, profile{name: pr.name, objective: pr.objective, k: -1}, p)
			switch prob.Objective {
			case core.MinBuffersNoise:
				if res.Slack >= 0 && base.Slack >= 0 && res.Cost < base.Cost {
					t.Fatalf("engine %s: heuristic cost %d beats exact optimum %d", spec.Name, res.Cost, base.Cost)
				}
			default:
				if res.Slack > base.Slack && !approx(res.Slack, base.Slack) {
					t.Fatalf("engine %s: heuristic slack %g beats exact optimum %g", spec.Name, res.Slack, base.Slack)
				}
			}
			continue
		}
		if (err == nil) != (baseErr == nil) {
			t.Fatalf("engine %s: err = %v, baseline err = %v", spec.Name, err, baseErr)
		}
		if err != nil {
			continue
		}
		if cmpErr := sameObjective(base, res); cmpErr != nil {
			t.Fatalf("engine %s: %v", spec.Name, cmpErr)
		}
		checkValid(t, res, pr, p)
	}
}
