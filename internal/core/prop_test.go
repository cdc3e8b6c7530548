package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// TestBuffOptMatchesExhaustiveRandom certifies Theorem 5 empirically: on
// random small trees with a single buffer type, BuffOpt's slack equals the
// exhaustive noise-constrained optimum, and the solution's analyzed slack
// matches the DP's own number.
func TestBuffOptMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.4, NoiseMargin: 6},
	}}
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	checked := 0
	for trial := 0; trial < 120; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 4, MaxSinks: 3, MarginLo: 3, MarginHi: 8, BufferSites: true,
		})
		if _, err := segment.ByCount(tr, 2); err != nil {
			t.Fatal(err)
		}
		if len(feasibleNodes(tr)) > 9 {
			continue // keep the oracle cheap
		}
		res, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
		}, Options{})
		want, _, ok, oerr := ExhaustiveMaxSlackNoise(tr, lib, p, true)
		if oerr != nil {
			t.Fatal(oerr)
		}
		if !ok {
			if err == nil {
				t.Fatalf("trial %d: BuffOpt succeeded where no feasible assignment exists", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: BuffOpt failed but exhaustive found slack %g", trial, want)
		}
		if !approx(res.Slack, want) {
			t.Fatalf("trial %d: BuffOpt slack %g, exhaustive %g", trial, res.Slack, want)
		}
		an := elmore.Analyze(res.Tree, res.Buffers)
		if !approx(res.Slack, an.WorstSlack) {
			t.Fatalf("trial %d: DP slack %g, analyzer %g", trial, res.Slack, an.WorstSlack)
		}
		if !noise.Analyze(res.Tree, res.Buffers, p).Clean() {
			t.Fatalf("trial %d: BuffOpt result not noise clean", trial)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d trials actually checked", checked)
	}
}

// TestDelayOptMatchesExhaustiveRandom does the same without noise, with a
// random multi-buffer library (Van Ginneken/Lillis exactness holds for
// delay-only with any library).
func TestDelayOptMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 4, MaxSinks: 3, BufferSites: true,
		})
		lib := testutil.RandomLibrary(rng, 5)
		if len(feasibleNodes(tr))*len(lib.Buffers) > 14 {
			continue
		}
		res, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Objective: MaxSlack,
		}, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, _, ok, oerr := ExhaustiveMaxSlackNoise(tr, lib, unitParams, false)
		if oerr != nil || !ok {
			t.Fatalf("trial %d: oracle failed: %v", trial, oerr)
		}
		if !approx(res.Slack, want) {
			t.Fatalf("trial %d: DelayOpt slack %g, exhaustive %g", trial, res.Slack, want)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d trials checked", checked)
	}
}

// TestAlgorithm2NeverWorseThanDiscrete: on random trees, Algorithm 2's
// continuous-placement buffer count never exceeds the discrete exhaustive
// optimum, and its solutions are always clean and structurally valid.
func TestAlgorithm2NeverWorseThanDiscrete(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0, NoiseMargin: 6},
	}}
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	checked := 0
	for trial := 0; trial < 150; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 4, MaxSinks: 3, MarginLo: 3, MarginHi: 8,
			WireScale: 2, BufferSites: true,
		})
		// Algorithm 2's merge test assumes the driver is no stronger than
		// the strongest buffer (footnote 8 of the paper); enforce it.
		if tr.DriverResistance < lib.Buffers[0].R {
			tr.DriverResistance = lib.Buffers[0].R + rng.Float64()
		}
		sol, err := Algorithm2(tr, lib, p)
		if err != nil {
			// Possible only if the instance is genuinely unfixable.
			if !errors.Is(err, ErrNoiseUnfixable) {
				t.Fatalf("trial %d: unexpected error: %v", trial, err)
			}
			continue
		}
		if err := sol.Tree.Validate(); err != nil {
			t.Fatalf("trial %d: invalid solution tree: %v", trial, err)
		}
		if !noise.Analyze(sol.Tree, sol.Buffers, p).Clean() {
			t.Fatalf("trial %d: Algorithm 2 solution not clean", trial)
		}
		seg := tr.Clone()
		if _, err := segment.ByCount(seg, 2); err != nil {
			t.Fatal(err)
		}
		if len(feasibleNodes(seg)) > 11 {
			continue
		}
		best, _, ok, oerr := ExhaustiveMinBuffersNoise(seg, lib, p)
		if oerr != nil {
			t.Fatal(oerr)
		}
		if ok && sol.NumBuffers() > best {
			t.Fatalf("trial %d: Algorithm 2 used %d buffers, discrete optimum %d", trial, sol.NumBuffers(), best)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d trials checked", checked)
	}
}

// TestDPSlackAlwaysMatchesAnalyzer is the strongest cheap consistency
// check: whatever the optimizer claims, re-deriving the slack from the
// solution with the independent Elmore analyzer must agree exactly.
func TestDPSlackAlwaysMatchesAnalyzer(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := noise.Params{CouplingRatio: 0.7, Slope: 2}
	for trial := 0; trial < 150; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 8, MaxSinks: 5, MarginLo: 4, MarginHi: 12, BufferSites: true,
		})
		lib := testutil.RandomLibrary(rng, 8)
		for _, run := range []func() (*Result, error){
			func() (*Result, error) {
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Objective: MaxSlack,
				}, Options{})
			},
			func() (*Result, error) {
				k := 2
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Objective: MaxSlack, MaxBuffers: &k,
				}, Options{})
			},
			func() (*Result, error) {
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
				}, Options{})
			},
			func() (*Result, error) {
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise,
				}, Options{})
			},
			func() (*Result, error) {
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
				}, Options{SafePruning: true})
			},
		} {
			res, err := run()
			if err != nil {
				if errors.Is(err, ErrNoiseUnfixable) {
					continue
				}
				t.Fatalf("trial %d: %v", trial, err)
			}
			an := elmore.Analyze(res.Tree, res.Buffers)
			if !approx(res.Slack, an.WorstSlack) {
				t.Fatalf("trial %d: DP slack %g, analyzer %g (buffers %d)",
					trial, res.Slack, an.WorstSlack, res.NumBuffers())
			}
		}
	}
}

// TestBuffOptSolutionsAlwaysClean: every noise-constrained optimizer
// output passes the independent noise analyzer, across random instances
// and both pruning modes.
func TestBuffOptSolutionsAlwaysClean(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	for trial := 0; trial < 150; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 7, MaxSinks: 4, MarginLo: 2, MarginHi: 9,
			WireScale: 1.5, BufferSites: true,
		})
		lib := testutil.RandomLibrary(rng, 2+6*rng.Float64())
		for _, safe := range []bool{false, true} {
			res, err := Optimize(context.Background(), Problem{
				Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
			}, Options{SafePruning: safe})
			if err != nil {
				continue
			}
			if r := noise.Analyze(res.Tree, res.Buffers, p); !r.Clean() {
				t.Fatalf("trial %d (safe=%v): violations %+v", trial, safe, r.Violations)
			}
		}
	}
}

// TestSafePruningNeverWorse: exact pruning can only match or beat the
// paper's pruning on slack, never lose to it.
func TestSafePruningNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	for trial := 0; trial < 100; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 6, MaxSinks: 4, MarginLo: 2, MarginHi: 9, BufferSites: true,
		})
		lib := testutil.RandomLibrary(rng, 5)
		paper, errPaper := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
		}, Options{})
		safe, errSafe := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
		}, Options{SafePruning: true})
		if errSafe != nil {
			if errPaper == nil {
				t.Fatalf("trial %d: safe pruning failed where paper pruning succeeded", trial)
			}
			continue
		}
		if errPaper != nil {
			continue // safe found a solution the paper's pruning lost — allowed
		}
		if paper.Slack > safe.Slack+1e-9 {
			t.Fatalf("trial %d: paper pruning slack %g beats safe %g", trial, paper.Slack, safe.Slack)
		}
	}
}

// TestAlgorithm1RandomLines: random two-pin lines across a wide parameter
// range are always fixed, clean, and with maximal first spacing.
func TestAlgorithm1RandomLines(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	for trial := 0; trial < 300; trial++ {
		length := 0.5 + 20*rng.Float64()
		nm := 1 + 6*rng.Float64()
		tr := rctree.New("line", 0.2+4*rng.Float64(), 0)
		if _, err := tr.AddSink(tr.Root(),
			rctree.Wire{R: length * (0.5 + rng.Float64()), C: length * (0.5 + rng.Float64()), Length: length},
			"s", rng.Float64(), 0, nm); err != nil {
			t.Fatal(err)
		}
		lib := &buffers.Library{Buffers: []buffers.Buffer{
			{Name: "B", Cin: 0.05, R: 0.3 + rng.Float64(), NoiseMargin: nm},
		}}
		sol, err := Algorithm1(tr, lib, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !noise.Analyze(sol.Tree, sol.Buffers, p).Clean() {
			t.Fatalf("trial %d: not clean (len %g, nm %g)", trial, length, nm)
		}
		if err := sol.Tree.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
