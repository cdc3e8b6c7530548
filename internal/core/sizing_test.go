package core

import (
	"context"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

func sizingOpts(widths ...float64) Options {
	return Options{Sizing: &Sizing{Widths: widths}}
}

// TestSizingTrivialWidthMatchesNoSizing: widths {1} must be bit-identical
// to no sizing at all.
func TestSizingTrivialWidthMatchesNoSizing(t *testing.T) {
	tr := noisySegmentedY(t, 3)
	plain, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Objective: MaxSlack,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trivial, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib3(), Objective: MaxSlack,
	}, sizingOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(plain.Slack, trivial.Slack) || plain.NumBuffers() != trivial.NumBuffers() {
		t.Errorf("widths {1} changed the result: slack %v vs %v, buffers %d vs %d",
			plain.Slack, trivial.Slack, plain.NumBuffers(), trivial.NumBuffers())
	}
	if len(trivial.Widths) != 0 {
		t.Errorf("trivial sizing recorded widths: %v", trivial.Widths)
	}
}

// TestSizingNeverHurts: adding width choices can only improve (or match)
// the achievable slack — the search space is a superset.
func TestSizingNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 6, MaxSinks: 4, BufferSites: true,
		})
		lib := testutil.RandomLibrary(rng, 8)
		plain, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Objective: MaxSlack,
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sized, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Objective: MaxSlack,
		}, sizingOpts(1, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		if sized.Slack < plain.Slack-1e-9 {
			t.Fatalf("trial %d: sizing reduced slack %v → %v", trial, plain.Slack, sized.Slack)
		}
	}
}

// TestSizingSlackMatchesAnalyzer is the critical consistency invariant:
// the DP's slack must equal the independent Elmore analysis of the
// returned tree with the widths already applied to its parasitics.
func TestSizingSlackMatchesAnalyzer(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	p := noise.Params{CouplingRatio: 0.7, Slope: 2}
	widened := 0
	for trial := 0; trial < 150; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 7, MaxSinks: 4, MarginLo: 4, MarginHi: 12, BufferSites: true,
		})
		lib := testutil.RandomLibrary(rng, 8)
		for _, run := range []func() (*Result, error){
			func() (*Result, error) {
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Objective: MaxSlack,
				}, sizingOpts(1, 2, 3))
			},
			func() (*Result, error) {
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
				}, sizingOpts(1, 2, 3))
			},
			func() (*Result, error) {
				return Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise,
				}, sizingOpts(1, 2, 3))
			},
		} {
			res, err := run()
			if err != nil {
				continue
			}
			an := elmore.Analyze(res.Tree, res.Buffers)
			if !approx(res.Slack, an.WorstSlack) {
				t.Fatalf("trial %d: DP slack %v, analyzer %v (widths %v)",
					trial, res.Slack, an.WorstSlack, res.Widths)
			}
			if len(res.Widths) > 0 {
				widened++
			}
		}
	}
	if widened == 0 {
		t.Fatalf("sizing never chose a non-minimum width across all trials")
	}
}

// TestSizingNoiseConsistency: BuffOpt with sizing returns trees whose
// frozen coupling keeps the independent noise analyzer in agreement —
// clean, with the sidewall current unchanged by widening.
func TestSizingNoiseConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	for trial := 0; trial < 100; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 6, MaxSinks: 4, MarginLo: 2, MarginHi: 8,
			WireScale: 1.5, BufferSites: true,
		})
		lib := testutil.RandomLibrary(rng, 4)
		res, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
		}, sizingOpts(1, 2, 4))
		if err != nil {
			continue
		}
		if r := noise.Analyze(res.Tree, res.Buffers, p); !r.Clean() {
			t.Fatalf("trial %d: sized solution not clean: %+v (widths %v)",
				trial, r.Violations, res.Widths)
		}
		// Frozen coupling: a widened wire's current equals the original.
		for v, wd := range res.Widths {
			got := p.WireCurrent(res.Tree.Node(v).Wire)
			want := p.WireCurrent(tr.Node(v).Wire)
			if !approx(got, want) {
				t.Fatalf("trial %d: width %g changed coupling current %g → %g",
					trial, wd, want, got)
			}
		}
	}
}

// TestSizingReducesBufferNeed: on a resistive noisy line, allowing wide
// wires lets BuffOpt meet the noise constraint with fewer (or equal)
// buffers, since widening divides the wire resistance.
func TestSizingReducesBufferNeed(t *testing.T) {
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.3, NoiseMargin: 5},
	}}
	build := func() *rctree.Tree {
		tr := rctree.New("line", 1.5, 0)
		if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 9, C: 9, Length: 9}, "s", 0.1, 1e6, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := segment.ByCount(tr, 9); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	plain, err := Optimize(context.Background(), Problem{
		Tree: build(), Library: lib, Params: p, Objective: MinBuffersNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sized, err := Optimize(context.Background(), Problem{
		Tree: build(), Library: lib, Params: p, Objective: MinBuffersNoise,
	}, sizingOpts(1, 3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if sized.Cost > plain.Cost {
		t.Errorf("sizing increased buffer cost %d → %d", plain.Cost, sized.Cost)
	}
	if sized.Cost == plain.Cost && len(sized.Widths) == 0 {
		t.Logf("note: sizing chose minimum width everywhere (plain cost %d)", plain.Cost)
	}
	if !noise.Analyze(sized.Tree, sized.Buffers, p).Clean() {
		t.Errorf("sized solution not clean")
	}
}
