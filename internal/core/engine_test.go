package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// TestDPChoosesMergePathAndWalk pins that the dynamic program picks its
// merge path and its walk from the problem alone, through the run
// counters the benchmark's dp.lishi_run_share and dp.parallel_run_share
// read: the frontier walk on every run without safe pruning — delay-only
// at any library size, and under noise constraints too — the classic
// merge under safe pruning, and the
// parallel walk exactly on trees of minParallelNodes or more when
// GOMAXPROCS allows it.
func TestDPChoosesMergePathAndWalk(t *testing.T) {
	nets, full, p := diffCorpus(t, 4)
	small := nets[0]
	// Splitting every wire of the biggest corpus net in four carries it
	// past the threshold.
	large := nets[0].Clone()
	for _, tr := range nets {
		if tr.Len() > large.Len() {
			large = tr.Clone()
		}
	}
	if _, err := segment.ByCount(large, 4); err != nil {
		t.Fatal(err)
	}
	if small.Len() >= minParallelNodes || large.Len() < minParallelNodes {
		t.Fatalf("trees of %d and %d nodes do not straddle the %d-node threshold",
			small.Len(), large.Len(), minParallelNodes)
	}
	single := &buffers.Library{Buffers: full.Buffers[:1]}
	four := 4
	largeWalk, otherWalk := "vg.run.serial", "vg.run.parallel"
	if runtime.GOMAXPROCS(0) > 1 {
		largeWalk, otherWalk = otherWalk, largeWalk
	}

	cases := []struct {
		name    string
		problem Problem
		opts    Options
		want    string // the counter every run must bump
		not     string // the counter no run may bump
	}{
		{"delay b=1", Problem{Tree: small, Library: single, Objective: MaxSlack}, Options{},
			"vg.run.engine.lishi", "vg.run.engine.vg"},
		{"delay b=11", Problem{Tree: small, Library: full, Objective: MaxSlack}, Options{},
			"vg.run.engine.lishi", "vg.run.engine.vg"},
		{"delay k=4", Problem{Tree: small, Library: full, Objective: MaxSlack, MaxBuffers: &four}, Options{},
			"vg.run.engine.lishi", "vg.run.engine.vg"},
		{"noise b=1", Problem{Tree: small, Library: single, Params: p, Objective: MaxSlackNoise}, Options{},
			"vg.run.engine.lishi", "vg.run.engine.vg"},
		{"min-buffers noise", Problem{Tree: small, Library: full, Params: p, Objective: MinBuffersNoise}, Options{},
			"vg.run.engine.lishi", "vg.run.engine.vg"},
		{"noise safe pruning", Problem{Tree: small, Library: full, Params: p, Objective: MaxSlackNoise}, Options{SafePruning: true},
			"vg.run.engine.vg", "vg.run.engine.lishi"},
		{"delay safe pruning", Problem{Tree: small, Library: full, Objective: MaxSlack}, Options{SafePruning: true},
			"vg.run.engine.vg", "vg.run.engine.lishi"},
		{"small tree", Problem{Tree: small, Library: full, Objective: MaxSlack}, Options{},
			"vg.run.serial", "vg.run.parallel"},
		{"large tree", Problem{Tree: large, Library: full, Objective: MaxSlack}, Options{},
			largeWalk, otherWalk},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := withFreshRegistry(t)
			if _, err := Optimize(context.Background(), tc.problem, tc.opts); err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			if c[tc.want] == 0 || c[tc.not] != 0 {
				t.Errorf("%s = %d, %s = %d; want every run on %s (%d nodes)",
					tc.want, c[tc.want], tc.not, c[tc.not], tc.want, tc.problem.Tree.Len())
			}
		})
	}
}

// TestNoiseCapParity pins the candidate cap's parity between merge paths
// under noise constraints. The frontier walk never builds the cross
// product, but the cap is charged its size, so a cap only the cross
// product exceeds trips on the default row as on the reference row:
// Optimize fails in the same class, and Solve lands on the same tier
// after the same tier-error classes. Optimize's cap is one below the
// reference's peak charge for MaxSlackNoise, on a net whose pruned lists,
// and so the walk's output (at most two lists long without count
// indexing), stay under it. Solve's is one below the peak of its exact
// tier's objective, MinBuffersNoise, so that tier trips.
func TestNoiseCapParity(t *testing.T) {
	nets, lib, p := diffCorpus(t, 8)
	ctx := context.Background()
	peak := func(tr *rctree.Tree, obj Objective) (int, int) {
		reg := withFreshRegistry(t)
		b := guard.New(ctx)
		prob := Problem{Tree: tr, Library: lib, Params: p, Objective: obj}
		if _, err := Optimize(ctx, prob, Options{Budget: b, dp: referenceDP}); err != nil {
			t.Fatal(err)
		}
		return b.Usage().Candidates, int(reg.Snapshot().Gauges["vg.list.highwater"])
	}
	var tree *rctree.Tree
	limit := 0
	for _, tr := range nets {
		if pk, hw := peak(tr, MaxSlackNoise); pk-1 >= 2*hw && pk-1 > limit {
			tree, limit = tr, pk-1
		}
	}
	if tree == nil {
		t.Fatal("no corpus net has a cross product larger than twice its longest list")
	}
	solveLimit, _ := peak(tree, MinBuffersNoise)
	solveLimit--

	capped := func(n int) *guard.Budget {
		b := guard.New(ctx)
		b.MaxCandidates = n
		return b
	}
	rows := []struct {
		name string
		dp   dpOverride
	}{{"reference", referenceDP}, {"default", dpOverride{}}}
	var classes, trails []string
	for _, row := range rows {
		_, err := Optimize(ctx, Problem{Tree: tree, Library: lib, Params: p, Objective: MaxSlackNoise},
			Options{Budget: capped(limit), dp: row.dp})
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("%s: Optimize under cap %d = %v, want a budget error", row.name, limit, err)
		}
		classes = append(classes, guard.Class(err))

		res, err := Solve(ctx, tree, lib, p, Options{Budget: capped(solveLimit), dp: row.dp})
		if err != nil {
			t.Fatalf("%s: Solve: %v", row.name, err)
		}
		if res.Tier == TierExact {
			t.Fatalf("%s: Solve's exact tier fit under cap %d; the test needs it to trip", row.name, solveLimit)
		}
		trail := res.Tier.String()
		for _, te := range res.TierErrors {
			trail += " " + te.Tier.String() + ":" + guard.Class(te.Err)
		}
		trails = append(trails, trail)
	}
	if classes[0] != classes[1] || trails[0] != trails[1] {
		t.Fatalf("Optimize classes %v under cap %d, Solve tiers %q under cap %d; want the rows alike",
			classes, limit, trails, solveLimit)
	}
}
