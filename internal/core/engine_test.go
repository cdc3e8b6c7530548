package core

import (
	"context"
	"runtime"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/segment"
)

// TestDPChoosesMergePathAndWalk pins that the dynamic program picks its
// merge path and its walk from the problem alone, through the run
// counters the benchmark's dp.lishi_run_share and dp.parallel_run_share
// read: the frontier walk on every delay-only run at any library size,
// the classic merge under noise constraints or safe pruning, and the
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
			"vg.run.engine.vg", "vg.run.engine.lishi"},
		{"min-buffers noise", Problem{Tree: small, Library: full, Params: p, Objective: MinBuffersNoise}, Options{},
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
