package enginetest

import (
	"context"
	"math"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
)

// Metamorphic properties: relations between a problem and a transformed
// version of it that the exact engines must respect regardless of the
// input. Each property runs under every exact row of core.EngineTable,
// and the rows are additionally cross-checked against each other on the
// transformed problems — so a transform that tickles only the fast-merge
// path still gets a classic-DP witness.

// metamorphicCorpus is a small mid-size stratum: big enough to have real
// branch structure, small enough that six properties × three exact rows
// stay fast.
func metamorphicCorpus(t testing.TB) ([]*rctree.Tree, *buffers.Library, noise.Params) {
	n := 24
	if testing.Short() {
		n = 8
	}
	return buildStratum(t, stratum{name: "meta", seed: 301, nets: n, maxSinks: 12}, n)
}

// exactRows are the table rows the properties quantify over, the
// reference first.
var exactRows = func() []core.EngineSpec {
	var rows []core.EngineSpec
	for _, spec := range core.EngineTable() {
		if spec.Exact {
			rows = append(rows, spec)
		}
	}
	return rows
}()

// optimize runs one delay-objective problem under a table row.
func optimize(t *testing.T, tr *rctree.Tree, lib *buffers.Library, row core.EngineSpec, k int) *core.Result {
	t.Helper()
	prob := core.Problem{Tree: tr, Library: lib, Objective: core.MaxSlack}
	if k >= 0 {
		prob.MaxBuffers = &k
	}
	res, err := row.Run(context.Background(), prob, core.Options{})
	if err != nil {
		t.Fatalf("engine %s: %v", row.Name, err)
	}
	return res
}

// crossCheck asserts all exact rows agree bit for bit on a problem and
// returns the reference's result.
func crossCheck(t *testing.T, tr *rctree.Tree, lib *buffers.Library, k int) *core.Result {
	t.Helper()
	base := optimize(t, tr, lib, exactRows[0], k)
	for _, row := range exactRows[1:] {
		if err := sameObjective(base, optimize(t, tr, lib, row, k)); err != nil {
			t.Fatalf("engine %s diverges: %v", row.Name, err)
		}
	}
	return base
}

// rebuild reconstructs a tree node for node in breadth-first creation
// order, renumbering every NodeID (netgen builds depth-first, so the
// numbering genuinely changes). When reverse is set, each node's children
// are attached in reverse, flipping every sibling pair. The returned map
// sends old IDs to new ones.
func rebuild(t *testing.T, tr *rctree.Tree, reverse bool) (*rctree.Tree, map[rctree.NodeID]rctree.NodeID) {
	t.Helper()
	nt := rctree.New(tr.Node(tr.Root()).Name, tr.DriverResistance, tr.DriverDelay)
	idmap := map[rctree.NodeID]rctree.NodeID{tr.Root(): nt.Root()}
	order := []rctree.NodeID{tr.Root()}
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		kids := tr.Node(v).Children
		for i := range kids {
			c := kids[i]
			if reverse {
				c = kids[len(kids)-1-i]
			}
			n := tr.Node(c)
			var id rctree.NodeID
			var err error
			if n.Kind == rctree.Sink {
				id, err = nt.AddSink(idmap[v], n.Wire, n.Name, n.Cap, n.RAT, n.NoiseMargin)
			} else {
				id, err = nt.AddInternal(idmap[v], n.Wire, n.BufferOK)
			}
			if err != nil {
				t.Fatal(err)
			}
			idmap[c] = id
			order = append(order, c)
		}
	}
	return nt, idmap
}

// TestMetamorphicLibrarySuperset: growing the library can never hurt.
// Every solution available under a sub-library is still available under
// the full one, and the DP computes shared candidates with identical
// arithmetic, so the optimal slack is monotone — exactly, not just
// approximately.
func TestMetamorphicLibrarySuperset(t *testing.T) {
	nets, lib, _ := metamorphicCorpus(t)
	sub := &buffers.Library{Buffers: lib.Buffers[:len(lib.Buffers)/2]}
	for i, tr := range nets {
		small := crossCheck(t, tr, sub, -1)
		full := crossCheck(t, tr, lib, -1)
		if full.Slack < small.Slack {
			t.Fatalf("net %d: full-library slack %g < sub-library slack %g",
				i, full.Slack, small.Slack)
		}
	}
}

// TestMetamorphicSiblingReorder: reversing the children of every branch
// leaves the optimum bit-identical. Merge arithmetic is commutative
// (a+b, min(a,b)), so the candidate value sets are unchanged; only
// witness tie-breaking may shift, so placements are not compared.
func TestMetamorphicSiblingReorder(t *testing.T) {
	nets, lib, _ := metamorphicCorpus(t)
	for i, tr := range nets {
		base := crossCheck(t, tr, lib, -1)
		flipped, _ := rebuild(t, tr, true)
		for _, row := range exactRows {
			if err := sameObjective(base, optimize(t, flipped, lib, row, -1)); err != nil {
				t.Fatalf("net %d, engine %s: sibling reorder changed the optimum: %v", i, row.Name, err)
			}
		}
	}
}

// TestMetamorphicRenumbering: node IDs are labels, not data. Rebuilding
// the tree in breadth-first order renumbers every node; the optimum must
// be bit-identical and the placement must map node for node through the
// renumbering.
func TestMetamorphicRenumbering(t *testing.T) {
	nets, lib, _ := metamorphicCorpus(t)
	for i, tr := range nets {
		base := crossCheck(t, tr, lib, -1)
		renum, idmap := rebuild(t, tr, false)
		for _, row := range exactRows {
			res := optimize(t, renum, lib, row, -1)
			if err := sameObjective(base, res); err != nil {
				t.Fatalf("net %d, engine %s: renumbering changed the optimum: %v", i, row.Name, err)
			}
			if len(res.Buffers) != len(base.Buffers) {
				t.Fatalf("net %d, engine %s: placement sizes differ: %d vs %d",
					i, row.Name, len(res.Buffers), len(base.Buffers))
			}
			for v, b := range base.Buffers {
				if got, ok := res.Buffers[idmap[v]]; !ok || got.Name != b.Name {
					t.Fatalf("net %d, engine %s: node %d (now %d) had %q, renumbered run has %q",
						i, row.Name, v, idmap[v], b.Name, got.Name)
				}
			}
		}
	}
}

// TestMetamorphicDominatedType: adding a buffer type that is strictly
// worse than an existing one in every delay-relevant dimension (Cin, R,
// T; same polarity and weight) changes nothing — each of its candidates
// is strictly dominated at the node that would insert it and dies in the
// very next prune.
func TestMetamorphicDominatedType(t *testing.T) {
	nets, lib, _ := metamorphicCorpus(t)
	b0 := lib.Buffers[0]
	dom := b0
	dom.Name = "strictly-dominated"
	dom.Cin *= 1.37
	dom.R *= 1.61
	dom.T = dom.T*1.5 + 1e-13
	padded := &buffers.Library{Buffers: append(append([]buffers.Buffer(nil), lib.Buffers...), dom)}
	for i, tr := range nets {
		base := crossCheck(t, tr, lib, -1)
		got := crossCheck(t, tr, padded, -1)
		if err := sameObjective(base, got); err != nil {
			t.Fatalf("net %d: dominated type changed the optimum: %v", i, err)
		}
	}
}

// TestMetamorphicCountNesting: the k-bounded optima are monotone in k and
// bounded by the unconstrained optimum — the solution spaces nest, and
// candidate values are computed identically across caps, so the chain
// holds exactly.
func TestMetamorphicCountNesting(t *testing.T) {
	nets, lib, _ := metamorphicCorpus(t)
	caps := []int{0, 1, 2, 4, 8}
	for i, tr := range nets {
		prev := math.Inf(-1)
		for _, k := range caps {
			res := crossCheck(t, tr, lib, k)
			if res.Cost > k {
				t.Fatalf("net %d, k=%d: cost %d exceeds cap", i, k, res.Cost)
			}
			if res.Slack < prev {
				t.Fatalf("net %d, k=%d: slack %g below k-1 optimum %g", i, k, res.Slack, prev)
			}
			prev = res.Slack
		}
		if free := crossCheck(t, tr, lib, -1); free.Slack < prev {
			t.Fatalf("net %d: unconstrained slack %g below k=8 optimum %g", i, free.Slack, prev)
		}
	}
}
