package rctree_test

import (
	"math/rand"
	"slices"
	"testing"

	"buffopt/internal/rctree"
	"buffopt/internal/testutil"
)

// TestRandomTreeInvariants drives the structural invariants on hundreds of
// random trees: traversal orders are permutations with the right parent /
// child ordering, Subtree agrees with parent pointers, and random wire
// splits preserve validity and totals.
func TestRandomTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 8, MaxSinks: 5, BufferSites: true})

		pre := tr.Preorder()
		post := tr.Postorder()
		if len(pre) != tr.Len() || len(post) != tr.Len() {
			t.Fatalf("trial %d: traversal lengths %d, %d; want %d", trial, len(pre), len(post), tr.Len())
		}
		prePos := make(map[rctree.NodeID]int, len(pre))
		for i, v := range pre {
			prePos[v] = i
		}
		postPos := make(map[rctree.NodeID]int, len(post))
		for i, v := range post {
			postPos[v] = i
		}
		if len(prePos) != tr.Len() || len(postPos) != tr.Len() {
			t.Fatalf("trial %d: traversals are not permutations", trial)
		}
		for _, v := range pre {
			p := tr.Node(v).Parent
			if p == rctree.None {
				continue
			}
			if prePos[p] >= prePos[v] {
				t.Fatalf("trial %d: preorder parent %d after child %d", trial, p, v)
			}
			if postPos[p] <= postPos[v] {
				t.Fatalf("trial %d: postorder parent %d before child %d", trial, p, v)
			}
		}

		// Subtree of the root is everything; subtree sizes sum correctly.
		if got := len(tr.Subtree(tr.Root())); got != tr.Len() {
			t.Fatalf("trial %d: root subtree has %d nodes", trial, got)
		}

		// Random split preserves totals and validity.
		sinks := tr.Sinks()
		v := sinks[rng.Intn(len(sinks))]
		wl, wc := tr.TotalWireLength(), tr.TotalWireCap()
		if _, err := tr.SplitWire(v, rng.Float64()); err != nil {
			t.Fatalf("trial %d: split: %v", trial, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: invalid after split: %v", trial, err)
		}
		if got := tr.TotalWireLength(); !near(got, wl) {
			t.Fatalf("trial %d: length %g → %g", trial, wl, got)
		}
		if got := tr.TotalWireCap(); !near(got, wc) {
			t.Fatalf("trial %d: cap %g → %g", trial, wc, got)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-9*(1+m)
}

// TestBinarizeRandom checks Binarize on random high-degree stars.
func TestBinarizeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		tr := rctree.New("star", 1, 0)
		deg := 3 + rng.Intn(6)
		for i := 0; i < deg; i++ {
			if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 1, C: 1, Length: 1}, "s", 1, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		sinks, cap := tr.NumSinks(), tr.TotalCap()
		tr.Binarize()
		if !tr.IsBinary() {
			t.Fatalf("trial %d: not binary", trial)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tr.NumSinks() != sinks || !near(tr.TotalCap(), cap) {
			t.Fatalf("trial %d: Binarize changed electrical content", trial)
		}
	}
}

// TestCloneIsolationRandom: edits to clones never leak back.
func TestCloneIsolationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{})
		before := tr.Len()
		cl := tr.Clone()
		if _, err := cl.SplitWire(cl.Sinks()[0], 0.5); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.InsertBelow(cl.Root()); err != nil {
			t.Fatal(err)
		}
		cl.Node(cl.Root()).Name = "mutated"
		if tr.Len() != before || tr.Node(tr.Root()).Name == "mutated" {
			t.Fatalf("trial %d: clone edit leaked", trial)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: original invalid: %v", trial, err)
		}
	}
}

// withAggressors couples every wire of tr to k aggressors, node i's
// numbered by i so that lists are told apart.
func withAggressors(tr *rctree.Tree, k int) {
	for _, id := range tr.Preorder() {
		for j := 0; j < k; j++ {
			n := tr.Node(id)
			n.Wire.Aggressors = append(n.Wire.Aggressors, rctree.Coupling{Ratio: 0.1, Slope: 1 + float64(id)*10 + float64(j)})
		}
	}
}

// listsOf snapshots every node's child and aggressor lists.
func listsOf(tr *rctree.Tree) (children [][]rctree.NodeID, aggressors [][]rctree.Coupling) {
	for i := 0; i < tr.Len(); i++ {
		n := tr.Node(rctree.NodeID(i))
		children = append(children, append([]rctree.NodeID(nil), n.Children...))
		aggressors = append(aggressors, append([]rctree.Coupling(nil), n.Wire.Aggressors...))
	}
	return children, aggressors
}

// TestCloneAppendsStayIsolated pins that a clone's lists, which share one
// backing array per kind, stay apart: appending a child (addNode, through
// AddSink and AddInternal) and an aggressor to several nodes of a clone
// leaves every other node's lists, and the original's, as they were.
func TestCloneAppendsStayIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 12, MaxSinks: 8})
		withAggressors(tr, 1+rng.Intn(2))
		origCh, origAg := listsOf(tr)
		cl := tr.Clone()
		var inner []rctree.NodeID
		for _, id := range cl.Preorder() {
			if cl.Node(id).Kind != rctree.Sink {
				inner = append(inner, id)
			}
		}
		touched := map[rctree.NodeID]bool{}
		for k := 0; k < 3; k++ {
			id := inner[rng.Intn(len(inner))]
			touched[id] = true
			if _, err := cl.AddSink(id, rctree.Wire{R: 1, C: 1}, "x", 1, 1, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.AddInternal(id, rctree.Wire{R: 1, C: 1}, false); err != nil {
				t.Fatal(err)
			}
			n := cl.Node(id)
			n.Wire.Aggressors = append(n.Wire.Aggressors, rctree.Coupling{Ratio: 0.5, Slope: 0.5})
		}
		gotCh, gotAg := listsOf(cl)
		for i := range origCh {
			id := rctree.NodeID(i)
			if touched[id] {
				// Its own lists grew, and still start with what they held.
				if len(gotCh[i]) <= len(origCh[i]) || !slices.Equal(gotCh[i][:len(origCh[i])], origCh[i]) ||
					len(gotAg[i]) <= len(origAg[i]) || !slices.Equal(gotAg[i][:len(origAg[i])], origAg[i]) {
					t.Fatalf("trial %d: node %d's lists are %v and %v, from %v and %v",
						trial, id, gotCh[i], gotAg[i], origCh[i], origAg[i])
				}
				continue
			}
			if !slices.Equal(gotCh[i], origCh[i]) || !slices.Equal(gotAg[i], origAg[i]) {
				t.Fatalf("trial %d: node %d's lists changed: children %v, want %v; aggressors %v, want %v",
					trial, id, gotCh[i], origCh[i], gotAg[i], origAg[i])
			}
		}
		nowCh, nowAg := listsOf(tr)
		for i := range origCh {
			if !slices.Equal(nowCh[i], origCh[i]) || !slices.Equal(nowAg[i], origAg[i]) {
				t.Fatalf("trial %d: the original's node %d changed", trial, i)
			}
		}
		if err := cl.Validate(); err != nil {
			t.Fatalf("trial %d: edited clone invalid: %v", trial, err)
		}
	}
}

// TestCloneAllocBudget pins Clone to a fixed number of allocations, the
// same for a 4-node tree as for a coupled 20,001-node one: the tree, its
// nodes, one array of child lists and one of aggressor lists.
func TestCloneAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	small := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 1, MaxSinks: 2})
	big := rctree.New("big", 1, 1)
	for i := 0; i < 10000; i++ {
		v, err := big.AddInternal(big.Root(), rctree.Wire{R: 1, C: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := big.AddSink(v, rctree.Wire{R: 1, C: 1}, "s", 1, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	withAggressors(big, 2)
	for _, tr := range []*rctree.Tree{small, big} {
		if got := testing.AllocsPerRun(20, func() { tr.Clone() }); got > 4 {
			t.Fatalf("Clone of a %d-node tree allocates %v, want at most 4", tr.Len(), got)
		}
	}
}
