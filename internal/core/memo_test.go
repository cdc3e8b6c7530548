package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"buffopt/internal/cache"
	"buffopt/internal/rctree"
)

// balancedTree builds a complete binary tree of the given depth: internal
// buffer sites down to 2^depth sinks.
func balancedTree(t *testing.T, depth int) *rctree.Tree {
	t.Helper()
	tr := rctree.New("bal", 100, 0)
	w := rctree.Wire{R: 10, C: 1e-15, Length: 1e-5}
	level := []rctree.NodeID{tr.Root()}
	for d := 0; d < depth; d++ {
		var next []rctree.NodeID
		for _, p := range level {
			for k := 0; k < 2; k++ {
				var id rctree.NodeID
				var err error
				if d == depth-1 {
					id, err = tr.AddSink(p, w, fmt.Sprintf("s%d", len(next)), 1e-15, 1e-9, 0.8)
				} else {
					id, err = tr.AddInternal(p, w, true)
				}
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, id)
			}
		}
		level = next
	}
	return tr
}

// TestMemoTopoWindows checks the topology's windows against
// rctree's Subtree at every node, before and after a prune renumbers
// the tree.
func TestMemoTopoWindows(t *testing.T) {
	tr := balancedTree(t, 6)
	for pass := 0; pass < 2; pass++ {
		topo := newMemoTopo(tr)
		for v := 0; v < tr.Len(); v++ {
			if got, want := topo.window(rctree.NodeID(v)), tr.Subtree(rctree.NodeID(v)); !slices.Equal(got, want) {
				t.Fatalf("pass %d: node %d window %v, subtree %v", pass, v, got, want)
			}
		}
		if pass == 0 {
			if _, err := tr.Prune(tr.Node(tr.Node(tr.Root()).Children[0]).Children[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMemoKeys: a key is the 64 raw bytes of a subtree hash and an
// options suffix, and two keys are equal exactly when both parts are. A
// sizing-widths change moves the suffix, so no key crosses between the
// two option sets; no two different subtrees share a key under one.
func TestMemoKeys(t *testing.T) {
	_, lib, _ := diffCorpus(t, 1)
	tr := balancedTree(t, 4) // one subtree hash per level
	hashes := tr.SubtreeHashes()
	o := vgOptions{noise: true}
	plain := memoKeySuffix(o, lib)
	o.widths = []float64{1, 2}
	sized := memoKeySuffix(o, lib)
	if plain == sized {
		t.Fatal("a widths change leaves the suffix unchanged")
	}
	type part struct {
		hash   rctree.SubtreeHash
		suffix [32]byte
	}
	seen := map[string]part{}
	for _, suffix := range [][32]byte{plain, sized} {
		run := &memoRun{hashes: hashes, suffix: suffix}
		for v := range tr.Len() {
			k := run.key(rctree.NodeID(v))
			if len(k) != 64 {
				t.Fatalf("node %d: key of %d bytes", v, len(k))
			}
			p := part{hashes[v], suffix}
			if q, ok := seen[k]; ok && q != p {
				t.Fatalf("node %d: key shared by (%x, %x) and (%x, %x)", v, p.hash, p.suffix, q.hash, q.suffix)
			}
			seen[k] = p
		}
	}
	distinct := map[part]bool{}
	for _, p := range seen {
		distinct[p] = true
	}
	if len(distinct) != len(seen) || len(seen) != 2*5 {
		t.Fatalf("%d keys for %d (hash, suffix) pairs", len(seen), len(distinct))
	}
}

// TestMemoStoreLoadFlatAllocs pins the memo's O(1) ids: storing or
// loading the root's entry of a 4,095-node tree allocates exactly what a
// sink's entry does, so neither copies nor walks the subtree.
func TestMemoStoreLoadFlatAllocs(t *testing.T) {
	tr := balancedTree(t, 11)
	run := &memoRun{
		table:  cache.New(cache.Config[*subtreeMemo]{Size: subtreeMemoSize}),
		hashes: tr.SubtreeHashes(),
		topo:   newMemoTopo(tr),
		tab:    &linkTab{},
		live:   new(atomic.Int64),
	}
	list := []vgCand{{load: 1, q: 2}, {load: 2, q: 3}}
	ar := &candArena{}
	allocs := func(v rctree.NodeID) (store, load float64) {
		store = testing.AllocsPerRun(50, func() { run.store(v, list, 0) })
		load = testing.AllocsPerRun(50, func() {
			l, ok := run.load(v, ar)
			if !ok {
				t.Fatalf("node %d: stored entry not loaded", v)
			}
			ar.put(l)
		})
		return store, load
	}
	sink := tr.Sinks()[0]
	rs, rl := allocs(tr.Root())
	ss, sl := allocs(sink)
	if rs != ss || rl != sl {
		t.Fatalf("root (%d nodes) store/load allocate %v/%v, sink %v/%v", tr.Len(), rs, rl, ss, sl)
	}
}

// TestDeltaRetiresPreorder checks that a prune leaves no memo entry
// holding a window of the preorder it retired, and that the entries it
// copied out still serve the next solve.
func TestDeltaRetiresPreorder(t *testing.T) {
	_, lib, params := diffCorpus(t, 1)
	tr := balancedTree(t, 5)
	s, err := NewSession(Problem{Tree: tr, Library: lib, Params: params, Objective: MaxSlackNoise}, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Delta(context.Background(), s, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	old := s.topo.pre
	v := tr.Node(tr.Node(tr.Root()).Children[0]).Children[1]
	res, err := Delta(context.Background(), s, []Edit{{Op: EditPrune, Node: v}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused == 0 {
		t.Fatalf("no entry reused after the prune: %+v", res)
	}
	for _, e := range s.memo.Entries() {
		for i := range old {
			if &old[i] == &e.Val.ids[0] {
				t.Fatalf("entry %x still holds a window of the retired preorder", e.Key)
			}
		}
	}
}
