package core

import (
	"crypto/sha256"
	"slices"
	"sync/atomic"

	"buffopt/internal/buffers"
	"buffopt/internal/cache"
	"buffopt/internal/enc"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Subtree memoization: the incremental (ECO) re-solve engine's core.
//
// The dynamic program is bottom-up — a node's finished candidate list is
// a pure function of its subtree's content (topology + electricals,
// including the node's own parent wire, which is charged before the
// parent consumes the list) and of the solve options. rctree.SubtreeHash
// captures exactly the first part; memoKeySuffix captures the second.
// Between them, a memo entry keyed by hash+suffix can be replayed at any
// node of any tree whose subtree matches, and the replay is bit-identical
// to recomputation: post-prune lists are canonical (pruneVG's total-order
// sort plus dominance leaves no full ties), so the stored list IS the
// list a fresh compute would produce.
//
// An edit to one node therefore invalidates only the hashes on its
// root-to-node path: a memoized re-solve walks top-down from the root,
// loads every subtree whose entry is current, and recomputes just the
// O(depth) ancestors of the change — the ROADMAP's "Incremental (ECO)
// re-solve engine".

// subtreeMemo is one memoized per-subtree candidate list: a plain
// pointer-free slice whose refs name rows of the session's link table,
// which every run of the session appends to and no run rewrites. A load
// is one copy into the run's arena, before the DP may mutate the list in
// place; only compaction, between runs under the session lock, rewrites
// the refs (compactLinks). ids records the subtree's preorder node
// numbering at store time, so a load after a renumbering edit (prune)
// can relocate the solution rows instead of discarding the entry. It is
// a window of the session topology's preorder (memoTopo), shared with
// every other entry stored under that topology, never a copy of its own.
//
// rows is the entry's share of the table: rows its node's step or its
// relocation wrote, or that the last compaction assigned to it — each
// row attributed to one entry at most, and reached by it. So the rows
// attributed to resident entries (Session.live) never exceed the rows
// the memo reaches. −1 marks an entry the cache has dropped.
type subtreeMemo struct {
	ids   []rctree.NodeID
	cands []vgCand
	rows  atomic.Int64
}

// memoTopo is one session topology's preorder with every subtree's
// extent: node v's subtree is pre[at[v]:end[v]], in rctree's Subtree
// order. The session builds it once per topology — again only after a
// graft or prune — so a store takes its entry's ids as a window, and a
// load recognises a current entry by the window alone, both in O(1).
type memoTopo struct {
	pre     []rctree.NodeID
	at, end []int32
}

func newMemoTopo(t *rctree.Tree) *memoTopo {
	m := &memoTopo{pre: t.Preorder(), at: make([]int32, t.Len()), end: make([]int32, t.Len())}
	for i, v := range m.pre {
		m.at[v] = int32(i)
	}
	// A subtree ends where its last child's does: children follow their
	// parent in preorder, so a reverse scan sees them first.
	for i := len(m.pre) - 1; i >= 0; i-- {
		v := m.pre[i]
		if ch := t.Node(v).Children; len(ch) > 0 {
			m.end[v] = m.end[ch[len(ch)-1]]
		} else {
			m.end[v] = int32(i) + 1
		}
	}
	return m
}

// window returns node v's subtree ids, capped so no append can reach
// past them into the shared preorder.
func (m *memoTopo) window(v rctree.NodeID) []rctree.NodeID {
	lo, hi := m.at[v], m.end[v]
	return m.pre[lo:hi:hi]
}

// memoTable is the per-session store of subtree entries, bounded like
// every other cache in the system (LRU entries + bytes, exact books).
type memoTable = cache.Cache[*subtreeMemo]

// subtreeMemoSize approximates an entry's resident footprint: candidate
// structs plus an amortized share of the session's link table, plus the
// id list. Generous constants — the byte bound is a safety valve.
//
// A candidate is charged what it costs the process: the 64-byte vgCand
// plus its share of the link table — the memo reaches 0.24–0.30 rows per
// resident candidate on an eco_edit-like stream, so half a 16-byte row,
// doubled for the table's compaction slack — and the sum doubled again,
// since the collector lets the heap grow to twice its live bytes.
// TestDeltaMemoFootprint holds a session's candidates and table within
// half of what its memo is charged.
//
// An entry is charged 8 B per id of its window, twice a NodeID, as if it
// held a private copy. The windows share the session's current preorder,
// session state beside its subtree hashes, and a graft or prune copies
// every window out of the preorder it retires (retireTopo), so no entry
// pins one the session has dropped.
func subtreeMemoSize(e *subtreeMemo) int64 {
	const (
		base    = 96
		perCand = 2 * (64 + 2*16/2)
		perID   = 8
	)
	if e == nil {
		return base
	}
	return base + int64(len(e.cands))*perCand + int64(len(e.ids))*perID
}

// memoRun is one solve's view of a session memo: the table, the current
// subtree hashes (indexed by NodeID, kept incremental by the session),
// the options-slice key suffix (set by runVG), and the run's ledger.
// Counters are atomic because the parallel walk stores from worker
// goroutines; lookups == reused +
// resolved holds exactly on every successful run — the gate visits a
// node (one lookup), and every visited node is either loaded (reused) or
// computed and stored (resolved).
type memoRun struct {
	table  *memoTable
	hashes []rctree.SubtreeHash
	topo   *memoTopo
	suffix [sha256.Size]byte
	// tab is the session's link table and live its attributed rows
	// (subtreeMemo.rows).
	tab  *linkTab
	live *atomic.Int64

	lookups  atomic.Int64
	reused   atomic.Int64
	resolved atomic.Int64
}

// counts returns the run's ledger.
func (m *memoRun) counts() (lookups, reused, resolved int64) {
	return m.lookups.Load(), m.reused.Load(), m.resolved.Load()
}

// flush publishes the run ledger to the obs registry and the DP span.
func (m *memoRun) flush(sp *obs.SpanHandle) {
	lk, ru, rs := m.counts()
	obs.Add("vg.memo.lookups", lk)
	obs.Add("vg.memo.reused", ru)
	obs.Add("vg.memo.resolved", rs)
	sp.SetAttr("memo", "on")
}

// key is the memo key for node v: 64 raw bytes, the subtree's content
// hash followed by the options-slice suffix, built on the stack and
// converted once.
func (m *memoRun) key(v rctree.NodeID) string {
	var k [len(rctree.SubtreeHash{}) + sha256.Size]byte
	n := copy(k[:], m.hashes[v][:])
	copy(k[n:], m.suffix[:])
	return string(k[:])
}

// memoKeySuffix hashes the solve-relevant option slice and the buffer
// library (its buffers.Library.AppendKey bytes): everything besides the
// subtree content that determines a node's candidate list. Budget caps
// are excluded (they can only abort a run, never change a successful
// list), as are the merge path and the worker count (either merge,
// serial or parallel, yields bit-identical post-prune lists by the
// differential gates, and the path is a function of noise and
// safePruning, both keyed). maxBuffers is included because the iterative
// deepening ladder genuinely changes list contents per cap. It returns
// the raw digest.
func memoKeySuffix(o vgOptions, lib *buffers.Library) [sha256.Size]byte {
	var a [1024]byte
	b := enc.Str64(a[:0], "buffopt.subtreememo.v1")
	b = enc.Bool(b, o.noise)
	if o.noise {
		b = enc.F64(b, o.params.CouplingRatio)
		b = enc.F64(b, o.params.Slope)
	}
	b = enc.Bool(b, o.countIndexed)
	b = enc.U64(b, uint64(int64(o.maxBuffers)))
	b = enc.Bool(b, o.safePruning)
	b = enc.U64(b, uint64(len(o.widths)))
	for _, w := range o.widths {
		b = enc.F64(b, w)
	}
	b = enc.F64(b, o.fringe)
	return sha256.Sum256(lib.AppendKey(b))
}

// store memoizes node v's finished candidate list: a private plain copy
// (never arena-backed, so the list's next owner cannot write it) plus the
// subtree's window of the topology preorder and the rows v's step wrote.
// Called from computeNode after the list is final (pruned, wire-charged
// and linked), so serial, parallel, and subset walks all store through
// the same line.
func (m *memoRun) store(v rctree.NodeID, list []vgCand, rows int) {
	m.resolved.Add(1)
	m.put(m.key(v), &subtreeMemo{
		ids:   m.topo.window(v),
		cands: append([]vgCand(nil), list...),
	}, int64(rows))
}

// put stores e under key with rows attributed to it.
func (m *memoRun) put(key string, e *subtreeMemo, rows int64) {
	e.rows.Store(rows)
	m.live.Add(rows)
	m.table.Put(key, e)
}

// dropMemo is the session cache's Dropped hook: an entry leaving the
// cache takes its attributed rows out of live.
func dropMemo(live *atomic.Int64, e *subtreeMemo) {
	if n := e.rows.Swap(-1); n > 0 {
		live.Add(-n)
	}
}

// load returns an arena-backed copy of node v's memoized list, if the
// table holds a current entry. An entry stored under this topology holds
// v's window itself. One from before a graft or prune is checked id by
// id and re-stored on the current window — relocated first through the
// positional old→new id map when the tree was renumbered (hash equality
// guarantees the two preorders align node for node). A relocation that
// finds the link table's segment full is a miss.
func (m *memoRun) load(v rctree.NodeID, ar *candArena) ([]vgCand, bool) {
	key := m.key(v)
	e, ok := m.table.Get(key)
	if !ok {
		return nil, false
	}
	ids := m.topo.window(v)
	if !sameWindow(e.ids, ids) {
		if equalIDs(e.ids, ids) {
			m.put(key, &subtreeMemo{ids: ids, cands: e.cands}, max(e.rows.Load(), 0))
		} else {
			ne, rows, ok := remapMemo(e, ids, m.tab)
			if !ok {
				return nil, false
			}
			m.put(key, ne, rows)
			e = ne
		}
	}
	m.reused.Add(1)
	return append(ar.get(len(e.cands)), e.cands...), true
}

// sameWindow reports whether a and b are the same window of one
// preorder.
func sameWindow(a, b []rctree.NodeID) bool {
	return len(a) == len(b) && &a[0] == &b[0]
}

// retireTopo copies every entry's ids out of the session's preorder
// before a graft or prune replaces it, so no entry pins a retired
// preorder. Replaying the entries oldest first keeps their recency, and
// each replaced value counts as an eviction, so the cache books stay
// balanced.
func retireTopo(table *memoTable, live *atomic.Int64) {
	for _, e := range table.Entries() {
		ne := &subtreeMemo{ids: slices.Clone(e.Val.ids), cands: e.Val.cands}
		rows := max(e.Val.rows.Load(), 0)
		ne.rows.Store(rows)
		live.Add(rows)
		table.Put(e.Key, ne)
	}
}

func equalIDs(a, b []rctree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// remapMemo rebuilds an entry under a new node numbering: its candidates'
// pending rows renumbered, and a copy of every row they reach, appended
// to segment 0 of tab — rows are write-once, and other entries still
// read the old ones. It returns the entry and the rows it wrote, or
// false if the segment filled up.
func remapMemo(e *subtreeMemo, ids []rctree.NodeID, tab *linkTab) (*subtreeMemo, int64, bool) {
	idMap := make(map[rctree.NodeID]rctree.NodeID, len(e.ids))
	for i, old := range e.ids {
		idMap[old] = ids[i]
	}
	seg := tab.seg(0)
	seen := make(map[int32]int32)
	cands := make([]vgCand, len(e.cands))
	for i, c := range e.cands {
		c.sol = remapSol(tab, &seg, c.sol, idMap, seen)
		if c.kind != 0 {
			c.node = idMap[c.node]
		}
		cands[i] = c
	}
	rows := seg.n - tab.segs[0].n
	tab.segs[0] = seg
	return &subtreeMemo{ids: ids, cands: cands}, int64(rows), !seg.full
}

// remapSol copies row ref and every row it reaches into seg under idMap,
// once per row (seen), and returns the copy's ref.
func remapSol(tab *linkTab, seg *linkSeg, ref int32, idMap map[rctree.NodeID]rctree.NodeID, seen map[int32]int32) int32 {
	if ref == 0 {
		return 0
	}
	if r, ok := seen[ref]; ok {
		return r
	}
	r := *tab.row(ref)
	if r.kind != 0 {
		r.node = idMap[r.node]
	}
	r.prev[0] = remapSol(tab, seg, r.prev[0], idMap, seen)
	r.prev[1] = remapSol(tab, seg, r.prev[1], idMap, seen)
	nr := seg.add(r)
	seen[ref] = nr
	return nr
}

// memoGate is the top-down phase of a memoized run: starting at the root,
// load every subtree whose entry is current (its nodes are skipped
// entirely) and descend into the rest. It returns the compute set in
// postorder — children before parents, ready for the serial loop or the
// parallel climb. The set is ancestor-closed (a computed node's parent
// also missed, or the gate would not have descended), which is exactly
// the invariant the parallel scheduler's last-child-finisher climb needs.
func memoGate(t *rctree.Tree, opts vgOptions, lists [][]vgCand) ([]rctree.NodeID, error) {
	m := opts.memo
	var order []rctree.NodeID
	type frame struct {
		id      rctree.NodeID
		next    int
		checked bool
	}
	stack := []frame{{id: t.Root()}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if !f.checked {
			f.checked = true
			if err := opts.budget.Check(); err != nil {
				return order, err
			}
			m.lookups.Add(1)
			if list, ok := m.load(f.id, opts.arena); ok {
				lists[f.id] = list
				stack = stack[:len(stack)-1]
				continue
			}
		}
		ch := t.Node(f.id).Children
		if f.next < len(ch) {
			f.next++
			stack = append(stack, frame{id: ch[f.next-1]})
			continue
		}
		order = append(order, f.id)
		stack = stack[:len(stack)-1]
	}
	return order, nil
}
