package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"sync/atomic"

	"buffopt/internal/buffers"
	"buffopt/internal/cache"
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

// subtreeMemo is one memoized per-subtree candidate list. Entries are
// immutable once stored (the session cache runs with a nil Clone): the
// cands slice and the solLink DAG behind it are never written after Put,
// and loads copy the slice into the run's arena before the DP may mutate
// it in place. ids records the subtree's preorder node numbering at store
// time, so a load after a renumbering edit (prune) can relocate the
// solution DAG instead of discarding the entry.
type subtreeMemo struct {
	ids   []rctree.NodeID
	cands []vgCand
}

// memoTable is the per-session store of subtree entries, bounded like
// every other cache in the system (LRU entries + bytes, exact books).
type memoTable = cache.Cache[*subtreeMemo]

// subtreeMemoSize approximates an entry's resident footprint: candidate
// structs plus an amortized share of the solution DAG behind them, plus
// the id list. Generous constants — the byte bound is a safety valve.
func subtreeMemoSize(e *subtreeMemo) int64 {
	const (
		base    = 96
		perCand = 160 // vgCand (72 B) + amortized solLink share
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
	suffix string

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

// key is the memo key for node v: the subtree's content hash plus the
// options slice.
func (m *memoRun) key(v rctree.NodeID) string {
	return hex.EncodeToString(m.hashes[v][:]) + "/" + m.suffix
}

// memoKeySuffix hashes the solve-relevant option slice and the buffer
// library: everything besides the subtree content that determines a
// node's candidate list. Budget caps are excluded (they can only abort a
// run, never change a successful list), as are the merge path and the
// worker count (either merge, serial or parallel, yields bit-identical
// post-prune lists by the differential gates, and the path is a function
// of noise and safePruning, both keyed). maxBuffers is included because
// the iterative deepening ladder genuinely changes list contents per cap.
func memoKeySuffix(o vgOptions, lib *buffers.Library) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	b1 := func(v byte) { buf[0] = v; h.Write(buf[:1]) }
	bol := func(v bool) {
		if v {
			b1(1)
		} else {
			b1(0)
		}
	}
	str := func(s string) { u64(uint64(len(s))); io.WriteString(h, s) }

	str("buffopt.subtreememo.v1")
	bol(o.noise)
	if o.noise {
		f64(o.params.CouplingRatio)
		f64(o.params.Slope)
	}
	bol(o.countIndexed)
	u64(uint64(int64(o.maxBuffers)))
	bol(o.safePruning)
	u64(uint64(len(o.widths)))
	for _, w := range o.widths {
		f64(w)
	}
	f64(o.fringe)
	u64(uint64(len(lib.Buffers)))
	for _, b := range lib.Buffers {
		str(b.Name)
		f64(b.Cin)
		f64(b.R)
		f64(b.T)
		f64(b.NoiseMargin)
		bol(b.Inverting)
		u64(uint64(int64(b.Weight)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// store memoizes node v's finished candidate list: a private plain copy
// (never arena-backed — the arena zeroes returned backing) plus the
// subtree's current preorder ids. Called from computeNode after the list
// is final (pruned and wire-charged), so serial, parallel, and subset
// walks all store through the same line.
func (m *memoRun) store(t *rctree.Tree, v rctree.NodeID, list []vgCand) {
	m.resolved.Add(1)
	m.table.Put(m.key(v), &subtreeMemo{
		ids:   t.Subtree(v),
		cands: append([]vgCand(nil), list...),
	})
}

// load returns an arena-backed copy of node v's memoized list, if the
// table holds a current entry. When the tree was renumbered since the
// entry was stored (prune compaction), the stored solution DAG is
// relocated through the positional old→new id map — hash equality
// guarantees the two preorders align node for node — and the relocated
// entry replaces the stale one.
func (m *memoRun) load(t *rctree.Tree, v rctree.NodeID, ar *candArena) ([]vgCand, bool) {
	key := m.key(v)
	e, ok := m.table.Get(key)
	if !ok {
		return nil, false
	}
	ids := t.Subtree(v)
	if !equalIDs(e.ids, ids) {
		e = remapMemo(e, ids)
		m.table.Put(key, e)
	}
	m.reused.Add(1)
	return append(ar.get(len(e.cands)), e.cands...), true
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

// remapMemo rebuilds an entry under a new node numbering. solLinks are
// immutable, so relocation builds fresh links, memoized per old link to
// preserve the DAG's sharing (and its size).
func remapMemo(e *subtreeMemo, ids []rctree.NodeID) *subtreeMemo {
	idMap := make(map[rctree.NodeID]rctree.NodeID, len(e.ids))
	for i, old := range e.ids {
		idMap[old] = ids[i]
	}
	seen := make(map[*solLink]*solLink)
	cands := make([]vgCand, len(e.cands))
	for i, c := range e.cands {
		c.sol = remapSol(c.sol, idMap, seen)
		cands[i] = c
	}
	return &subtreeMemo{ids: ids, cands: cands}
}

func remapSol(l *solLink, idMap map[rctree.NodeID]rctree.NodeID, seen map[*solLink]*solLink) *solLink {
	if l == nil {
		return nil
	}
	if r, ok := seen[l]; ok {
		return r
	}
	nl := *l
	if nn, ok := idMap[l.node]; ok {
		nl.node = nn
	}
	nl.prev[0] = remapSol(l.prev[0], idMap, seen)
	nl.prev[1] = remapSol(l.prev[1], idMap, seen)
	seen[l] = &nl
	return &nl
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
			if list, ok := m.load(t, f.id, opts.arena); ok {
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
