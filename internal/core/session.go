package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"buffopt/internal/cache"
	"buffopt/internal/rctree"
	"sync"
	"sync/atomic"
)

// Session is one incremental-optimization conversation: a Problem whose
// tree evolves through edit streams, plus the subtree memo table that
// makes each re-solve O(depth) instead of O(n). Create with NewSession,
// re-solve with Delta. All methods are safe for concurrent use; edits to
// one session serialize.
//
// The session owns a private clone of the problem tree — callers can
// never reach in and desynchronize the incremental subtree hashes from
// the topology. Every edit batch edits a fresh copy of it, so a tree the
// session has solved on is never written again, and Delta answers share
// it read-only. The objective, library, and noise parameters are pinned
// at creation; the per-call Options (budget, safe pruning, sizing) may
// vary freely between Delta calls, because they are part of the memo key
// where they matter.
type Session struct {
	mu     sync.Mutex
	p      Problem
	memo   *memoTable
	hashes []rctree.SubtreeHash
	// topo is the memo's view of the tree's topology, built on the first
	// Delta and again after a graft or prune.
	topo  *memoTopo
	stats SessionStats
	// tab holds the rows of every memo entry's solutions; every Delta
	// appends to it, and compactLinks keeps it within twice the rows the
	// memo reaches. live is the rows attributed to resident entries
	// (subtreeMemo.rows).
	tab  linkTab
	live atomic.Int64
}

// SessionConfig bounds one session's memo table.
type SessionConfig struct {
	// MemoEntries caps resident subtree entries; 0 means unlimited.
	MemoEntries int
	// MemoBytes caps the memo's resident bytes; 0 means unlimited. An
	// evicted subtree is simply recomputed on its next use — eviction
	// affects speed, never results.
	MemoBytes int64
	// Namespace prefixes the memo's obs counters ("<ns>.cache.*");
	// empty means "eco".
	Namespace string
}

// SessionStats is a session's cumulative ledger. Lookups == Reused +
// Resolved holds after every successful Delta (a failed run may leave
// gated lookups without a matching store).
type SessionStats struct {
	Deltas   int64 // successful Delta calls
	Edits    int64 // edits applied (failed edit batches apply nothing)
	Lookups  int64 // subtree memo consultations
	Reused   int64 // subtrees answered from the memo
	Resolved int64 // subtrees computed and stored
}

// NewSession pins a Problem and builds its memo state. The tree must be
// valid and binary (Delta re-solves keep it that way; grafts that would
// break binariness are rejected). Validation failures wrap
// guard.ErrInvalidInput.
func NewSession(p Problem, cfg SessionConfig) (*Session, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Tree.Validate(); err != nil {
		return nil, invalid(err)
	}
	if !p.Tree.IsBinary() {
		return nil, invalid(errors.New("core: session tree must be binary; call Binarize first"))
	}
	ns := cfg.Namespace
	if ns == "" {
		ns = "eco"
	}
	p.Tree = p.Tree.Clone()
	s := &Session{p: p, hashes: p.Tree.SubtreeHashes()}
	s.memo = cache.New(cache.Config[*subtreeMemo]{
		MaxEntries: cfg.MemoEntries,
		MaxBytes:   cfg.MemoBytes,
		Size:       subtreeMemoSize,
		// No Clone: runs never write an entry (stored copies are
		// private, loads copy into the run's arena), so sharing the
		// stored value is safe and allocation-free.
		Namespace: ns,
		Dropped:   func(e *subtreeMemo) { dropMemo(&s.live, e) },
	})
	return s, nil
}

// Tree returns a private clone of the session's current tree (after all
// applied edits) — the from-scratch reference the differential suite
// solves for comparison.
func (s *Session) Tree() *rctree.Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Tree.Clone()
}

// Problem returns the session's current problem with a private tree
// clone.
func (s *Session) Problem() Problem {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.p
	p.Tree = p.Tree.Clone()
	return p
}

// Stats returns the session's cumulative ledger.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// MemoStats exposes the memo table's cache books (hits, evictions,
// resident bytes) for accounting and tests.
func (s *Session) MemoStats() cache.Stats { return s.memo.Stats() }

// MemoBytes returns the memo's resident byte total — what a server
// charges against a per-session byte budget.
func (s *Session) MemoBytes() int64 { return s.memo.Bytes() }

// Purge drops every memo entry (counted as evictions, so the cache books
// stay exact) and returns how many were dropped. The session remains
// usable; the next Delta recomputes from scratch.
func (s *Session) Purge() int { return s.memo.Purge() }

// EditOp enumerates the session edit operations.
type EditOp uint8

const (
	// EditSetCap sets a sink's input capacitance to Value (F).
	EditSetCap EditOp = iota
	// EditSetRAT sets a sink's required arrival time to Value (s).
	EditSetRAT
	// EditSetWire replaces a non-root node's parent wire with Wire
	// (resize, re-route, or aggressor change).
	EditSetWire
	// EditGraft attaches a copy of the tree Sub below Node through Wire;
	// Sub's source becomes an internal buffer site. Rejected when Node
	// already has two children (the DP needs binary trees).
	EditGraft
	// EditPrune removes the subtree rooted at Node and renumbers the
	// survivors; memoized results relocate automatically.
	EditPrune
)

func (op EditOp) String() string {
	switch op {
	case EditSetCap:
		return "set-cap"
	case EditSetRAT:
		return "set-rat"
	case EditSetWire:
		return "set-wire"
	case EditGraft:
		return "graft"
	case EditPrune:
		return "prune"
	}
	return fmt.Sprintf("edit(%d)", uint8(op))
}

// ParseEditOp is the inverse of EditOp.String. Errors wrap
// guard.ErrInvalidInput.
func ParseEditOp(s string) (EditOp, error) {
	for op := EditSetCap; op <= EditPrune; op++ {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, invalid(fmt.Errorf("core: unknown edit op %q", s))
}

// Edit is one step of an edit stream. Node addresses the session's
// current tree (IDs as renumbered by any earlier prunes in the stream).
// Delta retains nothing of an Edit: what it keeps, it copies in, so the
// caller may reuse or overwrite an edit once Delta returns.
type Edit struct {
	Op    EditOp
	Node  rctree.NodeID
	Value float64      // EditSetCap, EditSetRAT
	Wire  rctree.Wire  // EditSetWire, EditGraft; Aggressors copied in
	Sub   *rctree.Tree // EditGraft; deep-copied in
}

// applyEdit mutates t in place and returns the incrementally refreshed
// hash slice. A value edit (set-cap, set-rat, set-wire) runs
// rctree.CheckNode on the node it touched, exactly Validate's check of
// that node, so a value-only batch keeps a valid tree valid without a
// whole-tree Validate; a graft or prune leaves that to Delta. The edit
// keeps nothing of the caller's: a set-wire's aggressor list is copied in,
// as a graft's subtree is. Errors wrap guard.ErrInvalidInput; the caller
// discards the tree on error, so partial mutation is harmless.
func applyEdit(t *rctree.Tree, h []rctree.SubtreeHash, e Edit) ([]rctree.SubtreeHash, error) {
	valid := e.Node >= 0 && int(e.Node) < t.Len()
	switch e.Op {
	case EditSetCap, EditSetRAT:
		if !valid || t.Node(e.Node).Kind != rctree.Sink {
			return h, invalid(fmt.Errorf("core: %s target %d is not a sink", e.Op, e.Node))
		}
		if e.Op == EditSetCap {
			t.Node(e.Node).Cap = e.Value
		} else {
			t.Node(e.Node).RAT = e.Value
		}
		if err := t.CheckNode(e.Node); err != nil {
			return h, invalid(fmt.Errorf("core: %s value %g invalid: %w", e.Op, e.Value, err))
		}
		return t.RehashPath(h, e.Node), nil
	case EditSetWire:
		if !valid || e.Node == t.Root() {
			return h, invalid(fmt.Errorf("core: set-wire target %d has no parent wire", e.Node))
		}
		w := e.Wire
		w.Aggressors = slices.Clone(w.Aggressors) // nil stays nil: it selects estimation mode
		t.Node(e.Node).Wire = w
		if err := t.CheckNode(e.Node); err != nil {
			return h, invalid(fmt.Errorf("core: set-wire parameters %+v invalid: %w", e.Wire, err))
		}
		return t.RehashPath(h, e.Node), nil
	case EditGraft:
		if !valid {
			return h, invalid(fmt.Errorf("core: graft parent %d does not exist", e.Node))
		}
		if len(t.Node(e.Node).Children) >= 2 {
			return h, invalid(fmt.Errorf("core: graft below %d would break the binary form", e.Node))
		}
		if e.Sub == nil {
			return h, invalid(errors.New("core: graft without a subtree"))
		}
		if err := e.Sub.Validate(); err != nil {
			return h, invalid(fmt.Errorf("core: graft subtree: %w", err))
		}
		if !e.Sub.IsBinary() {
			return h, invalid(errors.New("core: graft subtree must be binary"))
		}
		g, err := t.Graft(e.Node, e.Sub, e.Wire)
		if err != nil {
			return h, invalid(err)
		}
		return t.RehashSubtree(h, g), nil
	case EditPrune:
		if !valid {
			return h, invalid(fmt.Errorf("core: prune target %d does not exist", e.Node))
		}
		parent := t.Node(e.Node).Parent
		remap, err := t.Prune(e.Node)
		if err != nil {
			return h, invalid(err)
		}
		// Permute the surviving hashes through the renumbering, then
		// refresh the detachment point's path (its child count changed).
		nh := make([]rctree.SubtreeHash, t.Len())
		for old, nv := range remap {
			if nv != rctree.None {
				nh[nv] = h[old]
			}
		}
		return t.RehashPath(nh, remap[parent]), nil
	}
	return h, invalid(fmt.Errorf("core: unknown edit op %d", e.Op))
}

// DeltaResult is a Delta's answer plus its reuse ledger.
type DeltaResult struct {
	*Result
	// Reused counts subtree candidate lists served from the session
	// memo; Resolved counts lists computed (and stored) this call.
	// Reused + Resolved == Lookups, exactly.
	Reused   int64
	Resolved int64
	Lookups  int64
}

// Delta applies an edit stream to the session and re-solves, reusing
// every memoized subtree the edits did not touch — O(depth) subtree
// merges for a leaf edit instead of the full O(n) walk. The result is
// bit-identical to Optimize on the session's post-edit problem (the
// delta differential suite is the gate). Edits apply atomically: if any
// edit is invalid, the session is unchanged and the error wraps
// guard.ErrInvalidInput. A solve failure (budget, cancellation) keeps
// the applied edits — the session stays consistent and a later Delta
// with an empty edit list retries the solve. Each set-cap, set-rat or
// set-wire edit is checked where it lands (rctree.CheckNode on its
// node); a batch with a graft or prune validates the whole tree.
//
// opts follows Optimize's contract, and the answer passes the same gate.
// Its tree is the session's post-edit snapshot, shared and read-only,
// unless sizing chose wire widths, which a private copy carries.
func Delta(ctx context.Context, s *Session, edits []Edit, opts Options) (*DeltaResult, error) {
	if s == nil {
		return nil, invalid(errors.New("core: Delta on a nil session"))
	}
	if err := opts.Sizing.Validate(); err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	var err error
	if len(edits) > 0 {
		// Copy-on-edit keeps the batch atomic: all edits land or none do.
		t := s.p.Tree.Clone()
		h := append([]rctree.SubtreeHash(nil), s.hashes...)
		for i, e := range edits {
			if h, err = applyEdit(t, h, e); err != nil {
				return nil, fmt.Errorf("core: delta edit %d (%s at node %d): %w", i, e.Op, e.Node, err)
			}
		}
		// Value edits checked the one node each touched; only a graft or
		// prune changes what Validate's tree-wide checks cover.
		reshaped := slices.ContainsFunc(edits, func(e Edit) bool { return e.Op == EditGraft || e.Op == EditPrune })
		if reshaped {
			if err := t.Validate(); err != nil {
				return nil, invalid(fmt.Errorf("core: edit stream left an invalid tree: %w", err))
			}
		}
		s.p.Tree, s.hashes = t, h
		s.stats.Edits += int64(len(edits))
		if s.topo != nil && reshaped {
			retireTopo(s.memo, &s.live)
			s.topo = nil
		}
	}
	if s.topo == nil {
		s.topo = newMemoTopo(s.p.Tree)
	}

	run := &memoRun{table: s.memo, hashes: s.hashes, topo: s.topo, tab: &s.tab, live: &s.live}
	opts.memo = run
	res, err := gate(ctx, func() (*Result, error) { return solveProblem(ctx, "delta", s.p, opts) })
	s.compactLinks()
	if err != nil {
		return nil, err
	}
	lk, ru, rs := run.counts()
	s.stats.Deltas++
	s.stats.Lookups += lk
	s.stats.Reused += ru
	s.stats.Resolved += rs
	return &DeltaResult{Result: res, Reused: ru, Resolved: rs, Lookups: lk}, nil
}

// linkSlack is how many rows a session's link table may hold beyond
// twice its live rows before compactLinks copies it: 64 KiB, so a small
// session never compacts.
const linkSlack = 4096

// compactLinks runs after every Delta. When the link table holds more
// than twice the rows attributed to resident memo entries (live, never
// more than the rows the memo reaches) plus linkSlack, it copies the rows
// the memo reaches into a fresh table, rewrites every entry's refs to the
// copies, and attributes each row to the most recently used entry that
// reaches it, so live is exact again. The table so stays within twice the
// rows the memo reaches plus linkSlack, and each compaction's cost, linear
// in the rows kept, is paid once the table has doubled.
func (s *Session) compactLinks() {
	if s.tab.rows() <= 2*int(s.live.Load())+linkSlack {
		return
	}
	entries := s.memo.Entries()
	// at maps an old row to its copy's ref, 0 until reached; order lists
	// the reached old rows in their copies' order.
	var at [maxVGWorkers][]int32
	for k := range s.tab.segs {
		if n := s.tab.segs[k].n; n > 0 {
			at[k] = make([]int32, n)
		}
	}
	slot := func(ref int32) *int32 { return &at[ref>>segShift][ref&segRows-1] }
	var order, stack []int32
	for k := len(entries) - 1; k >= 0; k-- {
		e := entries[k].Val
		first := len(order)
		for i := range e.cands {
			c := &e.cands[i]
			if c.sol == 0 {
				continue
			}
			for stack = append(stack[:0], c.sol); len(stack) > 0; {
				ref := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if ref == 0 || *slot(ref) != 0 {
					continue
				}
				n := len(order)
				*slot(ref) = int32(n/segRows)<<segShift | int32(n%segRows+1)
				order = append(order, ref)
				r := s.tab.row(ref)
				stack = append(stack, r.prev[0], r.prev[1])
			}
			c.sol = *slot(c.sol)
		}
		n := int64(len(order) - first)
		for {
			old := e.rows.Load()
			if old < 0 {
				break // dropped meanwhile by a Purge
			}
			if e.rows.CompareAndSwap(old, n) {
				s.live.Add(n - old)
				break
			}
		}
	}
	var nt linkTab
	seg := nt.seg(0)
	for _, ref := range order {
		r := *s.tab.row(ref)
		for p, prev := range r.prev {
			if prev != 0 {
				r.prev[p] = *slot(prev)
			}
		}
		if seg.add(r); seg.full {
			nt.segs[seg.id] = seg
			seg = nt.seg(int(seg.id) + 1)
			seg.add(r)
		}
	}
	nt.segs[seg.id] = seg
	s.tab = nt
}
