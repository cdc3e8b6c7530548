package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"buffopt/internal/cache"
	"buffopt/internal/rctree"
	"sync"
)

// Session is one incremental-optimization conversation: a Problem whose
// tree evolves through edit streams, plus the subtree memo table that
// makes each re-solve O(depth) instead of O(n). Create with NewSession,
// re-solve with Delta. All methods are safe for concurrent use; edits to
// one session serialize.
//
// The session owns a private clone of the problem tree — callers can
// never reach in and desynchronize the incremental subtree hashes from
// the topology. The objective, library, and noise parameters are pinned
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
	return &Session{
		p: p,
		memo: cache.New(cache.Config[*subtreeMemo]{
			MaxEntries: cfg.MemoEntries,
			MaxBytes:   cfg.MemoBytes,
			Size:       subtreeMemoSize,
			// No Clone: entries are immutable by construction (stored
			// copies are private, loads copy into the run's arena), so
			// sharing the stored value is safe and allocation-free.
			Namespace: ns,
		}),
		hashes: p.Tree.SubtreeHashes(),
	}, nil
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
type Edit struct {
	Op    EditOp
	Node  rctree.NodeID
	Value float64      // EditSetCap, EditSetRAT
	Wire  rctree.Wire  // EditSetWire, EditGraft
	Sub   *rctree.Tree // EditGraft; never retained (deep-copied in)
}

// applyEdit mutates t in place and returns the incrementally refreshed
// hash slice. Errors wrap guard.ErrInvalidInput; the caller discards the
// tree on error, so partial mutation is harmless.
func applyEdit(t *rctree.Tree, h []rctree.SubtreeHash, e Edit) ([]rctree.SubtreeHash, error) {
	valid := e.Node >= 0 && int(e.Node) < t.Len()
	switch e.Op {
	case EditSetCap, EditSetRAT:
		if !valid || t.Node(e.Node).Kind != rctree.Sink {
			return h, invalid(fmt.Errorf("core: %s target %d is not a sink", e.Op, e.Node))
		}
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) || (e.Op == EditSetCap && e.Value < 0) {
			return h, invalid(fmt.Errorf("core: %s value %g invalid", e.Op, e.Value))
		}
		if e.Op == EditSetCap {
			t.Node(e.Node).Cap = e.Value
		} else {
			t.Node(e.Node).RAT = e.Value
		}
		return t.RehashPath(h, e.Node), nil
	case EditSetWire:
		if !valid || e.Node == t.Root() {
			return h, invalid(fmt.Errorf("core: set-wire target %d has no parent wire", e.Node))
		}
		w := e.Wire
		if w.R < 0 || w.C < 0 || w.Length < 0 ||
			math.IsNaN(w.R+w.C+w.Length) || math.IsInf(w.R+w.C+w.Length, 0) {
			return h, invalid(fmt.Errorf("core: set-wire parameters %+v invalid", w))
		}
		t.Node(e.Node).Wire = w
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
// with an empty edit list retries the solve.
//
// opts follows Optimize's contract, and the answer passes the same gate.
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
		if err := t.Validate(); err != nil {
			return nil, invalid(fmt.Errorf("core: edit stream left an invalid tree: %w", err))
		}
		s.p.Tree, s.hashes = t, h
		s.stats.Edits += int64(len(edits))
		if s.topo != nil && slices.ContainsFunc(edits, func(e Edit) bool { return e.Op == EditGraft || e.Op == EditPrune }) {
			retireTopo(s.memo)
			s.topo = nil
		}
	}
	if s.topo == nil {
		s.topo = newMemoTopo(s.p.Tree)
	}

	run := &memoRun{table: s.memo, hashes: s.hashes, topo: s.topo}
	opts.memo = run
	res, err := gate(ctx, func() (*Result, error) { return solveProblem(ctx, "delta", s.p, opts) })
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
