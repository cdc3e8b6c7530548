package core

import (
	"sync"
	"sync/atomic"

	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// candArena recycles the dynamic program's candidate-list backing arrays
// through a process-wide sync.Pool. The bottom-up DP allocates one or two
// fresh lists per tree node (merge outputs, wire-sizing variants), and on
// the Section V workloads those transient slices dominated the allocation
// profile (~746k allocs on BenchmarkTableII before pooling). Each runVG
// invocation owns one arena, so the taken/returned counters form a strict
// per-run invariant — every list taken from the pool is returned exactly
// once before the run ends — that the stress tests assert via the
// "vg.pool.taken" and "vg.pool.returned" counters the arena flushes.
//
// Ownership discipline: each tree node's finished candidate list is owned
// by that node until its parent consumes it (merge or chain adoption); the
// consumer releases it. The root's list is released by runVG itself after
// the driver filter copies the survivors out. Slices handed to callers of
// runVG are therefore never pool-backed.
//
// The arena is safe for concurrent use: the parallel scheduler's workers
// share one arena and the counters are atomic.
type candArena struct {
	taken    atomic.Int64
	returned atomic.Int64
}

// candPool holds recycled candidate-list backing arrays. Candidates are
// pointer-free (their solutions are refs into a link table), so a pooled
// array pins nothing and goes back as it is.
var candPool = sync.Pool{}

// boxPool recycles the slice headers candPool carries its arrays in: get
// empties a box and returns it here, and put fills one from here, so
// pooling a list allocates nothing once both pools are warm.
var boxPool = sync.Pool{New: func() any { return new([]vgCand) }}

// arenaMinCap is the smallest backing array the arena hands out; merges
// and sizing loops grow lists quickly, so tiny initial capacities only buy
// extra growth copies.
const arenaMinCap = 16

// get returns an empty candidate list with capacity at least capHint.
func (a *candArena) get(capHint int) []vgCand {
	if a != nil {
		a.taken.Add(1)
	}
	if capHint < arenaMinCap {
		capHint = arenaMinCap
	}
	if sp, _ := candPool.Get().(*[]vgCand); sp != nil {
		if cap(*sp) >= capHint {
			s := (*sp)[:0]
			*sp = nil
			boxPool.Put(sp)
			return s
		}
		// Too small for this request: put it back for a smaller one
		// rather than dropping the array on the floor.
		candPool.Put(sp)
	}
	return make([]vgCand, 0, capHint)
}

// put returns a list to the pool. The counter is bumped even for
// zero-capacity slices so the taken/returned invariant is a pure call
// count, immune to append having swapped the backing array.
func (a *candArena) put(s []vgCand) {
	if a != nil {
		a.returned.Add(1)
	}
	if cap(s) == 0 {
		return
	}
	sp := boxPool.Get().(*[]vgCand)
	*sp = s[:0]
	candPool.Put(sp)
}

// flush publishes the arena's accounting to the obs registry. Called once
// per runVG; "vg.pool.taken" == "vg.pool.returned" is the no-leak
// invariant the race-gated stress tests check.
func (a *candArena) flush() {
	obs.Add("vg.pool.taken", a.taken.Load())
	obs.Add("vg.pool.returned", a.returned.Load())
}

// solRow is one row of a link table: one decision of a solution and the
// rows it builds on. kind > 0 inserts buffer kind−1 of the run's library
// at node; kind < 0 sizes node's parent wire at width −kind−1 of the
// run's widths; kind 0 is a junction, the union of a branch node's two
// sides' solutions (prev[0] and prev[1]), and decides nothing itself.
// 16 bytes, no Go pointers.
type solRow struct {
	node rctree.NodeID
	kind int16
	prev [2]int32
}

// bufKind and widthKind are the row kinds of buffer bi and width wi.
func bufKind(bi int) int16   { return int16(bi + 1) }
func widthKind(wi int) int16 { return int16(-wi - 1) }

// maxKinds bounds a library's types and a run's widths, so every kind
// fits a candidate's int16.
const maxKinds = 1<<15 - 1

// A ref names a row of a link table: row i of segment s is
// s<<segShift | i+1, and 0 names no row. segRows is a segment's capacity.
// A segment keeps its rows in fixed chunks of chunkRows (16 KiB), so it
// grows without copying and holds at most one chunk it does not fill.
const (
	segShift   = 25
	segRows    = 1<<segShift - 1
	chunkShift = 10
	chunkRows  = 1 << chunkShift
)

// linkTab holds the rows the candidates of one or more runs refer to —
// a plain solve's own table, or a session's, shared by every Delta — in
// one segment per pool worker, so parallel workers append without
// sharing a slice. Rows are written once and never moved during a run;
// only collectSol and, between a session's runs, compaction and the
// relocation after a prune renumbering read them.
type linkTab struct {
	segs [maxVGWorkers]linkSeg
	// picks and stack are collectSol's scratch, kept with the table so a
	// pooled or session table reads answers out without allocating.
	picks []solPick
	stack []int32
}

func (t *linkTab) row(ref int32) *solRow {
	i := ref&segRows - 1
	return &t.segs[ref>>segShift].chunks[i>>chunkShift][i&(chunkRows-1)]
}

// rows is the number of rows the table holds.
func (t *linkTab) rows() int {
	n := 0
	for i := range t.segs {
		n += int(t.segs[i].n)
	}
	return n
}

// seg opens segment id for appending; the caller stores it back.
func (t *linkTab) seg(id int) linkSeg {
	s := t.segs[id]
	s.id = int32(id)
	return s
}

// linkSeg is one segment, as its one writer appends to it.
type linkSeg struct {
	id     int32
	n      int32 // rows written
	full   bool  // an add found the segment at capacity
	chunks []*[chunkRows]solRow
}

// add appends r and returns its ref; on a full segment it returns 0 and
// sets full, which the caller turns into a budget error.
func (s *linkSeg) add(r solRow) int32 {
	i := s.n
	if i >= segRows {
		s.full = true
		return 0
	}
	if int(i>>chunkShift) == len(s.chunks) {
		s.chunks = append(s.chunks, new([chunkRows]solRow))
	}
	s.chunks[i>>chunkShift][i&(chunkRows-1)] = r
	s.n++
	return s.id<<segShift | s.n
}

// linkPool recycles plain solves' link tables: a table is taken for one
// solve and returned, emptied but keeping its chunks, once the answer
// has been read out of it.
var linkPool = sync.Pool{New: func() any { return new(linkTab) }}

func getLinkTab() *linkTab { return linkPool.Get().(*linkTab) }

func putLinkTab(t *linkTab) {
	for i := range t.segs {
		t.segs[i].n, t.segs[i].full = 0, false
	}
	linkPool.Put(t)
}
