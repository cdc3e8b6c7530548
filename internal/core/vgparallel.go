package core

import (
	"sync"
	"sync/atomic"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// runVGParallel executes the bottom-up dynamic program on a bounded worker
// pool. The tree is a dependency DAG — a node is ready once all of its
// children are computed — and independent subtrees proceed concurrently:
//
//   - Each worker claims a sink (leaf) from a shared cursor and walks
//     upward, computing nodes as they become ready.
//   - At a branch merge, an atomic per-node counter of unfinished children
//     decides who continues: the worker that finishes the *last* child
//     computes the parent and keeps climbing; the other worker abandons
//     the path and claims a fresh leaf. The counter's atomic decrement is
//     also the happens-before edge that publishes the children's finished
//     candidate lists to whichever worker merges them.
//
// Determinism: computeNode is a pure function of the children's lists, so
// the schedule affects only *when* a node is computed, never *what* it
// computes — parallel results are bit-identical to runVGSerial's, which
// the differential suite asserts on every corpus net. Per-worker vgStats
// and the shared arena keep the telemetry and pool accounting exact
// without hot-path contention. Each worker writes its rows to its own
// segment of the run's link table, and no worker reads a row, so a row
// needs no synchronization: a ref crosses to another worker inside a
// finished list, which the pending counter publishes.
//
// Failure: the first error (budget trip, cancellation, or a panic caught
// by guard.Safe) stops the run; workers notice the flag at node
// boundaries and abandon their paths. The caller releases the lists of
// whatever subtrees had finished.
//
// order is the compute set in postorder: the full tree for a from-scratch
// run, or a memoized run's miss set. The set is always ancestor-closed
// (a memoized run never computes a node whose parent it reuses), so the
// climb's parent is in the set unless the node is the root — the same
// termination logic either way.
func runVGParallel(t *rctree.Tree, lib *buffers.Library, opts vgOptions, lists [][]vgCand, workers int, order []rctree.NodeID) error {
	// Ready bookkeeping: pending[v] counts v's unfinished in-set children;
	// the set's leaves (sinks, or nodes whose whole fan-in was loaded from
	// the memo) seed the climb, in postorder so early workers start on
	// disjoint subtrees.
	inSet := make([]bool, t.Len())
	for _, v := range order {
		inSet[v] = true
	}
	pending := make([]atomic.Int32, t.Len())
	var leaves []rctree.NodeID
	for _, v := range order {
		n := 0
		for _, c := range t.Node(v).Children {
			if inSet[c] {
				n++
			}
		}
		if n > 0 {
			pending[v].Store(int32(n))
		} else {
			leaves = append(leaves, v)
		}
	}
	if workers > len(leaves) {
		workers = len(leaves)
	}

	var (
		cursor  atomic.Int64 // next unclaimed leaf index
		stopped atomic.Bool  // set once any worker fails
		errOnce sync.Once
		runErr  error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			stopped.Store(true)
		})
	}

	root := t.Root()
	work := func(wopts vgOptions) error {
		for !stopped.Load() {
			i := cursor.Add(1) - 1
			if i >= int64(len(leaves)) {
				return nil
			}
			v := leaves[i]
			for {
				if err := computeNode(t, lib, wopts, v, lists); err != nil {
					return err
				}
				if v == root {
					return nil
				}
				// The worker finishing a node's last child owns the
				// parent; everyone else drops the path here. The atomic
				// decrement orders the children's list writes before the
				// owner's merge reads them.
				parent := t.Node(v).Parent
				if pending[parent].Add(-1) != 0 {
					break
				}
				v = parent
				if stopped.Load() {
					return nil
				}
			}
		}
		return nil
	}

	// Per-worker stats keep the hot loops free of atomics; folded into the
	// run's totals after Wait, when no worker touches them anymore. Each
	// worker's node-step scratch is likewise its own, drawn from the pool
	// and returned to it after Wait if the run succeeded (as in runVG),
	// and so is its link segment, stored back into the table after Wait.
	workerStats := make([]vgStats, workers)
	workerScratch := make([]*nodeScratch, workers)
	workerLinks := make([]linkSeg, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		workerScratch[w] = getScratch()
		workerLinks[w] = opts.tab.seg(w)
		wopts := opts
		wopts.stats = &workerStats[w]
		wopts.scratch = workerScratch[w]
		wopts.links = &workerLinks[w]
		go func() {
			defer wg.Done()
			// Panic isolation: a crash on a pool goroutine would kill the
			// process outright (Solve's own guard.Safe only covers the
			// calling goroutine), so each worker carries its own guard.
			if err := guard.Safe("core.vg.worker", func() error { return work(wopts) }); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()

	for w := range workerStats {
		opts.stats.absorb(&workerStats[w])
		opts.tab.segs[w] = workerLinks[w]
		if runErr == nil {
			putScratch(workerScratch[w])
		}
	}
	return runErr
}
