package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// vgStats accumulates one runVG invocation's telemetry locally — plain
// int64 fields bumped inside the hot loops — and flushes to the obs
// registry once at the end, so instrumentation costs the DP a handful of
// atomic adds per run rather than per candidate. Li and Shi's O(bn²)
// (PAPERS.md) multiplies the list length per node, which highwater
// bounds, by a node step linear in it: the merge walk (merged) and the
// hull-filtered insertion (DESIGN §16). generated vs. pruned is the
// prune ratio. In parallel runs each worker owns a private
// vgStats, absorbed into the run's at the end, so the published totals are
// schedule-independent.
type vgStats struct {
	generated int64 // candidates created (sinks, merges, buffer insertions, width variants)
	pruned    int64 // candidates discarded by dominance pruning
	merged    int64 // candidates emitted by branch merges
	nodes     int64 // tree nodes visited
	highwater int64 // longest candidate list observed at any node
}

func (s *vgStats) list(n int) {
	if int64(n) > s.highwater {
		s.highwater = int64(n)
	}
}

// absorb folds a worker's private stats into the run total.
func (s *vgStats) absorb(o *vgStats) {
	s.generated += o.generated
	s.pruned += o.pruned
	s.merged += o.merged
	s.nodes += o.nodes
	if o.highwater > s.highwater {
		s.highwater = o.highwater
	}
}

func (s *vgStats) flush() {
	obs.Add("vg.candidates.generated", s.generated)
	obs.Add("vg.candidates.pruned", s.pruned)
	obs.Add("vg.candidates.merged", s.merged)
	obs.Add("vg.nodes.visited", s.nodes)
	obs.SetMax("vg.list.highwater", s.highwater)
}

// vgCand is an Algorithm 3 candidate: the five-tuple (C, q, I, NS, M) of
// Section IV-A, plus the buffer count for the Lillis extension and the
// inversion parity for libraries containing inverters. M, the partial
// solution, is a ref into the run's link table: the candidate holds no Go
// pointer, so sorting, merging, pruning, pooling and memoizing candidates
// move plain bytes. It is 64 bytes.
type vgCand struct {
	load float64 // C: downstream capacitance seen at the node
	q    float64 // slack at the node
	down float64 // I: downstream coupling current
	ns   float64 // NS: noise slack
	nbuf int     // buffers used in the subtree solution
	cost int     // Problem 3 weight of those buffers (Lillis power function)
	pol  uint8   // parity of inverting stages to every sink (0 = in phase)
	// kind and node are the candidate's pending row: its latest decision
	// (a buffer it inserted, a width it sized), not written to the table
	// yet — solRow's kinds, 0 for none. sol is the ref that row would
	// point back to, or with no pending row the candidate's solution
	// itself. A pending row is written only once something kept builds on
	// it, so the many candidates the prunes drop never cost one.
	kind int16
	node rctree.NodeID
	sol  int32
	// via defers sol, within one node step, to an entry of the node's
	// pending tables: a junction (> 0) or a pending source (< 0). The
	// step's link pass resolves it before the list leaves the node.
	via int32
}

// solPick is one decision of a solution: a buffer (kind > 0) or a width
// (kind < 0) at node, in solRow's kinds.
type solPick struct {
	node rctree.NodeID
	kind int16
}

// collectSol flattens candidate c's solution — its pending row, then
// every row of tab its sol reaches — into its decisions, in the table's
// scratch slice, valid until the next collectSol on tab. The walk keeps
// no visited set because no row is reached twice: a junction joins the
// solutions of two disjoint subtrees, and a buffer or width row at node v
// builds only on a solution of v's subtree, so the rows one solution
// reaches form a tree (TestCollectSolReachesRowsOnce).
func collectSol(tab *linkTab, c vgCand) []solPick {
	picks, stack := tab.picks[:0], tab.stack[:0]
	if c.kind != 0 {
		picks = append(picks, solPick{c.node, c.kind})
	}
	for stack = append(stack, c.sol); len(stack) > 0; {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ref == 0 {
			continue
		}
		r := tab.row(ref)
		if r.kind != 0 {
			picks = append(picks, solPick{r.node, r.kind})
		}
		stack = append(stack, r.prev[0], r.prev[1])
	}
	tab.picks, tab.stack = picks, stack
	return picks
}

// vgOptions configures one run of the dynamic program.
type vgOptions struct {
	noise        bool         // enforce noise constraints (BuffOpt) or not (DelayOpt)
	params       noise.Params // estimation-mode noise parameters
	countIndexed bool         // keep per-buffer-count lists (Lillis [18])
	maxBuffers   int          // with countIndexed: drop candidates above this count (0 = unlimited)
	safePruning  bool         // include (I, NS) in the dominance test
	// widths are the wire width multipliers available per wire (Lillis
	// [18] simultaneous wire sizing); nil or empty means {1}.
	widths []float64
	// fringe is the fraction of a minimum-width wire's capacitance that
	// does not scale with width (fringe + sidewall); the rest is area
	// capacitance multiplied by the width. Zero means 0.5.
	fringe float64
	// budget bounds the run; nil means unlimited. Checked at every node
	// of the bottom-up walk and inside the merge and prune loops.
	budget *guard.Budget
	// dp forces the merge path or the walk's pool size; the zero value
	// lets the run choose both (see dpOverride).
	dp dpOverride
	// stats, when non-nil, accumulates candidate counts for the run.
	// runVG installs its own (per worker in parallel runs); the field
	// exists so the helpers below see it without signature churn.
	stats *vgStats
	// arena recycles candidate-list backing arrays for the run; installed
	// by runVG alongside stats.
	arena *candArena
	// scratch is computeNode's working memory, installed like stats: one
	// per serial run, one per pool worker in parallel runs, each drawn
	// from scratchPool.
	scratch *nodeScratch
	// ins is what buffer insertion reads of the run's library, computed
	// once by runVG and shared read-only by every worker.
	ins *insLib
	// tab holds the rows the run's candidates refer to: a plain solve's
	// pooled table, or a session's. The caller supplies it and reads the
	// answer's solution out of it (collectSol).
	tab *linkTab
	// links is the segment of tab this walker appends to, installed like
	// stats: segment 0 for a serial run, one per pool worker in parallel
	// runs.
	links *linkSeg
	// memo, when non-nil, turns the run into a memoized (ECO) re-solve:
	// the top-down gate (memoGate) loads finished candidate lists for
	// every subtree whose entry is current, and only the remaining
	// compute set runs the DP — with every computed list stored back.
	// Results are bit-identical to a memo-free run; the delta
	// differential suite is the gate.
	memo *memoRun
}

// walkOK reports whether computeNode merges branch nodes by the Li–Shi
// frontier walk (lishi.go) rather than the classic cross product: in
// every configuration but 4-D safe pruning, whose dominance the 2-D walk
// cannot preserve, and the reference override. Under noise constraints
// the walk's pairs are what the node prunes, and buffer insertion reads
// the whole pair space from flat pair sums instead (mergeBranch). The
// same runs take the node step's sorted sweep (insertAndPrune,
// mergePrune).
func (o vgOptions) walkOK() bool {
	return !o.safePruning && !o.dp.classicMerge
}

// minParallelNodes gates automatic parallelism: below this tree size the
// per-node scheduling overhead outweighs the DP work, so workers == 0
// stays serial. A forced workers > 1 bypasses the gate.
const minParallelNodes = 128

// maxVGWorkers caps the pool, automatic or forced; beyond the hardware's
// parallelism extra goroutines only add scheduling churn.
const maxVGWorkers = 64

// workerCount resolves the effective parallelism for a tree of n nodes.
func (o vgOptions) workerCount(n int) int {
	w := o.dp.workers
	switch {
	case w == 1:
		return 1
	case w == 0:
		if n < minParallelNodes {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > maxVGWorkers {
		w = maxVGWorkers
	}
	if w > n {
		w = n
	}
	return w
}

// wireVariant returns the electrical parameters of a wire at width wd.
func (o vgOptions) wireVariant(w rctree.Wire, wd float64) (r, c float64) {
	if wd == 1 {
		return w.R, w.C
	}
	fr := o.fringe
	if fr == 0 {
		fr = 0.5
	}
	return w.R / wd, w.C * (fr + (1-fr)*wd)
}

// runVG executes the bottom-up dynamic program of Figs. 10–11 and returns
// the root candidates after the driver's delay and noise have been applied
// and infeasible candidates (noise violations when opts.noise is set, or
// inverted polarity) have been discarded. The result is pruned and sorted
// by ascending buffer count.
//
// The walk runs serially or on a bounded worker pool (workerCount; see
// runVGParallel) — the two paths execute the identical per-node
// computation (computeNode) on the identical inputs, so their outputs are
// bit-identical; the differential suite in differential_test.go enforces
// exactly that.
//
// t must have passed Tree.Validate at its door (Optimize, Solve,
// NewSession, or a Delta's edit checks); runVG checks only what the DP
// itself needs: a binary tree, the library, the widths and the budget.
func runVG(t *rctree.Tree, lib *buffers.Library, opts vgOptions) ([]vgCand, error) {
	if !t.IsBinary() {
		return nil, invalid(fmt.Errorf("core: the dynamic program requires a binary tree; call Binarize first"))
	}
	if err := lib.Validate(); err != nil {
		return nil, invalid(err)
	}
	if opts.noise {
		if err := opts.params.Validate(); err != nil {
			return nil, err
		}
	}
	for i, w := range opts.widths {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return nil, invalid(fmt.Errorf("core: wire width %d = %g must be positive and finite", i, w))
		}
	}
	if math.IsNaN(opts.fringe) || opts.fringe < 0 || opts.fringe > 1 {
		return nil, invalid(fmt.Errorf("core: sizing fringe fraction %g must lie in [0, 1]", opts.fringe))
	}
	if len(lib.Buffers) > maxKinds || len(opts.widths) > maxKinds {
		return nil, invalid(fmt.Errorf("core: %d buffer types and %d wire widths; the dynamic program takes at most %d of each",
			len(lib.Buffers), len(opts.widths), maxKinds))
	}
	if err := opts.budget.CheckTreeNodes(t.Len()); err != nil {
		return nil, err
	}

	// The run's merge path in telemetry: "lishi" for the frontier walk
	// (walkOK), "vg" for the classic cross product.
	merge := "vg"
	if opts.walkOK() {
		merge = "lishi"
	}
	obs.Inc("vg.run.engine." + merge)

	var st vgStats
	opts.stats = &st
	// A failed run's scratch is dropped rather than pooled: a panic can
	// leave it mid-step, its pending tables half resolved.
	opts.scratch = getScratch()
	opts.ins = newInsLib(lib)
	defer st.flush()
	// The DP span hangs off the budget's context, which carries the
	// request's trace (server → tier → here), so per-net DP time is
	// visible inside cross-process traces.
	_, vgSpan := obs.Span(opts.budget.Context(), "vg.run")
	vgSpan.SetAttr("engine", merge)
	defer vgSpan.End()

	ar := &candArena{}
	opts.arena = ar
	defer ar.flush()

	lists := make([][]vgCand, t.Len())
	var err error
	// A memoized run gates first: hit subtrees load their finished lists
	// and only the remaining compute set (in postorder, ancestor-closed)
	// runs the DP below.
	order := t.Postorder()
	if opts.memo != nil {
		opts.memo.suffix = memoKeySuffix(opts, lib)
		order, err = memoGate(t, opts, lists)
	}
	if err == nil {
		if workers := opts.workerCount(len(order)); workers > 1 {
			obs.Inc("vg.run.parallel")
			obs.SetMax("vg.parallel.workers", int64(workers))
			vgSpan.SetAttr("dp", "parallel")
			err = runVGParallel(t, lib, opts, lists, workers, order)
		} else {
			obs.Inc("vg.run.serial")
			vgSpan.SetAttr("dp", "serial")
			seg := opts.tab.seg(0)
			opts.links = &seg
			err = runVGSerial(t, lib, opts, lists, order)
			opts.tab.segs[0] = seg
		}
	}
	if opts.memo != nil {
		opts.memo.flush(vgSpan)
	}
	if err != nil {
		releaseLists(ar, lists)
		return nil, err
	}

	// Add the driver (Steps 2–3 of Fig. 10) and filter. The survivors are
	// copied into a plain slice — never pool-backed — because they escape
	// to the caller.
	var out []vgCand
	for _, c := range lists[t.Root()] {
		if c.pol != 0 {
			continue // inverted signal at the sinks
		}
		if opts.noise && t.DriverResistance*c.down > c.ns {
			continue // eq. 11 violated at the source gate
		}
		c.q -= t.DriverDelay + t.DriverResistance*c.load
		out = append(out, c)
	}
	ar.put(lists[t.Root()])
	lists[t.Root()] = nil
	out, err = pruneVG(out, opts)
	if err != nil {
		return nil, err
	}
	putScratch(opts.scratch)
	slices.SortFunc(out, func(a, b vgCand) int {
		if a.cost != b.cost {
			return cmp.Compare(a.cost, b.cost)
		}
		return firstIf(a.q > b.q)
	})
	return out, nil
}

// runVGSerial is the single-goroutine bottom-up walk over order — the
// full postorder for a from-scratch run, or a memoized run's compute set
// (children always before parents either way).
func runVGSerial(t *rctree.Tree, lib *buffers.Library, opts vgOptions, lists [][]vgCand, order []rctree.NodeID) error {
	for _, v := range order {
		if err := computeNode(t, lib, opts, v, lists); err != nil {
			return err
		}
	}
	return nil
}

// releaseLists returns every still-owned candidate list to the arena (the
// error path: a failed run leaves finished subtrees behind).
func releaseLists(ar *candArena, lists [][]vgCand) {
	for i, l := range lists {
		if l != nil {
			ar.put(l)
			lists[i] = nil
		}
	}
}

// computeNode performs the dynamic program's work for one tree node:
// build the node's candidate list from its children's finished lists
// (Steps 1–5 of Fig. 11), prune, charge the parent wire, and write the
// rows the kept candidates build on (nodeScratch.link). It is the single
// code path shared by the serial walk and the parallel scheduler — the
// computation depends only on the children's lists, never on evaluation
// order, which is what makes parallel results bit-identical to serial
// ones.
//
// List ownership: the node consumes (and releases to the arena) its
// children's lists and owns its own list until its parent consumes it; on
// error, every list the node still owns has been released.
func computeNode(t *rctree.Tree, lib *buffers.Library, opts vgOptions, v rctree.NodeID, lists [][]vgCand) error {
	st := opts.stats
	ar := opts.arena
	st.nodes++
	// The budget gate for the whole dynamic program: one context check
	// per node, plus candidate-count checks below wherever a list can
	// grow.
	if err := opts.budget.Check(); err != nil {
		return err
	}
	node := t.Node(v)
	// Step 5 considers inserting each buffer type at v.
	inserting := node.BufferOK && v != t.Root()
	start := opts.links.n
	var list, left, right []vgCand
	var err error
	switch {
	case node.Kind == rctree.Sink:
		st.generated++
		list = append(ar.get(1), vgCand{
			load: node.Cap,
			q:    node.RAT,
			down: 0,
			ns:   node.NoiseMargin,
			pol:  0,
		})
		list, err = insertAndPrune(v, list, inserting, opts)
	case len(node.Children) == 1:
		// Adopt the child's list wholesale: it is dead once the parent
		// runs, so the chain node extends it in place (no copy).
		c := node.Children[0]
		list, lists[c] = lists[c], nil
		list, err = insertAndPrune(v, list, inserting, opts)
	case len(node.Children) == 2:
		// The children's lists live until the link pass has read the
		// sides of the junctions it makes.
		l, r := node.Children[0], node.Children[1]
		left, right = lists[l], lists[r]
		lists[l], lists[r] = nil, nil
		defer func() {
			ar.put(left)
			ar.put(right)
		}()
		list, err = mergeBranch(v, left, right, inserting, opts)
	default:
		return fmt.Errorf("core: internal node %d has no children", v)
	}
	if err == nil {
		err = opts.budget.CheckCandidates(len(list))
	}
	if err != nil {
		ar.put(list)
		return err
	}

	// Step 6: charge the parent wire, once per available width. The
	// coupling current I_w is a sidewall quantity and does not change
	// with width; the resistance drops and the ground capacitance
	// grows, which is why widening is itself a noise fix.
	if v != t.Root() {
		w := node.Wire
		iw := opts.params.WireCurrent(w)
		widths := opts.widths
		if len(widths) == 0 {
			widths = oneWidth
		}
		if len(widths) == 1 && widths[0] == 1 {
			// The common no-sizing case charges the wire in place: same
			// arithmetic, in the same order, as chargeWidths with
			// wd == 1 — just without a second list.
			for i := range list {
				c := &list[i]
				c.q -= w.R * (w.C/2 + c.load)
				c.load += w.C
				c.ns -= w.R * (c.down + iw/2)
				c.down += iw
			}
		} else {
			sized := chargeWidths(ar.get(len(list)*len(widths)), list, v, w, iw, widths, opts)
			st.generated += int64(len(sized) - len(list))
			ar.put(list)
			list = sized
			list, err = pruneVG(list, opts)
			if err != nil {
				ar.put(list)
				return err
			}
		}
		if err := opts.budget.CheckCandidates(len(list)); err != nil {
			ar.put(list)
			return err
		}
	}
	opts.scratch.link(list, left, right, opts.links)
	if opts.links.full {
		ar.put(list)
		return errLinksFull
	}
	st.list(len(list))
	if opts.memo != nil {
		opts.memo.store(v, list, int(opts.links.n-start))
	}
	lists[v] = list
	return nil
}

// errLinksFull is the budget error of a run whose link table segment
// reached segRows rows.
var errLinksFull = fmt.Errorf("core: a link table segment reached %d rows: %w", segRows, guard.ErrBudgetExceeded)

// oneWidth is the default (no sizing) width set.
var oneWidth = []float64{1}

// chargeWidths appends to dst every candidate of the pruned list charged
// with the parent wire w of node v at each width, width by width. The
// charge adds the same capacitance to every load of a width, so each
// width's block keeps list's candCmp order and the result reaches
// pruneVG as at most len(widths) runs. A candidate at a width other than
// 1 carries the width as its pending row, built on the candidate it was
// charged from; a candidate with a pending row of its own is first made
// a shared source, so all its widths build on one row.
func chargeWidths(dst, list []vgCand, v rctree.NodeID, w rctree.Wire, iw float64, widths []float64, opts vgOptions) []vgCand {
	if slices.ContainsFunc(widths, func(wd float64) bool { return wd != 1 }) {
		for i := range list {
			opts.scratch.share(&list[i])
		}
	}
	for wi, wd := range widths {
		r, cw := opts.wireVariant(w, wd)
		for _, c := range list {
			nc := c
			nc.q -= r * (cw/2 + c.load)
			nc.load += cw
			nc.ns -= r * (c.down + iw/2)
			nc.down += iw
			if wd != 1 {
				nc.kind, nc.node = widthKind(wi), v
			}
			dst = append(dst, nc)
		}
	}
	return dst
}

// insertAndPrune finishes a sink's or a chain node's list at v (Steps 5
// and 7 of Fig. 11): buffer insertion on the list's own candidates when
// inserting, then the prune. A chain node's list nearly always arrives in
// candCmp order — its child's pruned list, charged with a wire that
// shifts every load alike — and then the node step is one sorted sweep:
// one pass (twoRuns) confirms the order, every insertion slot is a
// contiguous range of the list (slotRanges), the winners leave insertion
// as one sorted run, and mergePrune merges the two runs and prunes in the
// same pass. An unsorted list — a charge that rounds two loads equal, or
// a NaN — and the runs walkOK excludes take the general path: the
// counting sort into slots, and pruneVG.
func insertAndPrune(v rctree.NodeID, list []vgCand, inserting bool, opts vgOptions) ([]vgCand, error) {
	if !inserting {
		return pruneVG(list, opts)
	}
	n, sorted := len(list), false
	if opts.walkOK() {
		mid, ok := twoRuns(list, opts.countIndexed)
		sorted = ok && mid == n
	}
	list = insertBuffers(v, list, list, opts, sorted)
	if sorted {
		if mid, ok := twoRuns(list[n:], opts.countIndexed); ok && mid == len(list)-n {
			return opts.scratch.mergePrune(list, n, opts), nil
		}
	}
	return pruneVG(list, opts)
}

// mergeBranch builds branch node v's pruned list from its children's
// finished lists left and right (Steps 3–5 and 7 of Fig. 11); it reads
// them and leaves their release to the caller, after the node's link
// pass. The returned list comes from the arena, and on error the caller
// releases it too.
//
// Under safe pruning and the reference override the node prunes the
// cross product (mergeVG) and inserts buffers on it. Everywhere else it
// prunes the Li–Shi walk's pairs, which loses nothing (lishi.go). A
// delay-only run inserts buffers on the walk's pairs as well. Under
// noise constraints it cannot: a pair the walk skips can be the only one
// whose merged noise slack admits some buffer type. There insertion
// reads the whole pair space instead — flat pair sums in the scratch
// (pairSources), scanned in mergeVG's order under insertBuffers' rule, so
// the winners are the cross product's. Either way every pair is a
// pending junction, made by the link pass only for a pair the prune keeps
// or a kept winner builds on.
func mergeBranch(v rctree.NodeID, left, right []vgCand, inserting bool, opts vgOptions) ([]vgCand, error) {
	if !opts.walkOK() {
		list, err := mergeVG(left, right, opts)
		if err != nil {
			return list, err
		}
		return insertAndPrune(v, list, inserting, opts)
	}
	list, err := lishiMerge(left, right, opts)
	if err != nil {
		return list, err
	}
	if !opts.noise {
		return insertAndPrune(v, list, inserting, opts)
	}
	// The candidate cap is charged the cross product's size, as if it had
	// been built, so the same nets trip the same caps on every merge path.
	sc := opts.scratch
	if err := opts.budget.CheckCandidates(crossSize(sc.groups[0], sc.groups[1], opts)); err != nil {
		return list, err
	}
	if !inserting {
		return pruneVG(list, opts)
	}
	if err := sc.pairSources(left, right, opts); err != nil {
		return list, err
	}
	list = insertBuffers(v, list, sc.pairs, opts, false)
	return pruneVG(list, opts)
}

// insertBuffers appends to list the buffered candidates of Step 5 that
// the sources src drive — a chain node's own list (src is list), or a
// noise-mode branch node's pair sums (pairSources): for each buffer type
// (and, in count-indexed mode, each resulting buffer count and each
// parity) the source producing the largest post-buffer slack, subject to
// the noise constraint R_b·I ≤ NS when noise is enforced — the boldface
// modification of Fig. 11, Step 5. It is the DP's one winner rule.
//
// A slot is one (cost rank, output parity); a slot's best holds the
// winning source's index and its post-buffer slack, so the scan touches
// no map and allocates nothing. Acceptance is value-canonical (displaces):
// strictly greater slack wins, and on an exact tie the cheaper, then
// smaller, solution; only a full-value tie keeps the source scanned
// first, so a scan of the pair sums in mergeVG's order picks what the
// cross product would. The appended tail is sorted by candCmp, stably —
// the prune's own order and run merge — so it is one run, and a sorted
// chain node's prune is the fused merge-prune of its list and that run
// (mergePrune). (buffer, parity, cost) makes the winners unique, so
// repeated runs and parallel schedules see byte-identical lists. A
// winner leaves with its buffer at v as its pending row, built on its
// source: on the source's solution, a pair's pending junction, or, when
// the source has a pending row of its own, on that row — the source
// becomes a shared source (nodeScratch.share), so every winner built on
// it, and the source itself if kept, share one row. Nothing is written
// to the link table here: most winners are dominated at once.
//
// Every run but the reference takes insertHull: the sources grouped by
// slot, and the winners emitted already in candCmp order when they can
// be, so the sort is one linear check. When sorted says src is in candCmp
// order, with no NaN (twoRuns), each slot is a contiguous range of it
// (slotRanges); otherwise a counting sort groups it (slotGroups). A
// delay-only run first narrows each slot to the sources that can win for
// some buffer type (hullKeep); a noise-mode run scans its slots whole.
// The reference override scans every source type by type (insertScan),
// so the enginetest differential compares the two.
func insertBuffers(v rctree.NodeID, list, src []vgCand, opts vgOptions, sorted bool) []vgCand {
	sc := opts.scratch
	n := len(list)
	sc.at = v
	// A chain node's sources are its own list; if emitting the winners
	// moves the list, the sources shared since stay behind in src.
	aliased := n > 0 && len(src) == n && &src[0] == &list[0]
	switch {
	case opts.dp.classicMerge:
		list = sc.insertScan(list, src, opts.ins.lib, opts, sc.index(src, opts.countIndexed))
	case sorted:
		list = sc.insertHull(list, src, opts, sc.slotRanges(src, opts.countIndexed), true)
	default:
		list = sc.insertHull(list, src, opts, sc.slotGroups(src, len(sc.index(src, opts.countIndexed))), false)
	}
	if aliased && &list[0] != &src[0] {
		copy(list, src)
	}
	sc.sortCands(list[n:], opts.countIndexed)
	if opts.stats != nil {
		opts.stats.generated += int64(len(list) - n)
	}
	return list
}

// insertScan is the reference override's insertion: every source against
// every buffer type, the slot table reset for each type, the winners
// appended in (buffer index, slot) order.
func (sc *nodeScratch) insertScan(list, src []vgCand, lib *buffers.Library, opts vgOptions, slots []insSlot) []vgCand {
	for bi, b := range lib.Buffers {
		bc := b.Cost()
		inv := inversion(&b)
		for i := range slots {
			slots[i].src = -1
		}
		for i := range src {
			c := &src[i]
			if opts.noise && b.R*c.down > c.ns {
				continue // inserting here would violate downstream noise
			}
			if opts.countIndexed && opts.maxBuffers > 0 && c.cost+bc > opts.maxBuffers {
				continue
			}
			q := c.q - b.Delay(c.load)
			s := &slots[sc.slotOf[i]^int(inv)]
			if s.src < 0 || displaces(c, &src[s.src], q, s.q) {
				s.src, s.q = i, q
			}
		}
		for _, s := range slots {
			if s.src >= 0 {
				list = sc.appendWin(list, src, bi, &b, s)
			}
		}
	}
	return list
}

// displaces is the winner rule: source c, whose post-buffer slack is q,
// takes the slot from its current winner w, at slack wq, on strictly
// greater slack, and on an exact tie when cheaper, then smaller. A
// full-value tie keeps w, the source scanned first.
func displaces(c, w *vgCand, q, wq float64) bool {
	if q != wq {
		return q > wq
	}
	return c.cost < w.cost || (c.cost == w.cost && c.nbuf < w.nbuf)
}

// appendWin appends the winner s of buffer type b (library index bi) to
// list, with b at the insertion's node as its pending row.
func (sc *nodeScratch) appendWin(list, src []vgCand, bi int, b *buffers.Buffer, s insSlot) []vgCand {
	c := &src[s.src]
	sc.share(c)
	w := vgCand{
		load: b.Cin,
		q:    s.q,
		down: 0,
		ns:   b.NoiseMargin,
		nbuf: c.nbuf + 1,
		cost: c.cost + b.Cost(),
		pol:  c.pol ^ inversion(b),
		kind: bufKind(bi),
		node: sc.at,
		sol:  c.sol,
		via:  c.via,
	}
	return append(list, w)
}

// insertHull is insertBuffers' path in every run but the reference. It
// takes the sources grouped by slot — nslot slots, slot s's sources
// sc.bySlot[sc.slotAt[s-1]:sc.slotAt[s]] in src order, from slotRanges
// when src is sorted and slotGroups otherwise — and in a delay-only run
// first narrows each slot to the sources hullKeep cannot rule out; then it
// scans each slot's remaining sources under the same winner rule (bestIn).
// Every source the filter drops has, for every buffer type, another source
// in its slot with strictly greater post-buffer slack as computed, so the
// dropped sources hold none of a type's maxima and the winners are the
// full scan's. A noise-mode run scans its slots whole, testing each
// source against each type's R·I ≤ NS: every type admits its own subset,
// and no exact filter for that case measured cheaper than the scan it
// saves (DESIGN §16).
//
// When the run is not count-indexed, or every buffer costs the same, the
// winners are emitted slot by slot — each slot's output (cost,) parity
// ascending — and within a slot by ascending Cin, then library index: the
// candCmp order of the tail whenever the Cin are distinct. Candidates
// equal under candCmp still arrive in library order, as from the full
// scan, so the stable sort after this leaves the same list. Otherwise —
// and when a winner's slack is NaN — the emission is the full scan's
// (buffer index, slot) order.
func (sc *nodeScratch) insertHull(list, src []vgCand, opts vgOptions, nslot int, sorted bool) []vgCand {
	in := opts.ins
	at, by := sc.slotAt, sc.bySlot
	filter := in.filter && !opts.noise
	if filter {
		sc.gone = slices.Grow(sc.gone[:0], len(src))[:len(src)]
		clear(sc.gone)
		sc.keep = slices.Grow(sc.keep[:0], len(src))
	}
	sc.kept = slices.Grow(sc.kept[:0], nslot)[:nslot]
	lo := 0
	for s := range nslot {
		group := by[lo:at[s]]
		if filter {
			group = sc.hullKeep(src, group, in.hb, sorted)
		}
		sc.kept[s] = group
		lo = at[s]
	}

	// A count-indexed slot holds one cost, so the count cap skips all of
	// it or none.
	capped := opts.countIndexed && opts.maxBuffers > 0
	if !opts.countIndexed || in.sameCost {
		n := len(list)
		for o := range nslot {
			if len(sc.kept[o]) == 0 && len(sc.kept[o^1]) == 0 {
				continue // no type has a source for this slot
			}
			for _, bi := range in.byCin {
				list = sc.bestIn(list, src, in, bi, o, opts.noise, capped, opts.maxBuffers)
			}
		}
		if !hasNaNSlack(list[n:]) {
			return list
		}
		// candCmp cannot order a NaN slack, so the stable sort that
		// follows need not put such a tail where it puts the full scan's:
		// emit in the full scan's order instead.
		list = list[:n]
	}
	for bi := range in.lib.Buffers {
		for o := range nslot {
			list = sc.bestIn(list, src, in, bi, o, opts.noise, capped, opts.maxBuffers)
		}
	}
	return list
}

// slotGroups groups the sources by slot, in src order, by a counting sort
// of the slots index assigned: slot s's sources are
// sc.bySlot[sc.slotAt[s-1]:sc.slotAt[s]]. It returns nslot.
func (sc *nodeScratch) slotGroups(src []vgCand, nslot int) int {
	at := slices.Grow(sc.slotAt[:0], nslot+1)[:nslot+1]
	clear(at)
	for i := range src {
		at[sc.slotOf[i]+1]++
	}
	for s := 1; s <= nslot; s++ {
		at[s] += at[s-1]
	}
	by := slices.Grow(sc.groupBy[:0], len(src))[:len(src)]
	for i := range src {
		s := sc.slotOf[i]
		by[at[s]] = i
		at[s]++
	}
	sc.slotAt, sc.groupBy, sc.bySlot = at, by, by
	return nslot
}

// slotRanges groups src, which is in candCmp order, by slot without moving
// a source: each slot — 2·(the rank of its cost among src's distinct
// costs, 0 when not count-indexed) + parity — is a contiguous range of
// src, found by binary search, so bySlot is the identity and slotAt holds
// where each range ends. It returns the slot count. The ranks are not
// index's, which may leave ranks of absent costs empty, but they number
// the slots in the same order, and empty slots emit nothing, so the
// winners are the same.
func (sc *nodeScratch) slotRanges(src []vgCand, countIndexed bool) int {
	at := sc.slotAt[:0]
	rank := 0
	for lo := 0; lo < len(src); {
		g := &src[lo]
		if countIndexed && lo > 0 && g.cost != src[lo-1].cost {
			rank++
		}
		for s := 2*rank + int(g.pol); len(at) < s; {
			at = append(at, lo)
		}
		// The slot ends at the first source of a later group.
		l, h := lo+1, len(src)
		for l < h {
			if m := int(uint(l+h) >> 1); src[m].pol == g.pol && (!countIndexed || src[m].cost == g.cost) {
				l = m + 1
			} else {
				h = m
			}
		}
		at = append(at, l)
		lo = l
	}
	nslot := 2 * (rank + 1)
	for len(at) < nslot {
		at = append(at, len(src))
	}
	for i := len(sc.iota); i < len(src); i++ {
		sc.iota = append(sc.iota, i)
	}
	sc.slotAt, sc.bySlot = at, sc.iota[:len(src)]
	return nslot
}

// hasNaNSlack reports whether any candidate of list has a NaN slack.
func hasNaNSlack(list []vgCand) bool {
	for i := range list {
		if list[i].q != list[i].q {
			return true
		}
	}
	return false
}

// bestIn appends buffer type bi's winner for output slot o, if any: the
// best of the kept sources of the slot the type maps onto o — of those it
// admits, under noise constraints.
func (sc *nodeScratch) bestIn(list, src []vgCand, in *insLib, bi, o int, noise, capped bool, maxBuffers int) []vgCand {
	b := &in.lib.Buffers[bi]
	kept := sc.kept[o^int(inversion(b))]
	if len(kept) == 0 || capped && src[kept[0]].cost+b.Cost() > maxBuffers {
		return list
	}
	s := insSlot{src: -1}
	for _, i := range kept {
		c := &src[i]
		if noise && b.R*c.down > c.ns {
			continue // inserting here would violate downstream noise
		}
		q := c.q - b.Delay(c.load)
		if s.src < 0 || displaces(c, &src[s.src], q, s.q) {
			s.src, s.q = i, q
		}
	}
	if s.src < 0 {
		return list
	}
	return sc.appendWin(list, src, bi, b, s)
}

// inversion is the parity buffer b adds: 1 for an inverter.
func inversion(b *buffers.Buffer) uint8 {
	if b.Inverting {
		return 1
	}
	return 0
}

// insLib is what buffer insertion reads of a run's library, computed once
// per run (newInsLib) rather than at every buffer site.
type insLib struct {
	lib *buffers.Library
	// hb bounds the library for the filter, and filter says whether the
	// filter may run on it at all.
	hb     hullBounds
	filter bool
	// sameCost: every type costs the same, so the sorted emission applies
	// to count-indexed runs too.
	sameCost bool
	// byCin is the library's indices in ascending Cin, then index order:
	// the sorted emission's type order.
	byCin []int
}

// newInsLib returns lib's insLib. Library.Validate already makes every
// R > 0 and T ≥ 0 finite; the filter also needs them within hullMag.
func newInsLib(lib *buffers.Library) *insLib {
	in := &insLib{lib: lib, sameCost: true, hb: hullBounds{rmin: math.Inf(1)}}
	for bi := range lib.Buffers {
		b := &lib.Buffers[bi]
		in.hb.rmin, in.hb.rmax, in.hb.tmax = min(in.hb.rmin, b.R), max(in.hb.rmax, b.R), max(in.hb.tmax, b.T)
		in.sameCost = in.sameCost && b.Cost() == lib.Buffers[0].Cost()
		in.byCin = append(in.byCin, bi)
	}
	in.filter = in.hb.rmin > 0 && in.hb.rmax <= hullMag && in.hb.tmax <= hullMag
	slices.SortStableFunc(in.byCin, func(i, k int) int {
		return cmp.Compare(lib.Buffers[i].Cin, lib.Buffers[k].Cin)
	})
	return in
}

// hullMag bounds the magnitudes hullKeep certifies: with every |q|, |C|,
// R and T at most 2^500, no product or sum it forms can overflow, and a
// NaN fails the bound. A slot or library outside it is scanned whole.
const hullMag = 0x1p500

// signBit is a float64's sign bit.
const signBit = 1 << 63

// hullBounds is what the filter reads of the library: the smallest and
// largest output resistance and the largest intrinsic delay.
type hullBounds struct {
	rmin, rmax, tmax float64
}

// tau is the margin a certificate must clear in a slot whose sources all
// have |q| + R_max·|C| ≤ m. It bounds the rounding in computing
// q − (T + R·C) for the dropped source and for the source that beats it,
// plus the rounding in computing the certificate's gap itself: either is
// within a few units in the last place of |q| + T + R·|C| summed over the
// (at most three) sources involved, so of 3m + 2T. 2^-48 is 32 units,
// and the last term covers underflow.
func (h hullBounds) tau(m float64) float64 {
	return 0x1p-48*(3*m+2*h.tmax) + 0x1p-1070
}

// hullKeep narrows one slot's sources idx (in src order) to those it
// cannot certify as losers, returned in src order — idx itself, or
// appended to sc.keep, which insertHull sizes for every source;
// sorted says src is in candCmp order, so idx is already in the chain's
// (C ascending, q descending) order and is not checked again. With
// f_R(i) = q_i − (T + R·C_i), for each buffer type's R, a source j is
// dropped only on one of three certificates, each a gap δ > tau:
//
//   - below the chord: a and c with C_a < C_j < C_c and δ the height of
//     the segment a–c above j at C_j. As f_R is affine in (C, q), the
//     convex combination of f_R(a) and f_R(c) at C_j is f_R(j) + δ, so
//     max(f_R(a), f_R(c)) ≥ f_R(j) + δ for every R;
//   - at a load it shares with a: δ = q_a − q_j = f_R(a) − f_R(j);
//   - off an end: j is the chain's first (last) vertex and a its
//     neighbour, δ = (q_a − q_j) − R_max·(C_a − C_j) (respectively
//     (q_a − q_j) + R_min·(C_j − C_a)), at most f_R(a) − f_R(j) for every
//     R in [R_min, R_max], the library's range of output resistance.
//
// δ > tau makes the strict inequality survive rounding, so the winner
// rule sees j lose to a or c under every type; a dropped a or c loses to
// a third source in turn, and a chain of strict inequalities ends at a
// kept source. So no dropped source attains a type's maximum, and the
// maxima — hence the winners, on the same scan order — are unchanged.
// The certificates are found by one monotone-chain pass for the upper
// convex hull of (C, q) in (C ascending, q descending) order, which pops
// a vertex only when certified, and the two end trims.
func (sc *nodeScratch) hullKeep(src []vgCand, idx []int, h hullBounds, sorted bool) []int {
	if len(idx) < 2 {
		return idx
	}
	// The largest |q| and |C|, taken on the bits: with the sign cleared,
	// they order as the magnitudes do, and a NaN's above every number's,
	// so the bound check below fails on it.
	var bq, bc uint64
	for _, i := range idx {
		c := &src[i]
		bq = max(bq, math.Float64bits(c.q)&^signBit)
		bc = max(bc, math.Float64bits(c.load)&^signBit)
	}
	mq, mc := math.Float64frombits(bq), math.Float64frombits(bc)
	if !(mq <= hullMag && mc <= hullMag) {
		return idx
	}
	tau := h.tau(mq + h.rmax*mc)
	ord := idx
	if !sorted && !chainOrder(src, idx) {
		ord = append(sc.hullOrd[:0], idx...)
		slices.SortFunc(ord, func(i, k int) int {
			a, b := &src[i], &src[k]
			switch {
			case a.load != b.load:
				return firstIf(a.load < b.load)
			case a.q != b.q:
				return firstIf(a.q > b.q)
			}
			return cmp.Compare(i, k)
		})
		sc.hullOrd = ord
	}
	gone := sc.gone
	hull := sc.hull[:0]
	for _, p := range ord {
		c := &src[p]
		if len(hull) > 0 {
			if a := &src[hull[len(hull)-1]]; a.load == c.load {
				// The slot's highest slack at this load is on the chain.
				gone[p] = a.q-c.q > tau
				continue
			}
		}
		for len(hull) >= 2 {
			a, j := &src[hull[len(hull)-2]], &src[hull[len(hull)-1]]
			lambda := (j.load - a.load) / (c.load - a.load)
			if !(a.q+(c.q-a.q)*lambda-j.q > tau) {
				break
			}
			gone[hull[len(hull)-1]] = true
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	sc.hull = hull
	for len(hull) >= 2 {
		j, a := &src[hull[0]], &src[hull[1]]
		if !((a.q-j.q)-h.rmax*(a.load-j.load) > tau) {
			break
		}
		gone[hull[0]] = true
		hull = hull[1:]
	}
	for len(hull) >= 2 {
		a, j := &src[hull[len(hull)-2]], &src[hull[len(hull)-1]]
		if !((a.q-j.q)+h.rmin*(j.load-a.load) > tau) {
			break
		}
		gone[hull[len(hull)-1]] = true
		hull = hull[:len(hull)-1]
	}
	start := len(sc.keep)
	for _, i := range idx {
		if !gone[i] {
			sc.keep = append(sc.keep, i)
		}
	}
	return sc.keep[start:]
}

// chainOrder reports whether the sources idx are in the hull chain's
// order: load ascending, and slack descending at equal loads.
func chainOrder(src []vgCand, idx []int) bool {
	for k := 1; k < len(idx); k++ {
		if p, c := &src[idx[k-1]], &src[idx[k]]; !(p.load < c.load || p.load == c.load && p.q >= c.q) {
			return false
		}
	}
	return true
}

// pendJoin is a branch pair whose junction is not written yet: its left
// and right candidates' indices, and once resolved (done) the junction's
// ref.
type pendJoin struct {
	l, r int32
	ref  int32
	done bool
}

// pendSrc is a shared source: a candidate with a pending row that
// something at the node builds on — an insertion source, or a candidate
// sized to a wider wire. It holds the candidate's link fields and, once
// resolved (done), the ref of its row.
type pendSrc struct {
	node     rctree.NodeID
	kind     int16
	sol, via int32
	ref      int32
	done     bool
}

// join records the pair (left[l], right[r]) as a pending junction and
// returns the via that names it.
func (sc *nodeScratch) join(l, r int) int32 {
	sc.joins = append(sc.joins, pendJoin{l: int32(l), r: int32(r)})
	return int32(len(sc.joins))
}

// share turns c, if it has a pending row, into a shared source: its link
// fields move to a pendSrc entry and c names the entry (kind 0, via < 0),
// as a candidate whose solution is that row. Everything then built on c
// builds on the entry, and the link pass writes the row once, for all of
// them and for c.
func (sc *nodeScratch) share(c *vgCand) {
	if c.kind == 0 {
		return
	}
	sc.srcs = append(sc.srcs, pendSrc{node: c.node, kind: c.kind, sol: c.sol, via: c.via})
	c.kind, c.node, c.sol, c.via = 0, 0, 0, -int32(len(sc.srcs))
}

// link is the node step's last pass: it resolves every via of the
// finished list, writing to seg the rows the kept candidates build on —
// a junction once per pair, a shared source's row once, and a branch
// side's pending row once per side candidate — and empties the node's
// pending tables. left and right are a branch node's children's lists,
// nil elsewhere. Every row it writes is reached from the list, so a memo
// entry reaches all the rows its node made.
func (sc *nodeScratch) link(list, left, right []vgCand, seg *linkSeg) {
	if left != nil {
		sc.side[0] = zeroed(sc.side[0], len(left))
		sc.side[1] = zeroed(sc.side[1], len(right))
	}
	// Everything built on the tables first, then the shared sources
	// themselves: one whose row was written takes it as its solution,
	// and one nothing kept built on gets its pending row back.
	for i := range list {
		if c := &list[i]; c.via > 0 || c.via < 0 && c.kind != 0 {
			c.sol, c.via = sc.resolve(c.via, left, right, seg), 0
		}
	}
	for i := range list {
		c := &list[i]
		if c.via == 0 {
			continue
		}
		p := &sc.srcs[-c.via-1]
		if p.done {
			c.sol = p.ref
		} else {
			c.kind, c.node, c.sol = p.kind, p.node, p.sol
			if p.via != 0 {
				c.sol = sc.resolve(p.via, left, right, seg)
			}
		}
		c.via = 0
	}
	sc.joins, sc.srcs = sc.joins[:0], sc.srcs[:0]
}

// zeroed returns s resized to n zeros.
func zeroed(s []int32, n int) []int32 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// resolve returns the ref via names, writing the rows it needs.
func (sc *nodeScratch) resolve(via int32, left, right []vgCand, seg *linkSeg) int32 {
	if via > 0 {
		j := &sc.joins[via-1]
		if !j.done {
			a := sc.sideRef(0, left, j.l, seg)
			b := sc.sideRef(1, right, j.r, seg)
			switch {
			case a == 0:
				j.ref = b
			case b == 0:
				j.ref = a
			default:
				j.ref = seg.add(solRow{prev: [2]int32{a, b}})
			}
			j.done = true
		}
		return j.ref
	}
	p := &sc.srcs[-via-1]
	if !p.done {
		prev := p.sol
		if p.via != 0 {
			prev = sc.resolve(p.via, left, right, seg)
		}
		p.ref = seg.add(solRow{node: p.node, kind: p.kind, prev: [2]int32{prev, 0}})
		p.done = true
	}
	return p.ref
}

// sideRef returns the ref of candidate i of a branch node's side list k:
// its solution, or its pending row, written once.
func (sc *nodeScratch) sideRef(k int, list []vgCand, i int32, seg *linkSeg) int32 {
	c := &list[i]
	if c.kind == 0 {
		return c.sol
	}
	if sc.side[k][i] == 0 {
		sc.side[k][i] = seg.add(solRow{node: c.node, kind: c.kind, prev: [2]int32{c.sol, 0}})
	}
	return sc.side[k][i]
}

// nodeScratch is the reusable working memory of the node step: for
// buffer insertion the pair sums, slot table and the hull filter's index
// lists, for the link pass the node's pending junctions and sources, for
// sortCands the run boundaries and the merge buffer (mergePrune's too),
// for lishiMerge the two lists' groups and frontier indices. runVG gives
// the serial walk one
// and runVGParallel one per pool worker, next to its vgStats, both from
// scratchPool; it is never shared between goroutines.
type nodeScratch struct {
	// The pads keep each worker's scratch off the cache lines of whatever
	// the allocator puts beside it — another worker's scratch, for one:
	// the node step rewrites these slice headers at every node.
	_ [64]byte

	slotOf []int     // per source: its slot, 2·(cost rank) + parity
	costs  []int     // the distinct costs, when too spread for a dense rank
	slots  []insSlot // one per (cost rank, output parity)

	slotAt  []int   // insertHull: each slot's end in bySlot
	bySlot  []int   // insertHull: the source indices grouped by slot, groupBy or iota
	groupBy []int   // slotGroups: the counting sort's output
	iota    []int   // slotRanges: 0, 1, 2, …, never written but to grow
	keep    []int   // hullKeep: every slot's kept sources, slot after slot
	kept    [][]int // insertHull: per slot, the sources bestIn scans
	gone    []bool  // hullKeep: per source, certified a loser
	hullOrd []int   // hullKeep: a slot's sources in (load, −slack) order
	hull    []int   // hullKeep: the monotone chain

	pairs []vgCand // pairSources: the pair sums, each a pending junction

	at    rctree.NodeID // insertBuffers: the node the winners are inserted at
	joins []pendJoin    // the node's pending junctions, via > 0
	srcs  []pendSrc     // the node's shared sources, via < 0
	side  [2][]int32    // link: a branch side candidate's written row, or 0

	runs []int    // sortCands: the run boundaries
	buf  []vgCand // sortCands, mergePrune: the merge buffer

	groups [2][]candGroup // the left and right lists' groups
	idx    []int          // backing for both lists' frontiers

	_ [64]byte
}

// scratchPool carries node-step scratch from run to run, so a run starts
// with the buffers earlier runs grew instead of growing its own. Only
// successful runs return theirs.
var scratchPool = sync.Pool{New: func() any { return new(nodeScratch) }}

func getScratch() *nodeScratch   { return scratchPool.Get().(*nodeScratch) }
func putScratch(sc *nodeScratch) { scratchPool.Put(sc) }

// insSlot is one slot of the table: the index of the winning source (-1
// while empty) and its post-buffer slack.
type insSlot struct {
	src int
	q   float64
}

// denseCostSpan bounds the slot table for n sources: costs spread wider
// than this (large Problem 3 weights) are ranked through the sorted
// distinct costs instead of by cost − minCost, so the table stays O(n)
// for any weights.
func denseCostSpan(n int) int { return 4*n + 64 }

// index assigns every source its slot — the cost rank is 0 when the run
// is not count-indexed — and returns the table, sized for the sources and
// ready to be reset per buffer type.
func (sc *nodeScratch) index(src []vgCand, countIndexed bool) []insSlot {
	sc.slotOf = slices.Grow(sc.slotOf[:0], len(src))[:len(src)]
	ranks := 1
	switch {
	case !countIndexed || len(src) == 0:
		for i := range src {
			sc.slotOf[i] = int(src[i].pol)
		}
	default:
		lo, hi := src[0].cost, src[0].cost
		for i := range src {
			lo, hi = min(lo, src[i].cost), max(hi, src[i].cost)
		}
		if span := hi - lo; span >= 0 && span < denseCostSpan(len(src)) {
			ranks = span + 1
			for i := range src {
				sc.slotOf[i] = 2*(src[i].cost-lo) + int(src[i].pol)
			}
			break
		}
		sc.costs = sc.costs[:0]
		for i := range src {
			sc.costs = append(sc.costs, src[i].cost)
		}
		slices.Sort(sc.costs)
		sc.costs = slices.Compact(sc.costs)
		ranks = len(sc.costs)
		for i := range src {
			r, _ := slices.BinarySearch(sc.costs, src[i].cost)
			sc.slotOf[i] = 2*r + int(src[i].pol)
		}
	}
	sc.slots = slices.Grow(sc.slots[:0], 2*ranks)[:2*ranks]
	return sc.slots
}

// candCmp is the DP's one candidate order, shared by every prune and by
// insertBuffers' emission: (cost, when count-indexed,) parity, load
// ascending, slack descending — which groups a list for pruneVG and puts
// each group's dominators first — then the remaining fields as
// tiebreakers, dominance-relevant ones first.
func candCmp(a, b *vgCand, countIndexed bool) int {
	if countIndexed && a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	if a.pol != b.pol {
		return cmp.Compare(a.pol, b.pol)
	}
	if a.load != b.load {
		return firstIf(a.load < b.load)
	}
	if a.q != b.q {
		return firstIf(a.q > b.q)
	}
	if a.down != b.down {
		return firstIf(a.down < b.down)
	}
	if a.ns != b.ns {
		return firstIf(a.ns > b.ns)
	}
	if a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	return cmp.Compare(a.nbuf, b.nbuf)
}

// sortCands sorts list by candCmp, stably, by merging its ascending runs:
// one scan finds the run boundaries, then adjacent runs are merged
// pairwise, pass after pass, until one is left. A sorted list costs the
// scan and nothing else; k runs cost O(n log k). Each merge first trims
// the left run's prefix and the right run's suffix that are already in
// place, then moves the shorter remainder into sc.buf and merges it back
// — forward when that is the left run, backward when the right.
func (sc *nodeScratch) sortCands(list []vgCand, countIndexed bool) {
	runs := append(sc.runs[:0], 0)
	for i := 1; i < len(list); i++ {
		if candCmp(&list[i], &list[i-1], countIndexed) < 0 {
			runs = append(runs, i)
		}
	}
	for len(runs) > 1 {
		// runs holds the start of every run; the pass merges runs
		// 2k and 2k+1 and keeps the start of each merged pair.
		k := 0
		for i := 0; i < len(runs); i += 2 {
			if i+1 < len(runs) {
				hi := len(list)
				if i+2 < len(runs) {
					hi = runs[i+2]
				}
				sc.mergeRuns(list, runs[i], runs[i+1], hi, countIndexed)
			}
			runs[k] = runs[i]
			k++
		}
		runs = runs[:k]
	}
	sc.runs = runs
}

// mergeRuns merges the sorted runs list[lo:mid] and list[mid:hi] in
// place, stably — on a candCmp tie the left run's candidate goes first.
func (sc *nodeScratch) mergeRuns(list []vgCand, lo, mid, hi int, countIndexed bool) {
	// The left run's candidates not after list[mid] stay where they are,
	// and so do the right run's not before list[mid-1]; both cuts are
	// binary searches, since each run is sorted.
	first := &list[mid]
	l, h := lo, mid
	for l < h {
		if m := int(uint(l+h) >> 1); candCmp(first, &list[m], countIndexed) < 0 {
			h = m
		} else {
			l = m + 1
		}
	}
	if lo = l; lo == mid {
		return // already in order
	}
	last := &list[mid-1]
	l, h = mid, hi
	for l < h {
		if m := int(uint(l+h) >> 1); candCmp(&list[m], last, countIndexed) >= 0 {
			h = m
		} else {
			l = m + 1
		}
	}
	end := l
	if mid-lo <= end-mid {
		// Forward: the left remainder goes to the buffer.
		buf := sc.grow(mid - lo)
		copy(buf, list[lo:mid])
		i, j, d := 0, mid, lo
		for i < len(buf) && j < end {
			if candCmp(&list[j], &buf[i], countIndexed) < 0 {
				list[d] = list[j]
				j++
			} else {
				list[d] = buf[i]
				i++
			}
			d++
		}
		copy(list[d:], buf[i:])
		return
	}
	// Backward: the right remainder goes to the buffer.
	buf := sc.grow(end - mid)
	copy(buf, list[mid:end])
	i, j, d := mid-1, len(buf)-1, end-1
	for i >= lo && j >= 0 {
		if candCmp(&buf[j], &list[i], countIndexed) < 0 {
			list[d] = list[i]
			i--
		} else {
			list[d] = buf[j]
			j--
		}
		d--
	}
	copy(list[lo:], buf[:j+1])
}

// grow returns sc.buf resized to n entries.
func (sc *nodeScratch) grow(n int) []vgCand {
	if cap(sc.buf) < n {
		sc.buf = make([]vgCand, n, max(n, 2*cap(sc.buf)))
	}
	return sc.buf[:n]
}

// firstIf turns a strict "a before b" test into a comparison result for
// fields already known to differ, so the float comparators keep the exact
// < and > tests (NaN behaviour included) of the orders they define.
func firstIf(aFirst bool) int {
	if aFirst {
		return -1
	}
	return 1
}

// mergeVG combines the candidate lists of two sibling branches by the
// full cross product: every parity-compatible pair within the count
// bound, as pairSum builds it, each a pending junction (Steps 3–4 of
// Fig. 11); pruning
// immediately follows in the caller. It is the branch merge under 4-D
// safe pruning, whose frontier the 2-D walk would cut (lishi.go), and the
// reference the walk is differenced against (dpOverride.classicMerge).
// The cross product is where multi-buffer candidate growth compounds, so
// the budget is consulted as the output grows. The output list comes from
// the arena; on error the caller releases it.
func mergeVG(left, right []vgCand, opts vgOptions) ([]vgCand, error) {
	out := opts.arena.get(len(left) + len(right))
	tick := 0
	for i := range left {
		a := &left[i]
		for j := range right {
			b := &right[j]
			// Budget gate at stride boundaries: candidate cap and context
			// together, so the common case costs two integer ops.
			if tick++; tick >= 4096 {
				tick = 0
				if err := opts.budget.CheckCandidates(len(out)); err != nil {
					return out, err
				}
			}
			if !opts.mergeable(a.pol, b.pol, a.cost, b.cost) {
				continue
			}
			c := pairSum(a, b)
			c.via = opts.scratch.join(i, j)
			out = append(out, c)
		}
	}
	if err := opts.budget.CheckCandidates(len(out)); err != nil {
		return out, err
	}
	if opts.stats != nil {
		opts.stats.merged += int64(len(out))
		opts.stats.generated += int64(len(out))
	}
	return out, nil
}

// pairSum is the values of the pair (a, b) — a from the left child, b
// from the right: loads and currents add, slacks take the minimum
// (Steps 3–4 of Fig. 11). It is the single shared construction for every
// merge (classic cross product and Li–Shi frontier walk) and for buffer
// insertion's pair sums (pairSources), so none can drift from another in
// arithmetic; each caller records the pair as a pending junction
// (nodeScratch.join), which the link pass writes as one row joining the
// two sides' solutions.
func pairSum(a, b *vgCand) vgCand {
	return vgCand{
		load: a.load + b.load,
		q:    math.Min(a.q, b.q),
		down: a.down + b.down,
		ns:   math.Min(a.ns, b.ns),
		nbuf: a.nbuf + b.nbuf,
		cost: a.cost + b.cost,
		pol:  a.pol,
	}
}

// pruneVG removes inferior candidates (Step 7 of Fig. 11): within each
// (parity[, buffer count]) group, candidate α1 is inferior to α2 iff
// C1 ≥ C2 and q1 ≤ q2 — the paper's rule — and additionally, in safe
// pruning mode, I1 ≥ I2 and NS1 ≤ NS2, which restores exactness for
// multi-buffer libraries at the cost of longer lists (see the discussion
// in Section IV-C). Safe pruning is quadratic in the group size, so the
// dominance scan honors the budget's context.
//
// The prune orders the list by candCmp — (buffer count,) parity, load
// ascending, slack descending, then the remaining fields as tiebreakers —
// which groups it and puts each group's dominators first; survivors are
// compacted into the front of the same backing array. The lists reaching
// a prune are mostly sorted already: a pruned list stays sorted through
// the parent-wire charge (one run per width when sizing, see
// chargeWidths), insertBuffers appends its winners as one sorted run, and
// the merges emit one run per left candidate or group pair. So a list of
// at most two runs, under the 2-D rule, is pruned by mergePrune in the
// same pass that merges it; any other list — more runs, a NaN, safe
// pruning or the reference override — is sorted by sortCands, a stable
// merge of its runs, and then scanned: by mergePrune's staircase as one
// run, or under safe pruning by the 4-D scan. Either way, of candidates
// equal in every compared field the one earlier in the input survives.
// No maps, no per-group slices, no allocation with warm scratch; the
// returned slice aliases the input.
func pruneVG(list []vgCand, opts vgOptions) ([]vgCand, error) {
	if len(list) <= 1 {
		return list, nil
	}
	sc := opts.scratch
	if sc == nil {
		sc = &nodeScratch{}
	}
	if opts.walkOK() {
		if mid, ok := twoRuns(list, opts.countIndexed); ok {
			return sc.mergePrune(list, mid, opts), nil
		}
	}
	sc.sortCands(list, opts.countIndexed)
	if !opts.safePruning {
		return sc.mergePrune(list, len(list), opts), nil // one run now
	}

	// Safe pruning: each candidate against its group's survivors so far,
	// in all four dimensions.
	sameGroup := func(a, b *vgCand) bool {
		if a.pol != b.pol {
			return false
		}
		return !opts.countIndexed || a.cost == b.cost
	}
	origLen := len(list)
	out := list[:0]
	pacer := opts.budget.Pacer(1024)
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && sameGroup(&list[i], &list[j]) {
			j++
		}
		groupStart := len(out)
		for k := i; k < j; k++ {
			if err := pacer.Tick(); err != nil {
				return list[:origLen], err
			}
			c := list[k]
			dominated := false
			for gi := groupStart; gi < len(out); gi++ {
				g := &out[gi]
				if g.load <= c.load && g.q >= c.q && g.down <= c.down && g.ns >= c.ns {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, c)
			}
		}
		i = j
	}
	if opts.stats != nil {
		opts.stats.pruned += int64(origLen - len(out))
	}
	return out, nil
}

// twoRuns reports whether list is at most two candCmp runs with no NaN
// among the fields candCmp compares as floats, and where the second run
// starts (len(list) when there is one run). Without a NaN, candCmp is a
// total preorder, so a stable merge of the two runs is the one stable sort
// of the list — what sortCands makes of it, and what mergePrune relies on.
func twoRuns(list []vgCand, countIndexed bool) (mid int, ok bool) {
	mid = len(list)
	for i := range list {
		c := &list[i]
		// A NaN in any of the four makes the sum NaN; so do infinities of
		// both signs, which only send the list down the general path.
		if s := c.load + c.q + c.down + c.ns; s != s {
			return 0, false
		}
		if i == 0 {
			continue
		}
		// c descends iff candCmp(c, p) < 0: in the common case, one group
		// and distinct loads, iff its load is smaller.
		p := &list[i-1]
		if c.load != p.load && c.pol == p.pol && (!countIndexed || c.cost == p.cost) {
			if c.load > p.load {
				continue
			}
		} else if candCmp(c, p, countIndexed) >= 0 {
			continue
		}
		if mid < len(list) {
			return 0, false
		}
		mid = i
	}
	return mid, true
}

// mergePrune is pruneVG's 2-D prune of a list made of two candCmp runs,
// list[:mid] and list[mid:], with no NaN among the fields candCmp compares
// (twoRuns): it merges the runs stably and applies the staircase rule to
// the merged order as it goes, writing each survivor once. The first run
// moves to sc.buf, and the merge writes the survivors from the front of
// list, never past the second run's next unread candidate. One run
// (mid == len(list)) is pruned in place, and needs no NaN check: the
// staircase compares only groups and slacks, and a NaN slack never
// survives. The result is the sort-then-scan prune's, candidate for
// candidate; the returned slice aliases list.
func (sc *nodeScratch) mergePrune(list []vgCand, mid int, opts vgOptions) []vgCand {
	ci := opts.countIndexed
	n := len(list)
	if n <= 1 {
		return list // as pruneVG leaves it, even with a slack of −∞
	}
	st := stair{ci: ci, best: math.Inf(-1)}
	d, i := 0, 0 // the next survivor's place, the next unread candidate
	if mid < n {
		a := sc.grow(mid)
		copy(a, list[:mid])
		k := 0
		for i = mid; k < len(a) && i < n; {
			// The second run's w goes first iff candCmp(w, c) < 0 — in the
			// common case, one group and distinct loads, iff its load is
			// smaller — so on a tie the first run's c does.
			c, w := &a[k], &list[i]
			var wFirst bool
			if w.load != c.load && w.pol == c.pol && (!ci || w.cost == c.cost) {
				wFirst = w.load < c.load
			} else {
				wFirst = candCmp(w, c, ci) < 0
			}
			if wFirst {
				c = w
				i++
			} else {
				k++
			}
			if st.keeps(c) {
				list[d] = *c
				d++
			}
		}
		for ; k < len(a); k++ {
			if st.keeps(&a[k]) {
				list[d] = a[k]
				d++
			}
		}
	}
	for ; i < n; i++ {
		if st.keeps(&list[i]) {
			list[d] = list[i]
			d++
		}
	}
	if opts.stats != nil {
		opts.stats.pruned += int64(n - d)
	}
	return list[:d]
}

// stair is the 2-D prune's state as a list passes it in candCmp order:
// the current (parity[, cost]) group and the best slack seen in it. A
// candidate survives iff its slack beats every earlier one in its group.
type stair struct {
	ci   bool
	pol  uint8
	cost int
	best float64
}

// keeps reports whether c, the next candidate in candCmp order, survives.
func (s *stair) keeps(c *vgCand) bool {
	if c.pol != s.pol || s.ci && c.cost != s.cost {
		s.pol, s.cost, s.best = c.pol, c.cost, math.Inf(-1)
	}
	if c.q > s.best {
		s.best = c.q
		return true
	}
	return false
}
