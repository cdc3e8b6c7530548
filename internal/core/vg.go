package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// vgStats accumulates one runVG invocation's telemetry locally — plain
// int64 fields bumped inside the hot loops — and flushes to the obs
// registry once at the end, so instrumentation costs the DP a handful of
// atomic adds per run rather than per candidate. The Shi/Li O(bn²)
// candidate-growth claim (PAPERS.md) is checked against exactly these
// numbers: generated vs. pruned is the prune ratio, highwater is the
// per-node list-length bound. In parallel runs each worker owns a private
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
// inversion parity for libraries containing inverters.
type vgCand struct {
	load float64 // C: downstream capacitance seen at the node
	q    float64 // slack at the node
	down float64 // I: downstream coupling current
	ns   float64 // NS: noise slack
	nbuf int     // buffers used in the subtree solution
	cost int     // Problem 3 weight of those buffers (Lillis power function)
	pol  uint8   // parity of inverting stages to every sink (0 = in phase)
	// ins marks a candidate insertBuffers emitted whose link is not made
	// yet: ins−1 is the inserted type's library index, and sol is still
	// the buffered candidate's link. linkInserted makes it once the node's
	// prune has kept the candidate.
	ins int32
	sol *solLink
}

// solLink is one decision in a persistent solution list shared between
// candidates: either a buffer assignment at a node, or (isWidth) a width
// multiplier chosen for the node's parent wire.
type solLink struct {
	node    rctree.NodeID
	isWidth bool
	// buf is the inserted type: an entry of the run's library, shared
	// rather than copied, so a link stays 40 bytes.
	buf   *buffers.Buffer
	width float64
	prev  [2]*solLink
}

// collectSol flattens a solution DAG into a buffer assignment and a wire
// width map.
func collectSol(s *solLink) (map[rctree.NodeID]buffers.Buffer, map[rctree.NodeID]float64) {
	assign := make(map[rctree.NodeID]buffers.Buffer)
	widths := make(map[rctree.NodeID]float64)
	seen := map[*solLink]bool{}
	stack := []*solLink{s}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l == nil || seen[l] {
			continue
		}
		seen[l] = true
		if l.isWidth {
			widths[l.node] = l.width
		} else {
			assign[l.node] = *l.buf
		}
		stack = append(stack, l.prev[0], l.prev[1])
	}
	return assign, widths
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
	// per serial run, one per pool worker in parallel runs.
	scratch *nodeScratch
	// memo, when non-nil, turns the run into a memoized (ECO) re-solve:
	// the top-down gate (memoGate) loads finished candidate lists for
	// every subtree whose entry is current, and only the remaining
	// compute set runs the DP — with every computed list stored back.
	// Results are bit-identical to a memo-free run; the delta
	// differential suite is the gate.
	memo *memoRun
}

// fastMergeOK reports whether computeNode may use the Li–Shi sorted
// frontier merge at a branch node. The Li–Shi argument is about the
// 2-D (C, q) dominance of the delay DP: with noise constraints the
// node's buffer-insertion step must see merge candidates the 2-D
// frontier discards (a dominated candidate can be the only
// noise-feasible driver for some buffer type), and with safe pruning the
// frontier itself is 4-D — in both configurations the fast merge would
// change results, so those runs use the classic cross product and stay
// bit-identical that way. Everywhere else the walk is exact and runs.
func (o vgOptions) fastMergeOK() bool {
	return !o.noise && !o.safePruning && !o.dp.classicMerge
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
func runVG(t *rctree.Tree, lib *buffers.Library, opts vgOptions) ([]vgCand, error) {
	if err := t.Validate(); err != nil {
		return nil, invalid(err)
	}
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
	if err := opts.budget.CheckTreeNodes(t.Len()); err != nil {
		return nil, err
	}

	// The run's merge path in telemetry: "lishi" for the frontier walk,
	// "vg" for the classic cross product.
	merge := "vg"
	if opts.fastMergeOK() {
		merge = "lishi"
	}
	obs.Inc("vg.run.engine." + merge)

	var st vgStats
	opts.stats = &st
	opts.scratch = &nodeScratch{}
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
			err = runVGSerial(t, lib, opts, lists, order)
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
// (Steps 1–5 of Fig. 11), prune, and charge the parent wire. It is the
// single code path shared by the serial walk and the parallel scheduler —
// the computation depends only on the children's lists, never on
// evaluation order, which is what makes parallel results bit-identical to
// serial ones.
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
	var list []vgCand
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
	case len(node.Children) == 1:
		// Adopt the child's list wholesale: it is dead once the parent
		// runs, so the chain node extends it in place (no copy).
		c := node.Children[0]
		list, lists[c] = lists[c], nil
	case len(node.Children) == 2:
		l, r := node.Children[0], node.Children[1]
		var merged []vgCand
		var err error
		if opts.fastMergeOK() {
			merged, err = lishiMerge(lists[l], lists[r], opts)
		} else {
			merged, err = mergeVG(lists[l], lists[r], opts)
		}
		ar.put(lists[l])
		ar.put(lists[r])
		lists[l], lists[r] = nil, nil
		if err != nil {
			ar.put(merged)
			return err
		}
		list = merged
	default:
		return fmt.Errorf("core: internal node %d has no children", v)
	}

	// Step 5: consider inserting each buffer type at v.
	inserting := node.BufferOK && v != t.Root()
	if inserting {
		list = insertBuffers(v, list, lib, opts)
	}

	list, err := pruneVG(list, opts)
	if err != nil {
		ar.put(list)
		return err
	}
	if inserting {
		linkInserted(v, list, lib)
	}
	if err := opts.budget.CheckCandidates(len(list)); err != nil {
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
	st.list(len(list))
	if opts.memo != nil {
		opts.memo.store(t, v, list)
	}
	lists[v] = list
	return nil
}

// oneWidth is the default (no sizing) width set.
var oneWidth = []float64{1}

// chargeWidths appends to dst every candidate of the pruned list charged
// with the parent wire w of node v at each width, width by width. The
// charge adds the same capacitance to every load of a width, so each
// width's block keeps list's candCmp order and the result reaches
// pruneVG as at most len(widths) runs.
func chargeWidths(dst, list []vgCand, v rctree.NodeID, w rctree.Wire, iw float64, widths []float64, opts vgOptions) []vgCand {
	for _, wd := range widths {
		r, cw := opts.wireVariant(w, wd)
		for _, c := range list {
			nc := c
			nc.q -= r * (cw/2 + c.load)
			nc.load += cw
			nc.ns -= r * (c.down + iw/2)
			nc.down += iw
			if wd != 1 {
				nc.sol = &solLink{node: v, width: wd, isWidth: true, prev: [2]*solLink{c.sol, nil}}
			}
			dst = append(dst, nc)
		}
	}
	return dst
}

// insertBuffers appends buffered candidates at node v to list: for each
// buffer type (and, in count-indexed mode, each resulting buffer count and
// each parity) the candidate producing the largest post-buffer slack,
// subject to the noise constraint R_b·I(v) ≤ NS(v) when noise is enforced
// — the boldface modification of Fig. 11, Step 5.
//
// The bests live in a dense slot table, one slot per (cost rank, output
// parity), reset for each buffer type; a slot holds the winning
// candidate's index and its post-buffer slack, so the scan touches no
// map and allocates nothing. Acceptance is value-canonical: strictly
// greater slack wins, and on an exact tie the cheaper, then smaller,
// solution — never the one scanned first, since the classic and Li–Shi
// merges emit candidates in different orders and a first-wins rule would
// make the selected cost/nbuf depend on the merge. The winners are
// appended in scan order (buffer index, then slot) and the appended tail
// is then sorted by candCmp, stably — the prune's own order and run
// merge — so the list reaches pruneVG as the input's runs plus one more,
// and a chain node's prune is a single linear merge. (buffer, parity,
// cost) makes the winners unique, so repeated runs and parallel
// schedules see byte-identical lists. They leave without their solLinks
// — each is marked with its type (vgCand.ins) — and linkInserted makes
// the links of the ones the prune keeps: most winners are dominated at
// once, and a link made for them would only be garbage.
func insertBuffers(v rctree.NodeID, list []vgCand, lib *buffers.Library, opts vgOptions) []vgCand {
	sc := opts.scratch
	n := len(list)
	slots := sc.index(list, opts.countIndexed)
	for bi, b := range lib.Buffers {
		bc := b.Cost()
		var inv uint8
		if b.Inverting {
			inv = 1
		}
		for i := range slots {
			slots[i].src = -1
		}
		for i := range list[:n] {
			c := &list[i]
			if opts.noise && b.R*c.down > c.ns {
				continue // inserting here would violate downstream noise
			}
			if opts.countIndexed && opts.maxBuffers > 0 && c.cost+bc > opts.maxBuffers {
				continue
			}
			q := c.q - b.Delay(c.load)
			s := &slots[sc.slotOf[i]^int(inv)]
			better := s.src < 0 || q > s.q
			if !better && q == s.q {
				w := &list[s.src]
				nc, wc := c.cost+bc, w.cost+bc
				better = nc < wc || (nc == wc && c.nbuf+1 < w.nbuf+1)
			}
			if better {
				s.src, s.q = i, q
			}
		}
		for _, s := range slots {
			if s.src >= 0 {
				c := list[s.src]
				list = append(list, vgCand{
					load: b.Cin,
					q:    s.q,
					down: 0,
					ns:   b.NoiseMargin,
					nbuf: c.nbuf + 1,
					cost: c.cost + bc,
					pol:  c.pol ^ inv,
					ins:  int32(bi) + 1,
					sol:  c.sol,
				})
			}
		}
	}
	sc.sortCands(list[n:], opts.countIndexed)
	if opts.stats != nil {
		opts.stats.generated += int64(len(list) - n)
	}
	return list
}

// linkInserted makes the solLink of every candidate insertBuffers emitted
// at v that is still in list — the inserted type at v on top of the
// buffered candidate's link — and clears its mark. computeNode calls it
// after the prune, before the list leaves the node.
func linkInserted(v rctree.NodeID, list []vgCand, lib *buffers.Library) {
	for i := range list {
		if c := &list[i]; c.ins != 0 {
			c.sol = &solLink{node: v, buf: &lib.Buffers[c.ins-1], prev: [2]*solLink{c.sol, nil}}
			c.ins = 0
		}
	}
}

// nodeScratch is the reusable working memory of the node step: for
// insertBuffers the slot table, for sortCands the run boundaries and the
// merge buffer, for lishiMerge the two lists' groups and frontier
// indices. runVG gives the serial walk one and runVGParallel one per pool
// worker, next to its vgStats; it is never shared between goroutines.
type nodeScratch struct {
	slotOf []int     // per list candidate: its slot, 2·(cost rank) + parity
	costs  []int     // the distinct costs, when too spread for a dense rank
	slots  []insSlot // one per (cost rank, output parity)

	runs []int    // sortCands: the run boundaries
	buf  []vgCand // sortCands: the merge buffer, cleared after every sort

	groups [2][]candGroup // the left and right lists' groups
	idx    []int          // backing for both lists' frontiers
}

// insSlot is one slot of the table: the index of the winning candidate
// in the list (-1 while empty) and its post-buffer slack.
type insSlot struct {
	src int
	q   float64
}

// denseCostSpan bounds the slot table for a list of n candidates: costs
// spread wider than this (large Problem 3 weights) are ranked through the
// sorted distinct costs instead of by cost − minCost, so the table stays
// O(n) for any weights.
func denseCostSpan(n int) int { return 4*n + 64 }

// index assigns every candidate of list its slot — the cost rank is 0
// when the run is not count-indexed — and returns the table, sized for
// the list and ready to be reset per buffer type.
func (sc *nodeScratch) index(list []vgCand, countIndexed bool) []insSlot {
	sc.slotOf = slices.Grow(sc.slotOf[:0], len(list))[:len(list)]
	ranks := 1
	switch {
	case !countIndexed || len(list) == 0:
		for i := range list {
			sc.slotOf[i] = int(list[i].pol)
		}
	default:
		lo, hi := list[0].cost, list[0].cost
		for i := range list {
			lo, hi = min(lo, list[i].cost), max(hi, list[i].cost)
		}
		if span := hi - lo; span >= 0 && span < denseCostSpan(len(list)) {
			ranks = span + 1
			for i := range list {
				sc.slotOf[i] = 2*(list[i].cost-lo) + int(list[i].pol)
			}
			break
		}
		sc.costs = sc.costs[:0]
		for i := range list {
			sc.costs = append(sc.costs, list[i].cost)
		}
		slices.Sort(sc.costs)
		sc.costs = slices.Compact(sc.costs)
		ranks = len(sc.costs)
		for i := range list {
			r, _ := slices.BinarySearch(sc.costs, list[i].cost)
			sc.slotOf[i] = 2*r + int(list[i].pol)
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
// — forward when that is the left run, backward when the right. The
// buffer is cleared before returning, so it holds no solLink between
// sorts.
func (sc *nodeScratch) sortCands(list []vgCand, countIndexed bool) {
	runs := append(sc.runs[:0], 0)
	for i := 1; i < len(list); i++ {
		if candCmp(&list[i], &list[i-1], countIndexed) < 0 {
			runs = append(runs, i)
		}
	}
	used := 0
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
				used = max(used, sc.mergeRuns(list, runs[i], runs[i+1], hi, countIndexed))
			}
			runs[k] = runs[i]
			k++
		}
		runs = runs[:k]
	}
	sc.runs = runs
	clear(sc.buf[:used])
}

// mergeRuns merges the sorted runs list[lo:mid] and list[mid:hi] in
// place, stably — on a candCmp tie the left run's candidate goes first —
// and returns how many entries of sc.buf it used.
func (sc *nodeScratch) mergeRuns(list []vgCand, lo, mid, hi int, countIndexed bool) int {
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
		return 0 // already in order
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
		return len(buf)
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
	return len(buf)
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

// mergeVG combines the candidate lists of two sibling branches: loads and
// currents add, slacks take the minimum (Steps 3–4 of Fig. 11). Only
// parity-compatible pairs merge. The pruned per-branch frontiers are small,
// so the full cross product is used; pruning immediately follows in the
// caller. The cross product is where multi-buffer candidate growth
// compounds, so the budget is consulted as the output grows. The output
// list comes from the arena; on error the caller releases it.
func mergeVG(left, right []vgCand, opts vgOptions) ([]vgCand, error) {
	out := opts.arena.get(len(left) + len(right))
	tick := 0
	for _, a := range left {
		for _, b := range right {
			// Budget gate at stride boundaries: candidate cap and context
			// together, so the common case costs two integer ops.
			if tick++; tick >= 4096 {
				tick = 0
				if err := opts.budget.CheckCandidates(len(out)); err != nil {
					return out, err
				}
			}
			if a.pol != b.pol {
				continue
			}
			if opts.countIndexed && opts.maxBuffers > 0 && a.cost+b.cost > opts.maxBuffers {
				continue
			}
			out = append(out, mergedCand(a, b))
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

// mergedCand combines one candidate from each sibling branch — a from
// the left child, b from the right: loads and currents add, slacks take
// the minimum (Steps 3–4 of Fig. 11). The single shared construction for
// every merge implementation (classic cross product and the Li–Shi
// frontier walk), so engines cannot drift in arithmetic or in solution
// linking.
func mergedCand(a, b vgCand) vgCand {
	var sol *solLink
	switch {
	case a.sol == nil:
		sol = b.sol
	case b.sol == nil:
		sol = a.sol
	default:
		// Junction link: reuse a's head with both prevs via a
		// synthetic link carrying a's head assignment would double
		// count; instead create a link that repeats a's head
		// assignment — maps deduplicate identical (node, buf)
		// pairs, so repeating is safe and keeps links binary.
		sol = &solLink{
			node: a.sol.node, buf: a.sol.buf,
			width: a.sol.width, isWidth: a.sol.isWidth,
			prev: [2]*solLink{a.sol, b.sol},
		}
	}
	return vgCand{
		load: a.load + b.load,
		q:    math.Min(a.q, b.q),
		down: a.down + b.down,
		ns:   math.Min(a.ns, b.ns),
		nbuf: a.nbuf + b.nbuf,
		cost: a.cost + b.cost,
		pol:  a.pol,
		sol:  sol,
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
// The scan works entirely in place: sortCands orders the list by candCmp
// — (buffer count,) parity, load ascending, slack descending, then the
// remaining fields as tiebreakers — which groups it, and survivors are
// compacted into the front of the same backing array. The sort merges
// the list's ascending runs, and the lists reaching a prune are mostly
// sorted already: a pruned list stays sorted through the parent-wire
// charge (one run per width when sizing, see chargeWidths),
// insertBuffers appends its winners as one sorted run, and the
// merges emit one run per left candidate or group pair. The sort is
// stable, so of candidates equal in every compared field the one earlier
// in the input survives. No maps, no per-group slices, no allocation
// with warm scratch; the returned slice aliases the input.
func pruneVG(list []vgCand, opts vgOptions) ([]vgCand, error) {
	if len(list) <= 1 {
		return list, nil
	}
	sc := opts.scratch
	if sc == nil {
		sc = &nodeScratch{}
	}
	sc.sortCands(list, opts.countIndexed)

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
		if !opts.safePruning {
			bestQ := math.Inf(-1)
			for k := i; k < j; k++ {
				if c := list[k]; c.q > bestQ {
					out = append(out, c)
					bestQ = c.q
				}
			}
		} else {
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
		}
		i = j
	}
	if opts.stats != nil {
		opts.stats.pruned += int64(origLen - len(out))
	}
	return out, nil
}
