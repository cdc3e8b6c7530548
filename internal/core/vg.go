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
	// yet: ins−1 is its entry in the node's winner table (inserted type and
	// source), and sol is still the source's link (nil for a pair sum).
	// linkInserted makes the link once the node's prune has kept the
	// candidate.
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
	// per serial run, one per pool worker in parallel runs, each drawn
	// from scratchPool.
	scratch *nodeScratch
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
// the whole pair space from flat pair sums instead (mergeBranch).
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
	// leave it mid-sort, with links in its merge buffer.
	opts.scratch = getScratch()
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
	// Step 5 considers inserting each buffer type at v.
	inserting := node.BufferOK && v != t.Root()
	var list []vgCand
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
		list, err = insertAndPrune(v, list, inserting, lib, opts)
	case len(node.Children) == 1:
		// Adopt the child's list wholesale: it is dead once the parent
		// runs, so the chain node extends it in place (no copy).
		c := node.Children[0]
		list, lists[c] = lists[c], nil
		list, err = insertAndPrune(v, list, inserting, lib, opts)
	case len(node.Children) == 2:
		l, r := node.Children[0], node.Children[1]
		list, err = mergeBranch(v, lists[l], lists[r], inserting, lib, opts)
		ar.put(lists[l])
		ar.put(lists[r])
		lists[l], lists[r] = nil, nil
	default:
		return fmt.Errorf("core: internal node %d has no children", v)
	}
	if err != nil {
		ar.put(list)
		return err
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
		opts.memo.store(v, list)
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

// insertAndPrune finishes a sink's or a chain node's list at v (Steps 5
// and 7 of Fig. 11): buffer insertion on the list's own candidates when
// inserting, the prune, and the links of the winners the prune keeps.
func insertAndPrune(v rctree.NodeID, list []vgCand, inserting bool, lib *buffers.Library, opts vgOptions) ([]vgCand, error) {
	if inserting {
		list = insertBuffers(list, list, lib, opts)
	}
	list, err := pruneVG(list, opts)
	if err == nil && inserting {
		opts.scratch.linkInserted(v, list, lib, nil, nil)
	}
	return list, err
}

// mergeBranch builds branch node v's pruned list from its children's
// finished lists left and right (Steps 3–5 and 7 of Fig. 11); it reads
// them and leaves their release to the caller. The returned list comes
// from the arena, and on error the caller releases it too.
//
// Under safe pruning and the reference override the node prunes the
// cross product (mergeVG) and inserts buffers on it. Everywhere else it
// prunes the Li–Shi walk's pairs, which loses nothing (lishi.go). A
// delay-only run inserts buffers on the walk's pairs as well. Under
// noise constraints it cannot: a pair the walk skips can be the only one
// whose merged noise slack admits some buffer type. There insertion
// reads the whole pair space instead — flat pair sums in the scratch
// (pairSources), scanned in mergeVG's order under insertBuffers' rule, so
// the winners are the cross product's — and the node makes the junction
// link of a pair only for a winner its prune keeps.
func mergeBranch(v rctree.NodeID, left, right []vgCand, inserting bool, lib *buffers.Library, opts vgOptions) ([]vgCand, error) {
	if !opts.walkOK() {
		list, err := mergeVG(left, right, opts)
		if err != nil {
			return list, err
		}
		return insertAndPrune(v, list, inserting, lib, opts)
	}
	list, err := lishiMerge(left, right, opts)
	if err != nil {
		return list, err
	}
	if !opts.noise {
		return insertAndPrune(v, list, inserting, lib, opts)
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
	list = insertBuffers(list, sc.pairs, lib, opts)
	list, err = pruneVG(list, opts)
	if err == nil {
		sc.linkInserted(v, list, lib, left, right)
	}
	return list, err
}

// insertBuffers appends to list the buffered candidates of Step 5 that
// the sources src drive — a chain node's own list (src is list), or a
// noise-mode branch node's pair sums (pairSources): for each buffer type
// (and, in count-indexed mode, each resulting buffer count and each
// parity) the source producing the largest post-buffer slack, subject to
// the noise constraint R_b·I ≤ NS when noise is enforced — the boldface
// modification of Fig. 11, Step 5. It is the DP's one winner rule.
//
// The bests live in a dense slot table, one slot per (cost rank, output
// parity), reset for each buffer type; a slot holds the winning source's
// index and its post-buffer slack, so the scan touches no map and
// allocates nothing. Acceptance is value-canonical: strictly greater
// slack wins, and on an exact tie the cheaper, then smaller, solution;
// only a full-value tie keeps the source scanned first, so a scan of the
// pair sums in mergeVG's order picks what the cross product would. The
// appended tail is sorted by candCmp, stably — the prune's own order and
// run merge — so the list reaches pruneVG as the input's runs plus one
// more, and a chain node's prune is a single linear merge.
// (buffer, parity, cost) makes the winners unique, so repeated runs and
// parallel schedules see byte-identical lists. They leave without their
// solLinks: each is marked with its entry in the node's winner table
// (vgCand.ins) and keeps its source's link (nil for a pair sum), and
// linkInserted makes the links of the ones the prune keeps — most
// winners are dominated at once, and a link made for them would only be
// garbage.
//
// A delay-only run scans only the sources that can win for some buffer
// type (insertHull, hullKeep) and emits the winners already in candCmp
// order when it can. Noise mode and the reference override scan every
// source (insertScan), so the enginetest differential compares the two.
func insertBuffers(list, src []vgCand, lib *buffers.Library, opts vgOptions) []vgCand {
	sc := opts.scratch
	n := len(list)
	slots := sc.index(src, opts.countIndexed)
	sc.wins = sc.wins[:0]
	if opts.noise || opts.dp.classicMerge {
		list = sc.insertScan(list, src, lib, opts, slots)
	} else {
		list = sc.insertHull(list, src, lib, opts, len(slots))
	}
	sc.sortCands(list[n:], opts.countIndexed)
	if opts.stats != nil {
		opts.stats.generated += int64(len(list) - n)
	}
	return list
}

// insertScan is insertBuffers' full scan: every source against every
// buffer type, the winners appended in (buffer index, slot) order.
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
// list and records it in the winner table.
func (sc *nodeScratch) appendWin(list, src []vgCand, bi int, b *buffers.Buffer, s insSlot) []vgCand {
	c := &src[s.src]
	sc.wins = append(sc.wins, insWin{buf: bi, src: s.src})
	return append(list, vgCand{
		load: b.Cin,
		q:    s.q,
		down: 0,
		ns:   b.NoiseMargin,
		nbuf: c.nbuf + 1,
		cost: c.cost + b.Cost(),
		pol:  c.pol ^ inversion(b),
		ins:  int32(len(sc.wins)),
		sol:  c.sol,
	})
}

// insertHull is insertBuffers for a delay-only run. It first narrows
// each slot to the sources hullKeep cannot rule out, kept in src order,
// then scans those under the same winner rule (bestIn). Every source it
// drops has, for every buffer type, another source in its slot with
// strictly greater post-buffer slack as computed, so the dropped sources
// hold none of a type's maxima and the winners are the full scan's.
//
// When the run is not count-indexed, or every buffer costs the same, the
// winners are emitted slot by slot — each slot's output (cost,) parity
// ascending — and within a slot by ascending Cin, then library index: the
// candCmp order of the tail whenever the Cin are distinct. Candidates
// equal under candCmp still arrive in library order, as from the full
// scan, so the stable sort after this leaves the same list. Otherwise the
// emission is the full scan's (buffer index, slot) order.
func (sc *nodeScratch) insertHull(list, src []vgCand, lib *buffers.Library, opts vgOptions, nslot int) []vgCand {
	hb, filter := boundsOf(lib)
	// Group the sources by slot, in src order: a counting sort.
	at := slices.Grow(sc.slotAt[:0], nslot+1)[:nslot+1]
	clear(at)
	for i := range src {
		at[sc.slotOf[i]+1]++
	}
	for s := 1; s <= nslot; s++ {
		at[s] += at[s-1]
	}
	by := slices.Grow(sc.bySlot[:0], len(src))[:len(src)]
	for i := range src {
		s := sc.slotOf[i]
		by[at[s]] = i
		at[s]++
	}
	sc.gone = slices.Grow(sc.gone[:0], len(src))[:len(src)]
	clear(sc.gone)
	sc.kept = slices.Grow(sc.kept[:0], nslot)[:nslot]
	lo := 0
	for s := range nslot {
		group := by[lo:at[s]]
		if filter {
			group = sc.hullKeep(src, group, hb)
		}
		sc.kept[s] = group
		lo = at[s]
	}
	sc.slotAt, sc.bySlot = at, by

	if opts.countIndexed && !sameCosts(lib) {
		for bi := range lib.Buffers {
			for o := range nslot {
				list = sc.bestIn(list, src, lib, bi, o, opts)
			}
		}
		return list
	}
	order := sc.byCin(lib)
	for o := range nslot {
		for _, bi := range order {
			list = sc.bestIn(list, src, lib, bi, o, opts)
		}
	}
	return list
}

// bestIn appends buffer type bi's winner for output slot o, if any: the
// best of the kept sources of the slot the type maps onto o.
func (sc *nodeScratch) bestIn(list, src []vgCand, lib *buffers.Library, bi, o int, opts vgOptions) []vgCand {
	b := &lib.Buffers[bi]
	kept := sc.kept[o^int(inversion(b))]
	// A count-indexed slot holds one cost, so the count cap skips all of
	// it or none.
	if len(kept) == 0 || opts.countIndexed && opts.maxBuffers > 0 && src[kept[0]].cost+b.Cost() > opts.maxBuffers {
		return list
	}
	s := insSlot{src: -1}
	for _, i := range kept {
		c := &src[i]
		q := c.q - b.Delay(c.load)
		if s.src < 0 || displaces(c, &src[s.src], q, s.q) {
			s.src, s.q = i, q
		}
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

// sameCosts reports whether every buffer of lib has the same cost.
func sameCosts(lib *buffers.Library) bool {
	for i := range lib.Buffers {
		if lib.Buffers[i].Cost() != lib.Buffers[0].Cost() {
			return false
		}
	}
	return true
}

// byCin returns lib's buffer indices in ascending Cin, then index order
// (an insertion sort: libraries are small).
func (sc *nodeScratch) byCin(lib *buffers.Library) []int {
	ord := sc.cinOrder[:0]
	for bi := range lib.Buffers {
		ord = append(ord, bi)
		for k := len(ord) - 1; k > 0 && lib.Buffers[ord[k-1]].Cin > lib.Buffers[bi].Cin; k-- {
			ord[k-1], ord[k] = ord[k], ord[k-1]
		}
	}
	sc.cinOrder = ord
	return ord
}

// hullMag bounds the magnitudes hullKeep certifies: with every |q|, |C|,
// R and T at most 2^500, no product or sum it forms can overflow, and a
// NaN fails the bound. A slot or library outside it is scanned whole.
const hullMag = 0x1p500

// hullBounds is what the filter reads of the library: the smallest and
// largest output resistance and the largest intrinsic delay.
type hullBounds struct {
	rmin, rmax, tmax float64
}

// boundsOf returns lib's hullBounds, and whether the filter may run on it
// (Library.Validate already makes every R > 0 and T ≥ 0 finite).
func boundsOf(lib *buffers.Library) (hullBounds, bool) {
	h := hullBounds{rmin: math.Inf(1)}
	for i := range lib.Buffers {
		b := &lib.Buffers[i]
		h.rmin, h.rmax, h.tmax = min(h.rmin, b.R), max(h.rmax, b.R), max(h.tmax, b.T)
	}
	return h, h.rmin > 0 && h.rmax <= hullMag && h.tmax <= hullMag
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
// cannot certify as losers, returned in src order in idx's backing. With
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
func (sc *nodeScratch) hullKeep(src []vgCand, idx []int, h hullBounds) []int {
	if len(idx) < 2 {
		return idx
	}
	sorted, mq, mc := true, 0.0, 0.0
	for k, i := range idx {
		c := &src[i]
		// max carries a NaN through, and the bound check below fails on it.
		mq, mc = max(mq, math.Abs(c.q)), max(mc, math.Abs(c.load))
		if k > 0 {
			p := &src[idx[k-1]]
			sorted = sorted && (p.load < c.load || p.load == c.load && p.q >= c.q)
		}
	}
	if !(mq <= hullMag && mc <= hullMag) {
		return idx
	}
	tau := h.tau(mq + h.rmax*mc)
	ord := idx
	if !sorted {
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
	kept := idx[:0]
	for _, i := range idx {
		if !gone[i] {
			kept = append(kept, i)
		}
	}
	return kept
}

// linkInserted makes the solLink of every candidate insertBuffers emitted
// at v that is still in list — the inserted type at v on top of the
// source's link — and clears its mark. A pair sum's link is the pair's
// junction (joinSol of its left and right candidates), made here, so
// only kept winners cost one; left and right are the lists the pair sums
// came from, nil when the sources were the list's own candidates. Called
// after the prune, before the list leaves the node.
func (sc *nodeScratch) linkInserted(v rctree.NodeID, list []vgCand, lib *buffers.Library, left, right []vgCand) {
	for i := range list {
		c := &list[i]
		if c.ins == 0 {
			continue
		}
		w := sc.wins[c.ins-1]
		if left != nil {
			p := sc.pairOf[w.src]
			c.sol = joinSol(left[p[0]].sol, right[p[1]].sol)
		}
		c.sol = &solLink{node: v, buf: &lib.Buffers[w.buf], prev: [2]*solLink{c.sol, nil}}
		c.ins = 0
	}
}

// nodeScratch is the reusable working memory of the node step: for
// buffer insertion the pair sums, slot table, winner table and the hull
// filter's index lists, for
// sortCands the run boundaries and the merge buffer, for lishiMerge the
// two lists' groups and frontier indices. runVG gives the serial walk one
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
	wins   []insWin  // the node's winners, indexed by vgCand.ins − 1

	slotAt   []int   // insertHull: each slot's end in bySlot
	bySlot   []int   // insertHull: the source indices grouped by slot
	kept     [][]int // insertHull: per slot, the sources hullKeep keeps
	gone     []bool  // hullKeep: per source, certified a loser
	hullOrd  []int   // hullKeep: a slot's sources in (load, −slack) order
	hull     []int   // hullKeep: the monotone chain
	cinOrder []int   // byCin: the library in Cin order

	pairs  []vgCand   // pairSources: the pair sums, each without a link
	pairOf [][2]int32 // pairSources: each pair's left and right indices

	runs []int    // sortCands: the run boundaries
	buf  []vgCand // sortCands: the merge buffer, cleared after every sort

	groups [2][]candGroup // the left and right lists' groups
	idx    []int          // backing for both lists' frontiers

	_ [64]byte
}

// scratchPool carries node-step scratch from run to run, so a run starts
// with the buffers earlier runs grew instead of growing its own. A
// scratch goes back holding no solLink: sortCands clears its buffer after
// every sort, pair sums never carry one, every other field is
// pointer-free or indexes into one, and only successful runs return
// theirs.
var scratchPool = sync.Pool{New: func() any { return new(nodeScratch) }}

func getScratch() *nodeScratch   { return scratchPool.Get().(*nodeScratch) }
func putScratch(sc *nodeScratch) { scratchPool.Put(sc) }

// insWin is one winner of the node's insertion: its buffer type's library
// index and its source's index.
type insWin struct {
	buf, src int
}

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

// mergeVG combines the candidate lists of two sibling branches by the
// full cross product: every parity-compatible pair within the count
// bound, as pairSum and joinSol build it (Steps 3–4 of Fig. 11); pruning
// immediately follows in the caller. It is the branch merge under 4-D
// safe pruning, whose frontier the 2-D walk would cut (lishi.go), and the
// reference the walk is differenced against (dpOverride.classicMerge).
// The cross product is where multi-buffer candidate growth compounds, so
// the budget is consulted as the output grows. The output list comes from
// the arena; on error the caller releases it.
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
			if !opts.mergeable(a.pol, b.pol, a.cost, b.cost) {
				continue
			}
			c := pairSum(&a, &b)
			c.sol = joinSol(a.sol, b.sol)
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
// (Steps 3–4 of Fig. 11). With joinSol for the pair's link it is the
// single shared construction for every merge (classic cross product and
// Li–Shi frontier walk) and for buffer insertion's pair sums
// (pairSources), so none can drift from another in arithmetic or in
// solution linking.
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

// joinSol is the solution link of a merged pair whose sides' links are a
// and b.
func joinSol(a, b *solLink) *solLink {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	// Junction link: reuse a's head with both prevs via a synthetic link
	// carrying a's head assignment would double count; instead create a
	// link that repeats a's head assignment — maps deduplicate identical
	// (node, buf) pairs, so repeating is safe and keeps links binary.
	return &solLink{
		node: a.node, buf: a.buf,
		width: a.width, isWidth: a.isWidth,
		prev: [2]*solLink{a, b},
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
