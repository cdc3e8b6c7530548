package core

// This file implements the Li–Shi fast multi-type branch merge
// (PAPERS.md, arXiv:0710.4691): the O(L1·L2) cross product at every
// branch node is replaced by an O(L1+L2) two-pointer walk over the
// branches' Pareto frontiers. It is one half of Li and Shi's O(bn²) for a
// b-type library; the other is convex pruning of the add-buffer step,
// which a delay-only run does in insertHull (vg.go) and without which
// that step alone costs O(b·k) per node. Sink seeding, pruning and wire
// charging are the code the cross product runs; the walk changes how
// merge candidates are enumerated, never their arithmetic (pairSum and
// joinSol are shared) and never which values survive pruning.
//
// Why the walk loses nothing, exactly:
//
// Each input list arrives grouped by parity (and, count-indexed, cost),
// with strictly ascending load inside every group — pruneVG's output
// invariant, which the parent-wire charge preserves (it adds the same
// constant to every load). Slack need not be monotone by the time the
// list reaches its parent (the wire charge subtracts R·load, more from
// larger loads), so the group's 2-D Pareto frontier is recovered first: a
// prefix-max scan keeps the indices whose slack strictly exceeds every
// earlier slack in the group. A skipped candidate d is dominated by an
// earlier kept candidate f with load(f) < load(d) — strictly, since
// in-group loads are distinct — and q(f) ≥ q(d). Any merge pair (d, b)
// is then beaten by (f, b): same minimum-slack bound or better, strictly
// smaller combined load. So no pair involving a skipped candidate can
// survive the pruneVG that immediately follows the merge, or tie a
// survivor (a strict-load dominator disqualifies a value from the
// frontier outright). Dropping them changes nothing.
//
// Across two frontiers — both strictly ascending in load and in slack —
// the walk starts at the head of each and repeatedly emits the current
// pair, then advances the pointer whose candidate has the smaller slack
// (both on a tie). Combined load strictly increases along the path, and
// any pair (i, j) off the path is again strictly beaten: the path visits
// every index of both lists, so it holds i with some j* < j (or j with
// i* < i); advancing past (i, j*) means qa(i) ≥ qb(j*) ≥ … so the
// emitted pair has the same min-slack as (i, j) at strictly smaller
// load. The emitted pairs therefore contain every pair value that can
// survive — or tie a survivor of — the subsequent prune, and pruneVG's
// value-total-order tiebreaks pick the same winner from either
// enumeration. The buffer-insertion step sees the merged list before
// pruning, but with every buffer's R > 0 (Library.Validate enforces
// this) a strictly load-dominated pair also loses strictly after the
// b.Delay(load) charge, so the per-type maxima match too; exact-slack
// ties among path pairs are settled by insertBuffers' value-canonical
// acceptance rule rather than scan order.
//
// Nothing above reads the noise fields (I, NS): the argument is about
// the 2-D (load, slack) prune inside each (parity[, cost]) group, and
// that is the prune noise-mode runs apply too. So the walk's pairs are
// what a branch node prunes in every configuration but one:
//
//   - safe pruning: the frontier is 4-D, and a pair the 2-D walk drops can
//     be one the 4-D prune keeps (better I or NS). A 4-D frontier is no
//     chain in any one coordinate, so it has no two-pointer order to walk;
//     safe pruning keeps the classic cross product (mergeVG).
//
// Under noise constraints buffer insertion is the one reader that needs
// more than the walk: a 2-D-dominated pair (larger load, smaller slack)
// can be the only pair whose merged noise slack admits some buffer type,
// R_b·(I_a+I_b) ≤ min(NS_a, NS_b) — the Section IV-C observation that
// motivates safe pruning. At a noise-mode buffer site mergeBranch
// therefore hands insertion the whole pair space as flat sums
// (pairSources), in mergeVG's order, and insertBuffers — the same scan,
// the same acceptance rule — picks exactly the cross product's winners.
// prune(walk ∪ winners) then equals prune(cross ∪ winners) with links:
// every pair off the walk is strictly load-beaten within its own group,
// so it survives neither prune, and a pair survivor of the cross prune is
// the only cross pair with its (load, slack) — any other would be
// strictly beaten, and so would it — hence a walk pair with the same
// link. The winners follow the pairs in both inputs, so full-value ties
// between a winner and a pair resolve alike.
//
// Why not one filtered walk per distinct noise threshold: the pairs that
// admit a type are not a product of a left filter and a right filter —
// the test couples the sides through I_a + I_b against the smaller of
// the two noise slacks — so no walk over per-side filtered frontiers
// enumerates them. The scan costs O(b·L1·L2) comparisons, as insertion on
// the cross product did, but makes no link, arena list or sort per pair.
//
// The walk beats the cross product even at b = 1 (BENCH_2026-08-08-1).
// The classic merge stays as safe pruning's merge and as the reference
// the enginetest differential suite compares the walk against.

// candGroup is one (parity[, cost]) run of a canonically ordered
// candidate list, list[lo:hi], with the indices of its 2-D Pareto
// frontier in load order (load and slack both strictly increasing along
// frontier).
type candGroup struct {
	pol      uint8
	cost     int
	lo, hi   int
	frontier []int
}

// lishiGroups splits a pruned (and possibly wire-charged) candidate list
// into its (parity[, cost]) groups and computes each group's Pareto
// frontier by a prefix-max slack scan. idx is scratch backing for the
// frontier slices, and groups backing for the result, each grown as
// needed and returned for reuse.
func lishiGroups(list []vgCand, opts vgOptions, groups []candGroup, idx []int) ([]candGroup, []int) {
	groups = groups[:0]
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && list[j].pol == list[i].pol &&
			(!opts.countIndexed || list[j].cost == list[i].cost) {
			j++
		}
		start := len(idx)
		bestQ := list[i].q
		idx = append(idx, i)
		for k := i + 1; k < j; k++ {
			if list[k].q > bestQ {
				bestQ = list[k].q
				idx = append(idx, k)
			}
		}
		groups = append(groups, candGroup{
			pol:      list[i].pol,
			cost:     list[i].cost,
			lo:       i,
			hi:       j,
			frontier: idx[start:len(idx):len(idx)],
		})
		i = j
	}
	return groups, idx
}

// lishiMerge combines two sibling candidate lists by walking Pareto
// frontiers pairwise instead of forming the full cross product. Same
// contract as mergeVG: parity-compatible pairs only, count-capped pairs
// skipped, output from the arena (caller releases on error), budget
// consulted as the output grows.
func lishiMerge(left, right []vgCand, opts vgOptions) ([]vgCand, error) {
	out := opts.arena.get(len(left) + len(right))
	var lg, rg []candGroup
	var idx []int
	sc := opts.scratch
	if sc != nil {
		lg, rg, idx = sc.groups[0], sc.groups[1], sc.idx[:0]
	}
	lg, idx = lishiGroups(left, opts, lg, idx)
	rg, idx = lishiGroups(right, opts, rg, idx)
	if sc != nil {
		sc.groups[0], sc.groups[1], sc.idx = lg, rg, idx
	}
	tick := 0
	for _, ga := range lg {
		for _, gb := range rg {
			if !opts.mergeable(ga.pol, gb.pol, ga.cost, gb.cost) {
				continue
			}
			i, j := 0, 0
			for i < len(ga.frontier) && j < len(gb.frontier) {
				if tick++; tick >= 4096 {
					tick = 0
					if err := opts.budget.CheckCandidates(len(out)); err != nil {
						return out, err
					}
				}
				a, b := &left[ga.frontier[i]], &right[gb.frontier[j]]
				c := pairSum(a, b)
				c.sol = joinSol(a.sol, b.sol)
				out = append(out, c)
				// Advance past the branch that bounds this pair's slack:
				// its later candidates can only raise the bound the other
				// branch's current candidate already meets.
				switch {
				case a.q < b.q:
					i++
				case a.q > b.q:
					j++
				default:
					i++
					j++
				}
			}
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

// mergeable reports whether candidates of parities pa, pb and costs ca,
// cb form a pair every merge keeps: the same parity, and within the
// count bound when there is one.
func (o vgOptions) mergeable(pa, pb uint8, ca, cb int) bool {
	return pa == pb && !(o.countIndexed && o.maxBuffers > 0 && ca+cb > o.maxBuffers)
}

// crossSize is the number of pairs the cross product of the lists grouped
// as lg and rg holds: what mergeVG would emit.
func crossSize(lg, rg []candGroup, opts vgOptions) int {
	n := 0
	for _, ga := range lg {
		for _, gb := range rg {
			if opts.mergeable(ga.pol, gb.pol, ga.cost, gb.cost) {
				n += (ga.hi - ga.lo) * (gb.hi - gb.lo)
			}
		}
	}
	return n
}

// pairSources fills the scratch's pair sums with the pairs of left and
// right that mergeVG would emit, in its order — left outer, the right
// list's mergeable groups inner — each summed by pairSum, without a link,
// beside its two indices. It reads the right list's groups that
// lishiMerge left in the scratch, and consults the budget's context as
// the pairs are written (the cap has been charged their number already).
func (sc *nodeScratch) pairSources(left, right []vgCand, opts vgOptions) error {
	sc.pairs, sc.pairOf = sc.pairs[:0], sc.pairOf[:0]
	pacer := opts.budget.Pacer(4096)
	for i := range left {
		a := &left[i]
		for _, gb := range sc.groups[1] {
			if !opts.mergeable(a.pol, gb.pol, a.cost, gb.cost) {
				continue
			}
			for j := gb.lo; j < gb.hi; j++ {
				if err := pacer.Tick(); err != nil {
					return err
				}
				sc.pairs = append(sc.pairs, pairSum(a, &right[j]))
				sc.pairOf = append(sc.pairOf, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return nil
}
