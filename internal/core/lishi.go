package core

import (
	"math"
	"slices"

	"buffopt/internal/rctree"
)

// This file implements the Li–Shi fast multi-type branch merge
// (PAPERS.md, arXiv:0710.4691): the O(L1·L2) cross product at every
// branch node is replaced by an O(L1+L2) two-pointer walk over the
// branches' Pareto frontiers. It is one half of Li and Shi's O(bn²) for a
// b-type library; the other is convex pruning of the add-buffer step,
// which a delay-only run does in insertHull (vg.go) and without which
// that step alone costs O(b·k) per node. Sink seeding, pruning and wire
// charging are the code the cross product runs; the walk changes how
// merge candidates are enumerated, never their arithmetic (pairSum is
// shared, and every pair is a pending junction either way) and never
// which values survive pruning.
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
// therefore has insertion read the whole pair space (insertPairs): every
// pair of mergeVG, in its order, formed and scored against every type as
// it is formed, under insertBuffers' acceptance rule, so it picks exactly
// the cross product's winners while storing no pair that does not win.
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
// the cross product did, but writes nothing per pair: no pair sum, no
// junction, no arena list, no sort. A pair the count cap leaves no room
// for any type is not scored at all.
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
// skipped, each a pending junction in the scratch, output from the arena
// (caller releases on error), budget consulted as the output grows.
func lishiMerge(left, right []vgCand, opts vgOptions) ([]vgCand, error) {
	out := opts.arena.get(len(left) + len(right))
	sc := opts.scratch
	lg, idx := lishiGroups(left, opts, sc.groups[0], sc.idx[:0])
	rg, idx := lishiGroups(right, opts, sc.groups[1], idx)
	sc.groups[0], sc.groups[1], sc.idx = lg, rg, idx
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
				l, r := ga.frontier[i], gb.frontier[j]
				a, b := &left[l], &right[r]
				c := pairSum(a, b)
				c.via = sc.join(l, r)
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
func (o *vgOptions) mergeable(pa, pb uint8, ca, cb int) bool {
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

// insertPairs is buffer insertion at a noise-mode branch node: it
// appends to list, as insertBuffers does, the winners over every pair of
// left and right that mergeVG would emit. Each pair is formed as pairSum
// forms it, in mergeVG's order — left outer, the right list's mergeable
// groups inner — and scored against every buffer type at once
// (insLib.offer), so each (slot, type) keeps the winner a scan of the
// stored pair sums would pick; only winners become candidates, and the
// winners of one pair share its pending junction. It reads both lists'
// groups that lishiMerge left in the scratch; npairs is their cross
// size, already charged to the candidate cap. The budget's context is
// consulted as the pairs are formed.
func (sc *nodeScratch) insertPairs(v rctree.NodeID, list, left, right []vgCand, opts vgOptions, npairs int) ([]vgCand, error) {
	in := opts.ins
	nt := len(in.types)
	lg, rg := sc.groups[0], sc.groups[1]
	nslot := sc.pairSlots(opts, npairs)
	sc.winTable(nslot, nt)
	for _, s := range sc.groupSlot {
		if s >= 0 {
			sc.fill(s, nt)
		}
	}
	pacer := opts.budget.Pacer(4096)
	for gi := range lg {
		slots := sc.groupSlot[gi*len(rg) : (gi+1)*len(rg)]
		for i := lg[gi].lo; i < lg[gi].hi; i++ {
			a := &left[i]
			for gj, s := range slots {
				if s < 0 {
					continue
				}
				gb := &rg[gj]
				if opts.room(a.cost+gb.cost) < in.minCost {
					// Count-indexed, the group pair's pairs share one cost,
					// and the count cap leaves it room for no type.
					for range gb.hi - gb.lo {
						if err := pacer.Tick(); err != nil {
							return list, err
						}
					}
					continue
				}
				row := sc.wins[s*nt : (s+1)*nt]
				for j := gb.lo; j < gb.hi; j++ {
					if err := pacer.Tick(); err != nil {
						return list, err
					}
					// The pair's values, as pairSum forms them.
					b := &right[j]
					cost := a.cost + b.cost
					in.offer(row, a.load+b.load, minf(a.q, b.q), a.down+b.down, minf(a.ns, b.ns),
						cost, a.nbuf+b.nbuf, int32(i), int32(j), true, opts.room(cost))
				}
			}
		}
	}
	sc.at = v
	n := len(list)
	return sc.sortWins(sc.emitWins(list, nil, in, nslot, opts.byCin()), n, &opts), nil
}

// pairSlots numbers the slots of the pairs the lists' groups form, as
// index numbers a list's: 2·(the rank of the pair's cost, 0 when the run
// is not count-indexed) + parity. A group holds one parity, and one cost
// when count-indexed, so every pair of a (left group, right group) pair
// shares a slot: sc.groupSlot holds it, or -1 where the groups do not
// merge. The rank is dense over the pair costs' range unless that spans
// more than denseCostSpan(npairs), and then the rank among the distinct
// pair costs. It returns the slot count.
func (sc *nodeScratch) pairSlots(opts vgOptions, npairs int) int {
	lg, rg := sc.groups[0], sc.groups[1]
	sc.groupSlot = slices.Grow(sc.groupSlot[:0], len(lg)*len(rg))[:len(lg)*len(rg)]
	lo, hi := math.MaxInt, math.MinInt
	for gi := range lg {
		for gj := range rg {
			sc.groupSlot[gi*len(rg)+gj] = -1
			if ga, gb := &lg[gi], &rg[gj]; opts.mergeable(ga.pol, gb.pol, ga.cost, gb.cost) {
				sc.groupSlot[gi*len(rg)+gj] = 0
				lo, hi = min(lo, ga.cost+gb.cost), max(hi, ga.cost+gb.cost)
			}
		}
	}
	ranks, dense := 1, true
	switch {
	case !opts.countIndexed || lo > hi:
	case hi-lo >= 0 && hi-lo < denseCostSpan(npairs):
		ranks = hi - lo + 1
	default:
		sc.costs = sc.costs[:0]
		for gi := range lg {
			for gj := range rg {
				if sc.groupSlot[gi*len(rg)+gj] == 0 {
					sc.costs = append(sc.costs, lg[gi].cost+rg[gj].cost)
				}
			}
		}
		slices.Sort(sc.costs)
		sc.costs = slices.Compact(sc.costs)
		ranks, dense = len(sc.costs), false
	}
	for gi := range lg {
		for gj := range rg {
			slot := &sc.groupSlot[gi*len(rg)+gj]
			if *slot < 0 {
				continue
			}
			r, c := 0, lg[gi].cost+rg[gj].cost
			switch {
			case !opts.countIndexed:
			case dense:
				r = c - lo
			default:
				r, _ = slices.BinarySearch(sc.costs, c)
			}
			*slot = 2*r + int(lg[gi].pol)
		}
	}
	return 2 * ranks
}
