package core

// This file implements the Li–Shi fast multi-type branch merge
// (PAPERS.md, arXiv:0710.4691): the one super-linear step of the classic
// dynamic program — the O(L1·L2) cross product at every branch node — is
// replaced by an O(L1+L2) two-pointer walk over the branches' Pareto
// frontiers, cutting the whole DP from O(b²n²) to O(bn²) for a b-type
// library. Everything else (sink seeding, buffer insertion, pruning, wire
// charging) is byte-for-byte the code VG runs; the engine changes how
// merge candidates are enumerated, never their arithmetic (mergedCand is
// shared) and never which values survive pruning.
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
// The argument is about the delay DP's 2-D (load, slack) dominance. Two
// configurations step outside it and fall back to the classic merge,
// node by node, via vgOptions.fastMergeOK:
//
//   - noise mode: insertBuffers consults the pre-prune merged list, and a
//     2-D-dominated pair (larger load, smaller slack) can still be the
//     only pair whose noise slack admits some buffer type — the
//     Section IV-C observation that motivates safe pruning.
//   - safe pruning: the frontier is 4-D; a 2-D walk would discard
//     candidates safe pruning promises to keep.
//
// Everywhere else the walk runs, at any library size: it beats the cross
// product even at b = 1 (BENCH_2026-08-08-1). The classic merge stays as
// the fallback for the two configurations above and as the reference the
// enginetest differential suite compares the walk against.

// candGroup is one (parity[, cost]) run of a canonically ordered
// candidate list, with the indices of its 2-D Pareto frontier in load
// order (load and slack both strictly increasing along frontier).
type candGroup struct {
	pol      uint8
	cost     int
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
			if ga.pol != gb.pol {
				continue
			}
			if opts.countIndexed && opts.maxBuffers > 0 && ga.cost+gb.cost > opts.maxBuffers {
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
				a, b := left[ga.frontier[i]], right[gb.frontier[j]]
				out = append(out, mergedCand(a, b))
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
