package core

import (
	"fmt"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// Property tests on the DP's list invariants. The Li–Shi merge is only
// sound because pruneVG's output is, per (parity[, cost]) group, a strict
// 2-D Pareto frontier: loads strictly ascending, slacks strictly
// ascending, no candidate weakly dominated by another. These tests pin
// that invariant — and the fast merge's equivalence to the cross product
// — on 1 000 seeded random subtree lists per configuration, deliberately
// including exact float ties (values drawn from a small grid) so the
// tie-breaking rules are exercised, not just generic positions.

// randCandList builds a raw candidate list as a subtree might hand it to
// a parent: random values on a coarse grid (ties likely), each with a
// distinct solution link so witness mix-ups are visible.
func randCandList(rng *rand.Rand, n int, tag string) []vgCand {
	list := make([]vgCand, n)
	for i := range list {
		list[i] = vgCand{
			load: float64(1+rng.Intn(40)) * 0.25,
			q:    float64(rng.Intn(60)) * 0.5,
			down: float64(rng.Intn(8)) * 0.125,
			ns:   float64(rng.Intn(20)) * 0.5,
			nbuf: rng.Intn(6),
			cost: rng.Intn(6),
			pol:  uint8(rng.Intn(2)),
			sol: &solLink{
				buf: &buffers.Buffer{Name: fmt.Sprintf("%s%d", tag, i)},
			},
		}
	}
	return list
}

// pruneProfiles are the dominance configurations under test.
func pruneProfiles() []struct {
	name string
	opts vgOptions
} {
	return []struct {
		name string
		opts vgOptions
	}{
		{"plain", vgOptions{}},
		{"count-indexed", vgOptions{countIndexed: true, maxBuffers: 8}},
		{"safe", vgOptions{safePruning: true}},
		{"safe-count-indexed", vgOptions{safePruning: true, countIndexed: true, maxBuffers: 8}},
	}
}

// checkFrontier asserts the pruned-list invariant for one list: within
// each (parity[, cost]) group, strictly ascending load; without safe
// pruning also strictly ascending slack (the strict 2-D frontier); and in
// every mode, no candidate weakly dominated by another in its group under
// the mode's dominance relation.
func checkFrontier(t *testing.T, list []vgCand, opts vgOptions) {
	t.Helper()
	sameGroup := func(a, b *vgCand) bool {
		return a.pol == b.pol && (!opts.countIndexed || a.cost == b.cost)
	}
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && sameGroup(&list[i], &list[j]) {
			j++
		}
		for k := i + 1; k < j; k++ {
			a, b := &list[k-1], &list[k]
			if b.load < a.load {
				t.Fatalf("group load not ascending at %d: %g after %g", k, b.load, a.load)
			}
			// The 2-D modes leave a strict staircase; safe pruning may
			// keep equal-load candidates that differ in the noise
			// dimensions, so only the weaker ordering holds there.
			if !opts.safePruning && (b.load <= a.load || b.q <= a.q) {
				t.Fatalf("group frontier not strict at %d: (%g, %g) after (%g, %g)",
					k, b.load, b.q, a.load, a.q)
			}
		}
		for x := i; x < j; x++ {
			for y := i; y < j; y++ {
				if x == y {
					continue
				}
				a, b := &list[x], &list[y]
				dom := a.load <= b.load && a.q >= b.q
				if opts.safePruning {
					dom = dom && a.down <= b.down && a.ns >= b.ns
				}
				if dom {
					t.Fatalf("candidate %d weakly dominated by %d: %+v vs %+v", y, x, *b, *a)
				}
			}
		}
		i = j
	}
}

// TestPrunedListsAreStrictFrontiers drives pruneVG over 1 000 seeded
// random lists per profile and asserts the frontier invariant, plus
// idempotence (pruning a pruned list changes nothing) and, for the
// non-safe modes, that lishiGroups sees the whole pruned group as its own
// frontier — the precondition the fast merge's index views rely on.
func TestPrunedListsAreStrictFrontiers(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 250
	}
	for _, prof := range pruneProfiles() {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1234))
			for trial := 0; trial < trials; trial++ {
				opts := prof.opts
				opts.arena = &candArena{}
				raw := randCandList(rng, 1+rng.Intn(120), "c")
				pruned, err := pruneVG(raw, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkFrontier(t, pruned, opts)
				again, err := pruneVG(append([]vgCand(nil), pruned...), opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := candsEqual(pruned, again); err != nil {
					t.Fatalf("trial %d: pruning not idempotent: %v", trial, err)
				}
				if !opts.safePruning {
					groups, _ := lishiGroups(pruned, opts, nil, nil)
					total := 0
					for _, g := range groups {
						total += len(g.frontier)
					}
					if total != len(pruned) {
						t.Fatalf("trial %d: pruned list is not its own frontier: %d of %d indices kept",
							trial, total, len(pruned))
					}
				}
			}
		})
	}
}

// TestMergeDifferentialProperty is the unit-level differential on the
// merge itself: for 1 000 seeded pairs of pruned, wire-charged lists —
// the exact shape computeNode feeds a branch merge — prune(cross product)
// and prune(frontier walk) must agree bit for bit, solutions included.
// The wire charge is applied because it breaks slack monotonicity while
// preserving load order, which is precisely the case the fast merge's
// frontier index views exist for. The walk must also emit no more
// candidates than the cross product, and strictly fewer at least once —
// proof the fast path is engaged, not falling back.
//
// The noise profiles difference the whole branch step at a buffer site,
// mergeBranch with buffer insertion: prune(walk ∪ pair-scan winners)
// against prune(cross ∪ insertBuffers(cross)) — the reference override —
// bit for bit, links made by linkInserted included. Their lists carry
// nonzero currents and noise slacks, every candidate has a link at a
// node of its own, and the library mixes several output resistances and
// an inverter, so the noise check admits different pairs per type.
func TestMergeDifferentialProperty(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 250
	}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "b0", Cin: 0.5, R: 0.25, T: 0.5, NoiseMargin: 2},
		{Name: "b1", Cin: 1, R: 0.5, T: 0.25, NoiseMargin: 4},
		{Name: "b2", Cin: 1.5, R: 1, NoiseMargin: 1.5, Weight: 2},
		{Name: "b3", Cin: 0.75, R: 2, T: 0.25, NoiseMargin: 6},
		{Name: "inv", Cin: 0.25, R: 0.5, T: 0.5, NoiseMargin: 3, Inverting: true},
	}}
	for _, prof := range []struct {
		name string
		opts vgOptions
	}{
		{"plain", vgOptions{}},
		{"count-indexed", vgOptions{countIndexed: true, maxBuffers: 8}},
		{"noise", vgOptions{noise: true}},
		{"noise+count-indexed", vgOptions{noise: true, countIndexed: true, maxBuffers: 8}},
	} {
		prof := prof
		t.Run(prof.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(5678))
			savedEmits := false
			for trial := 0; trial < trials; trial++ {
				opts := prof.opts
				opts.arena = &candArena{}
				opts.scratch = &nodeScratch{}
				mk := func(tag string, node int) []vgCand {
					l, err := pruneVG(randCandList(rng, 1+rng.Intn(80), tag), opts)
					if err != nil {
						t.Fatal(err)
					}
					// Charge a random parent wire: loads shift by a
					// constant, slacks drop by R·load — order kept,
					// monotonicity broken. Noise slacks drop and
					// currents grow as computeNode charges them.
					r, c := rng.Float64(), rng.Float64()
					for i := range l {
						l[i].q -= r * (c/2 + l[i].load)
						l[i].load += c
					}
					if opts.noise {
						iw := 0.25 * rng.Float64()
						for i := range l {
							l[i].ns -= r * (l[i].down + iw/2)
							l[i].down += iw
							l[i].sol = &solLink{node: rctree.NodeID(node + i), buf: &buffers.Buffer{Name: fmt.Sprintf("%s%d", tag, i)}}
						}
					}
					return l
				}
				left, right := mk("l", 1000), mk("r", 2000)
				if opts.noise {
					var refStats, walkStats vgStats
					ref := opts
					ref.dp.classicMerge, ref.stats = true, &refStats
					want, err := mergeBranch(999, left, right, true, lib, ref)
					if err != nil {
						t.Fatal(err)
					}
					opts.stats = &walkStats
					got, err := mergeBranch(999, left, right, true, lib, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := candsEqual(want, got); err != nil {
						t.Fatalf("trial %d: the walk with pair-scan winners disagrees with the cross product: %v", trial, err)
					}
					if walkStats.merged < refStats.merged {
						savedEmits = true
					}
					continue
				}
				cross, err := mergeVG(left, right, opts)
				if err != nil {
					t.Fatal(err)
				}
				walk, err := lishiMerge(left, right, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(walk) > len(cross) {
					t.Fatalf("trial %d: walk emitted %d > cross product %d", trial, len(walk), len(cross))
				}
				if len(walk) < len(cross) {
					savedEmits = true
				}
				pc, err := pruneVG(cross, opts)
				if err != nil {
					t.Fatal(err)
				}
				pw, err := pruneVG(walk, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := candsEqual(pc, pw); err != nil {
					t.Fatalf("trial %d: merge paths disagree after pruning: %v", trial, err)
				}
			}
			if !savedEmits {
				t.Fatal("the frontier walk never beat the cross product; the fast path is not engaged")
			}
		})
	}
}
