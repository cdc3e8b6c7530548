package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffopt/internal/buffers"
)

// The oracle for a noise-mode branch node's buffer insertion
// (insertPairs): the pair sums insertion once stored — every pair
// mergeVG would emit, in its order, each a pending junction of its own —
// scanned type by type by the reference override (insertScan). The new
// loop forms each pair and scores it against every type at once, and
// must leave the same list and the same link table rows, bit for bit.

// pairSources returns the pairs of left and right that mergeVG would
// emit, in its order — left outer, the right list's mergeable groups
// inner — each summed by pairSum and recorded as a pending junction. It
// reads the right list's groups that lishiMerge left in sc, and consults
// the budget's context as the pairs are written.
func pairSources(sc *nodeScratch, left, right []vgCand, opts vgOptions) ([]vgCand, error) {
	var pairs []vgCand
	pacer := opts.budget.Pacer(4096)
	for i := range left {
		a := &left[i]
		for _, gb := range sc.groups[1] {
			if !opts.mergeable(a.pol, gb.pol, a.cost, gb.cost) {
				continue
			}
			for j := gb.lo; j < gb.hi; j++ {
				if err := pacer.Tick(); err != nil {
					return pairs, err
				}
				p := pairSum(a, &right[j])
				p.via = sc.join(i, j)
				pairs = append(pairs, p)
			}
		}
	}
	return pairs, nil
}

// branchSide builds one child list of a noise-mode branch node: one of
// hullSources' shapes (grid ties, wire-charged staircases, near-collinear
// points, one-ulp slacks, NaN and infinities, subnormals) with
// adversarial currents and noise slacks for lib, in candCmp order as a
// finished list arrives. Variant 1 spreads the costs past the dense
// rank, variant 2 folds the list into a single group, variant 3 gives
// one candidate a NaN slack.
func branchSide(rng *rand.Rand, lib *buffers.Library, opts vgOptions, variant int) []vgCand {
	side := hullSources(rng, 1+rng.Intn(24), rng.Intn(7))
	noiseFields(rng, side, lib, rng.Intn(4) == 0)
	switch variant {
	case 1:
		for i := range side {
			side[i].cost *= 997
		}
	case 2:
		for i := range side {
			side[i].pol, side[i].cost = 0, side[0].cost
		}
	case 3:
		side[rng.Intn(len(side))].q = math.NaN()
	}
	return candCmpSorted(side, opts.countIndexed)
}

// branchInsert runs one branch node's insertion on left and right, by the
// new loop or (oracle) by the stored pair sums and the reference scan,
// then prunes a copy of the result when prune is set, and links it. It
// returns the linked list, the table and the run's counts.
func branchInsert(left, right []vgCand, lib *buffers.Library, opts vgOptions, oracle, prune bool) ([]vgCand, *linkTab, vgStats, error) {
	var st vgStats
	opts.stats, opts.scratch, opts.ins = &st, &nodeScratch{}, newInsLib(lib)
	sc := opts.scratch
	list, err := lishiMerge(left, right, opts)
	if err != nil {
		return nil, nil, st, err
	}
	if oracle {
		pairs, err := pairSources(sc, left, right, opts)
		if err != nil {
			return nil, nil, st, err
		}
		ref := opts
		ref.dp.classicMerge = true
		list = insertBuffers(7, list, pairs, ref, false)
	} else {
		list, err = sc.insertPairs(7, list, left, right, opts, crossSize(sc.groups[0], sc.groups[1], opts))
		if err != nil {
			return nil, nil, st, err
		}
	}
	if prune {
		if list, err = pruneVG(list, opts); err != nil {
			return nil, nil, st, err
		}
	}
	return list, linkAll(sc, list, left, right), st, nil
}

// sameLinked reports the first difference between two linked lists and
// their tables: every candidate bit for bit (sameBits), and every row.
func sameLinked(got []vgCand, gotTab *linkTab, want []vgCand, wantTab *linkTab) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("candidate %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if g, w := gotTab.rows(), wantTab.rows(); g != w {
		return fmt.Errorf("%d rows, want %d", g, w)
	}
	for ref := int32(1); int(ref) <= wantTab.rows(); ref++ {
		if g, w := *gotTab.row(ref), *wantTab.row(ref); g != w {
			return fmt.Errorf("row %d = %+v, want %+v", ref, g, w)
		}
	}
	return nil
}

// TestInsertPairsMatchesPairScan differences a noise-mode branch node's
// insertion (insertPairs) against the stored pair sums scanned by the
// reference (pairSources, insertScan) on seeded random child lists under
// every library and noise profile — grid-valued lists with exact-slack
// ties across pairs of different cost or buffer count and full-value
// ties, NaN slacks, inverting types, count-indexed runs with and without
// a cap, costs spread past denseCostSpan and sides of a single group —
// both as inserted and after the prune, each linked: the same
// candidates, the same rows and the same counts, bit for bit.
func TestInsertPairsMatchesPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	libs := hullLibraries(rng)
	var nanWins, ranked, single, inverting int
	for li, lib := range libs {
		if slices.ContainsFunc(lib.Buffers, func(b buffers.Buffer) bool { return b.Inverting }) {
			inverting++
		}
		for pi, opts := range hullProfiles() {
			if !opts.noise {
				continue
			}
			for iter := 0; iter < 150; iter++ {
				left := branchSide(rng, lib, opts, iter%4)
				right := branchSide(rng, lib, opts, (iter/4)%4)
				if iter%4 == 2 || (iter/4)%4 == 2 {
					single++
				}
				for _, prune := range []bool{false, true} {
					got, gotTab, gotSt, err := branchInsert(left, right, lib, opts, false, prune)
					if err != nil {
						t.Fatal(err)
					}
					want, wantTab, wantSt, err := branchInsert(left, right, lib, opts, true, prune)
					if err != nil {
						t.Fatal(err)
					}
					if err == nil && gotSt != wantSt {
						err = fmt.Errorf("stats %+v, oracle %+v", gotSt, wantSt)
					}
					if err == nil {
						err = sameLinked(got, gotTab, want, wantTab)
					}
					if err != nil {
						t.Fatalf("library %d, profile %d, iteration %d, prune %v (%d×%d): %v",
							li, pi, iter, prune, len(left), len(right), err)
					}
					if !prune && hasNaNSlack(got) {
						nanWins++
					}
				}
				if opts.countIndexed && pairCostsSpread(left, right, opts) {
					ranked++
				}
			}
		}
	}
	t.Logf("%d lists with NaN slacks, %d ranked cost spreads, %d single-group sides, %d inverting libraries",
		nanWins, ranked, single, inverting)
	if nanWins == 0 || ranked == 0 || single == 0 || inverting == 0 {
		t.Fatalf("coverage: %d lists with NaN slacks, %d ranked cost spreads, %d single-group sides, %d inverting libraries",
			nanWins, ranked, single, inverting)
	}
}

// pairCostsSpread reports whether the mergeable pairs of left and right
// spread their costs past denseCostSpan, so insertPairs ranks them.
func pairCostsSpread(left, right []vgCand, opts vgOptions) bool {
	lo, hi, n := math.MaxInt, math.MinInt, 0
	for _, a := range left {
		for _, b := range right {
			if opts.mergeable(a.pol, b.pol, a.cost, b.cost) {
				lo, hi, n = min(lo, a.cost+b.cost), max(hi, a.cost+b.cost), n+1
			}
		}
	}
	return n > 0 && hi-lo >= denseCostSpan(n)
}

// TestMinfIsMathMin holds minf to math.Min, bit for bit, on every pair of
// special and ordinary values: signed zeros, infinities, NaNs of two
// payloads, subnormals and ordinary numbers of both signs.
func TestMinfIsMathMin(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000ABC), 0x1p-1074, -0x1p-1074, 1, -1, 2.5, -1e300, 1e-9}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := math.Float64bits(minf(x, y)), math.Float64bits(math.Min(x, y)); got != want {
				t.Errorf("minf(%v, %v) = %#x, math.Min %#x", x, y, got, want)
			}
		}
	}
}
