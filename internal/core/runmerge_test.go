package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// Tests and benchmarks for the prune's sort, sortCands: a stable merge
// of the list's ascending runs, which must order every list exactly as a
// stable sort by candCmp would — solution links included, so the
// witness that survives a full-value tie is always the earlier one.

// sortedRuns cuts list into k pieces and sorts each by candCmp, so the
// list arrives as at most k runs.
func sortedRuns(list []vgCand, k int, countIndexed bool) []vgCand {
	for lo := 0; lo < len(list); {
		hi := min(len(list), lo+1+len(list)/k)
		slices.SortStableFunc(list[lo:hi], func(a, b vgCand) int { return candCmp(&a, &b, countIndexed) })
		lo = hi
	}
	return list
}

// reverseSorted returns list in descending candCmp order, the run
// merge's worst case: every candidate is a run of its own.
func reverseSorted(list []vgCand, countIndexed bool) []vgCand {
	list = sortedRuns(list, 1, countIndexed)
	slices.Reverse(list)
	return list
}

// runShapes turn a seeded candidate list into the input shapes the run
// merge must handle: no runs (empty), one run, two runs (a sorted list
// and a sorted tail, a chain node's shape), a few runs (a branch node's),
// many runs (shuffled) and the worst case, reverse-sorted.
func runShapes() []struct {
	name  string
	shape func(list []vgCand, countIndexed bool) []vgCand
} {
	runs := func(k int) func([]vgCand, bool) []vgCand {
		return func(list []vgCand, ci bool) []vgCand { return sortedRuns(list, k, ci) }
	}
	return []struct {
		name  string
		shape func(list []vgCand, countIndexed bool) []vgCand
	}{
		{"empty", func(list []vgCand, _ bool) []vgCand { return list[:0] }},
		{"one-run", runs(1)},
		{"two-runs", runs(2)},
		{"eight-runs", runs(8)},
		{"shuffled", func(list []vgCand, _ bool) []vgCand { return list }},
		{"reverse-sorted", reverseSorted},
	}
}

// TestPooledScratchHoldsNoLinks pins that a nodeScratch, which
// scratchPool keeps from run to run, can hold no link table rows: no
// field of it reaches a solRow, a link table or a segment, so a pooled
// scratch pins no finished run's table. Its candidates' refs are plain
// integers and pin nothing.
func TestPooledScratchHoldsNoLinks(t *testing.T) {
	banned := []reflect.Type{reflect.TypeOf(solRow{}), reflect.TypeOf(linkTab{}), reflect.TypeOf(linkSeg{})}
	var reaches func(ty reflect.Type, seen map[reflect.Type]bool) bool
	reaches = func(ty reflect.Type, seen map[reflect.Type]bool) bool {
		if slices.Contains(banned, ty) {
			return true
		}
		if seen[ty] {
			return false
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			return reaches(ty.Elem(), seen)
		case reflect.Map:
			return reaches(ty.Key(), seen) || reaches(ty.Elem(), seen)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if reaches(ty.Field(i).Type, seen) {
					return true
				}
			}
		case reflect.Interface, reflect.Chan, reflect.Func:
			return true
		}
		return false
	}
	st := reflect.TypeOf(nodeScratch{})
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); reaches(f.Type, map[reflect.Type]bool{}) {
			t.Errorf("nodeScratch.%s can hold link table rows", f.Name)
		}
	}
}

// TestCandidatesPointerFree pins the layout the dynamic program's speed
// rests on: a candidate and a link table row hold no Go pointer — no
// pointer, slice, map, string, interface, channel or function, at any
// depth — so sorting, merging, pruning, pooling and memoizing them pays
// no write barrier and gives the collector nothing to scan. A field that
// breaks this fails here instead of quietly costing every candidate move.
// The candidate stays 64 bytes and the row 16.
func TestCandidatesPointerFree(t *testing.T) {
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Array:
			check(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		}
	}
	for _, ty := range []reflect.Type{reflect.TypeOf(vgCand{}), reflect.TypeOf(solRow{})} {
		check(ty.Name(), ty)
	}
	if got := reflect.TypeOf(vgCand{}).Size(); got != 64 {
		t.Errorf("vgCand is %d bytes, want 64", got)
	}
	if got := reflect.TypeOf(solRow{}).Size(); got != 16 {
		t.Errorf("solRow is %d bytes, want 16", got)
	}
}

// TestSortCandsMatchesStableSort runs the run merge against
// slices.SortStableFunc with the same comparator on 500 seeded lists per
// shape, grouping (parity, and cost when count-indexed) and tie mix —
// half with forced full-value ties whose copies differ only in their
// solution link — with one nodeScratch reused throughout. The output must
// match element for element, links included.
func TestSortCandsMatchesStableSort(t *testing.T) {
	sc := &nodeScratch{}
	for _, countIndexed := range []bool{false, true} {
		for _, sh := range runShapes() {
			t.Run(fmt.Sprintf("%s/countIndexed=%v", sh.name, countIndexed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(15))
				for iter := 0; iter < 500; iter++ {
					list := randCandList(rng, 1+rng.Intn(120), "c")
					if iter%2 == 0 {
						list = withForcedTies(rng, list)
					}
					list = sh.shape(list, countIndexed)
					want := slices.Clone(list)
					slices.SortStableFunc(want, func(a, b vgCand) int { return candCmp(&a, &b, countIndexed) })
					sc.sortCands(list, countIndexed)
					for i := range want {
						if list[i] != want[i] {
							t.Fatalf("iteration %d (%d candidates): position %d = %+v, want %+v",
								iter, len(list), i, list[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestPruneVGAllocatesNothing pins the prune to zero allocations with
// warm scratch in every pruning profile: on a reverse-sorted list — the
// worst case for sortCands' merge buffer — and on two sorted runs, which
// outside safe pruning take mergePrune and its copy of the first run. It
// checks that each shape used opts.scratch's buffer.
func TestPruneVGAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, prof := range pruneProfiles() {
		for _, sh := range []struct {
			name  string
			shape func([]vgCand, bool) []vgCand
		}{{"reverse-sorted", reverseSorted}, {"two-runs", func(l []vgCand, ci bool) []vgCand { return sortedRuns(l, 2, ci) }}} {
			opts := prof.opts
			opts.scratch = &nodeScratch{}
			src := sh.shape(randCandList(rng, 200, "a"), opts.countIndexed)
			if mid, ok := twoRuns(src, opts.countIndexed); sh.name == "two-runs" && (!ok || mid == len(src)) {
				t.Fatalf("%s: the two-runs list is not two clean runs", prof.name)
			}
			work := make([]vgCand, len(src))
			got := testing.AllocsPerRun(100, func() {
				copy(work, src)
				if _, err := pruneVG(work, opts); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Fatalf("%s, %s: pruneVG allocates %v per call with warm scratch", prof.name, sh.name, got)
			}
			if cap(opts.scratch.buf) == 0 {
				t.Fatalf("%s, %s: the list was pruned without the scratch buffer", prof.name, sh.name)
			}
		}
	}
}

// sortScanPrune is the 2-D prune mergePrune replaced, kept as its
// oracle: sortCands, then the group scan pruneVG ran before, unchanged.
func sortScanPrune(list []vgCand, opts vgOptions) ([]vgCand, vgStats) {
	var st vgStats
	if len(list) <= 1 {
		return list, st
	}
	(&nodeScratch{}).sortCands(list, opts.countIndexed)
	sameGroup := func(a, b *vgCand) bool {
		if a.pol != b.pol {
			return false
		}
		return !opts.countIndexed || a.cost == b.cost
	}
	out := list[:0]
	for i := 0; i < len(list); {
		j := i + 1
		for j < len(list) && sameGroup(&list[i], &list[j]) {
			j++
		}
		bestQ := math.Inf(-1)
		for k := i; k < j; k++ {
			if c := list[k]; c.q > bestQ {
				out = append(out, c)
				bestQ = c.q
			}
		}
		i = j
	}
	st.pruned = int64(len(list) - len(out))
	return out, st
}

// withNaNs puts a NaN in the slack of about one candidate in eight, and
// in a current or noise slack of a few more.
func withNaNs(rng *rand.Rand, list []vgCand) []vgCand {
	for i := range list {
		switch rng.Intn(24) {
		case 0, 1, 2:
			list[i].q = math.NaN()
		case 3:
			list[i].down = math.NaN()
		case 4:
			list[i].ns = math.NaN()
		}
	}
	return list
}

// chargedEqual makes loads that a wire charge rounds equal: it moves some
// candidates' loads one ulp above their predecessors', then charges the
// list with a wire whose capacitance swallows the ulp, as computeNode
// would — so equal loads meet in any slack order.
func chargedEqual(rng *rand.Rand, list []vgCand) []vgCand {
	for i := 1; i < len(list); i++ {
		if rng.Intn(3) == 0 {
			list[i].load = math.Nextafter(list[i-1].load, math.Inf(1))
		}
	}
	r, c := 0.25, 64.0
	for i := range list {
		list[i].q -= r * (c/2 + list[i].load)
		list[i].load += c
	}
	return list
}

// TestMergePruneMatchesSortScan differences pruneVG, which takes
// mergePrune on any list of at most two clean runs, against the sort and
// scan it replaces, candidate for candidate and in the pruned count: 300
// seeded lists per run shape, count index, and tie, NaN and charged-load
// mix. It also runs mergePrune on its own with a known boundary, as
// insertAndPrune does, on every list made of two sorted pieces — where
// the second piece may well continue the first run — and requires that
// the one- and two-run shapes took mergePrune.
func TestMergePruneMatchesSortScan(t *testing.T) {
	mixes := []struct {
		name string
		mix  func(*rand.Rand, []vgCand) []vgCand
	}{
		{"plain", func(_ *rand.Rand, l []vgCand) []vgCand { return l }},
		{"forced-ties", withForcedTies},
		{"nan", withNaNs},
		{"charged-equal", chargedEqual},
	}
	for _, ci := range []bool{false, true} {
		opts := vgOptions{countIndexed: ci}
		for _, sh := range runShapes() {
			for _, mx := range mixes {
				t.Run(fmt.Sprintf("%s/%s/countIndexed=%v", sh.name, mx.name, ci), func(t *testing.T) {
					rng := rand.New(rand.NewSource(23))
					sc := &nodeScratch{}
					fused := 0
					for iter := 0; iter < 300; iter++ {
						list := mx.mix(rng, randCandList(rng, 1+rng.Intn(120), "c"))
						list = sh.shape(list, ci)
						want, wantSt := sortScanPrune(slices.Clone(list), opts)
						var st vgStats
						o := opts
						o.stats, o.scratch = &st, sc
						if _, ok := twoRuns(list, ci); ok {
							fused++
						}
						got, err := pruneVG(slices.Clone(list), o)
						if err != nil {
							t.Fatal(err)
						}
						if err := samePrune(got, st, want, wantSt); err != nil {
							t.Fatalf("iteration %d (%d candidates): %v", iter, len(list), err)
						}
						// The known-boundary call: two sorted pieces, cut
						// anywhere.
						if nanSum(list) {
							continue
						}
						mid := rng.Intn(len(list) + 1)
						two := slices.Clone(list)
						sortedRuns(two[:mid], 1, ci)
						sortedRuns(two[mid:], 1, ci)
						want, wantSt = sortScanPrune(slices.Clone(two), opts)
						st = vgStats{}
						if err := samePrune(sc.mergePrune(two, mid, o), st, want, wantSt); err != nil {
							t.Fatalf("iteration %d, boundary %d of %d: %v", iter, mid, len(list), err)
						}
					}
					if (sh.name == "one-run" || sh.name == "two-runs") && mx.name != "nan" && fused == 0 {
						t.Fatal("no list took mergePrune")
					}
				})
			}
		}
	}
}

// samePrune reports the first difference between two prunes' outputs and
// pruned counts.
func samePrune(got []vgCand, gotSt vgStats, want []vgCand, wantSt vgStats) error {
	if gotSt.pruned != wantSt.pruned {
		return fmt.Errorf("pruned %d, sort and scan %d", gotSt.pruned, wantSt.pruned)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d survivors, sort and scan %d", len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("survivor %d = %+v, sort and scan %+v", i, got[i], want[i])
		}
	}
	return nil
}

// sameBits reports whether a and b are the same candidate bit for bit
// (== would call two NaN slacks different).
func sameBits(a, b vgCand) bool {
	f := func(c vgCand) [4]uint64 {
		return [4]uint64{math.Float64bits(c.load), math.Float64bits(c.q), math.Float64bits(c.down), math.Float64bits(c.ns)}
	}
	a2, b2 := a, b
	a2.load, a2.q, a2.down, a2.ns = 0, 0, 0, 0
	b2.load, b2.q, b2.down, b2.ns = 0, 0, 0, 0
	return f(a) == f(b) && a2 == b2
}

// TestChainStepMatchesReference differences the whole chain-node step,
// insertAndPrune, against the reference override's — the full insertion
// scan, then the sort and scan prune — on hullSources' shapes, as built
// and candCmp-sorted, some with a source whose winners' slacks are NaN,
// under every library and profile: the same candidates in the same
// order, the same links, the same counts.
func TestChainStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	libs := hullLibraries(rng)
	for shape := 0; shape < 7; shape++ {
		for li, lib := range libs {
			for pi, opts := range hullProfiles() {
				for iter := 0; iter < 60; iter++ {
					src := hullSources(rng, rng.Intn(90), shape)
					if opts.noise {
						noiseFields(rng, src, lib, iter%4 == 3)
					}
					if iter%5 == 4 && len(src) > 0 {
						// Every type's post-buffer slack is ∞ − ∞ = NaN
						// here, though the source's values sum to ∞.
						c := &src[rng.Intn(len(src))]
						c.load, c.q = math.Inf(1), math.Inf(1)
					}
					if iter%2 == 0 {
						src = candCmpSorted(src, opts.countIndexed)
					}
					step := func(o vgOptions) ([]vgCand, *linkTab, vgStats) {
						var st vgStats
						o.stats, o.scratch, o.ins = &st, &nodeScratch{}, newInsLib(lib)
						list, err := insertAndPrune(7, slices.Clone(src), true, o)
						if err != nil {
							t.Fatal(err)
						}
						return list, linkAll(o.scratch, list, nil, nil), st
					}
					ref := opts
					ref.dp.classicMerge = true
					got, gotTab, gotSt := step(opts)
					want, wantTab, wantSt := step(ref)
					err := sameInsertion(got, gotTab, want, wantTab)
					if err == nil && gotSt != wantSt {
						err = fmt.Errorf("stats %+v, reference %+v", gotSt, wantSt)
					}
					if err != nil {
						t.Fatalf("shape %d, library %d, profile %d, iteration %d (%d sources): %v",
							shape, li, pi, iter, len(src), err)
					}
				}
			}
		}
	}
}

// countRuns returns the number of ascending candCmp runs in list.
func countRuns(list []vgCand, countIndexed bool) int {
	runs := min(len(list), 1)
	for i := 1; i < len(list); i++ {
		if candCmp(&list[i], &list[i-1], countIndexed) < 0 {
			runs++
		}
	}
	return runs
}

// TestChargeWidthsKeepsRuns pins the wire-sizing list's shape: charging
// a pruned list at k widths must hand the prune at most k runs, one per
// width, so sizing cannot quietly bring back a many-run list.
func TestChargeWidthsKeepsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	widths := []float64{1, 2, 4}
	w := rctree.Wire{R: 0.5, C: 0.75}
	for _, prof := range pruneProfiles() {
		opts := prof.opts
		opts.scratch = &nodeScratch{}
		for iter := 0; iter < 200; iter++ {
			list, err := pruneVG(randCandList(rng, 1+rng.Intn(150), "w"), opts)
			if err != nil {
				t.Fatal(err)
			}
			sized := chargeWidths(nil, list, 3, w, 0.125, widths, opts)
			if got := countRuns(sized, opts.countIndexed); got > len(widths) {
				t.Fatalf("%s, iteration %d: %d candidates at %d widths arrive as %d runs",
					prof.name, iter, len(list), len(widths), got)
			}
		}
	}
}

// frontierList builds a pruned-looking list: per parity, a strict
// staircase of n candidates (load and slack both ascending), sorted by
// candCmp as a pruned list is.
func frontierList(rng *rand.Rand, n int) []vgCand {
	var list []vgCand
	for pol := uint8(0); pol < 2; pol++ {
		load, q := 1e-15, -1e-9
		for i := 0; i < n; i++ {
			load += (1 + rng.Float64()) * 1e-15
			q += (1 + rng.Float64()) * 1e-12
			list = append(list, vgCand{load: load, q: q, down: 1e-4 * rng.Float64(), ns: 0.8,
				nbuf: rng.Intn(6), cost: rng.Intn(6), pol: pol, kind: 1, node: rctree.NodeID(i)})
		}
	}
	return list
}

// BenchmarkPruneVG times the node step's prune on the input shapes of a
// Section V noise run: a chain node (a pruned list plus insertBuffers'
// winners, two runs), a branch node as the DP prunes it (the Li–Shi
// walk's pairs, one run per group pair, plus the winners the pair scan
// picks from the whole pair space, one run), the cross product of the
// same two lists (safe pruning's and the reference's branch node, one
// run per left candidate), a wire-sized list (a pruned list charged at
// widths 1, 2 and 4, one run per width) and the reverse-sorted worst
// case.
func BenchmarkPruneVG(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	lib := buffers.DefaultLibrary(0.8)
	opts := vgOptions{noise: true, scratch: &nodeScratch{}, ins: newInsLib(lib)}

	chain := frontierList(rng, 30)
	chain = insertBuffers(7, chain, chain, opts, false)
	left, right := frontierList(rng, 10), frontierList(rng, 10)
	walk, err := lishiMerge(left, right, opts)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := pairSources(opts.scratch, left, right, opts)
	if err != nil {
		b.Fatal(err)
	}
	walk = insertBuffers(7, walk, pairs, opts, false)
	cross, err := mergeVG(left, right, opts)
	if err != nil {
		b.Fatal(err)
	}
	sized := chargeWidths(nil, frontierList(rng, 30), 3, rctree.Wire{R: 50, C: 5e-15}, 1e-4, []float64{1, 2, 4}, opts)
	reverse := reverseSorted(slices.Clone(chain), false)

	for _, sh := range []struct {
		name string
		src  []vgCand
	}{{"chain", chain}, {"walk-branch", walk}, {"cross-branch", cross}, {"sized", sized}, {"reverse", reverse}} {
		b.Run(fmt.Sprintf("%s/n=%d", sh.name, len(sh.src)), func(b *testing.B) {
			work := make([]vgCand, len(sh.src))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, sh.src)
				if _, err := pruneVG(work, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChainStep times a chain buffer site's whole node step,
// insertAndPrune: Step 5 on the node's own list, then the prune. The list
// is huge_net-shaped — a pruned staircase of ~80 sources charged with its
// wire, in candCmp order as a chain node receives it — and the library is
// the Section V one, in delay, noise and count-indexed noise (the Section
// V ladder's) modes.
func BenchmarkChainStep(b *testing.B) {
	lib := buffers.DefaultLibrary(0.8)
	base := hullSources(rand.New(rand.NewSource(23)), 80, 1)
	for _, mode := range []struct {
		name string
		opts vgOptions
	}{{"delay", vgOptions{}}, {"noise", vgOptions{noise: true}}, {"noise-ci", vgOptions{noise: true, countIndexed: true}}} {
		opts := mode.opts
		opts.scratch, opts.ins = &nodeScratch{}, newInsLib(lib)
		src := slices.Clone(base)
		if opts.countIndexed {
			for i := range src {
				src[i].down *= 50
			}
		}
		slices.SortFunc(src, func(a, b vgCand) int { return candCmp(&a, &b, opts.countIndexed) })
		b.Run(fmt.Sprintf("%s/n=%d", mode.name, len(src)), func(b *testing.B) {
			// Room for every winner: count-indexed, one per cost rank.
			work := make([]vgCand, 0, 4*len(src))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work = append(work[:0], src...)
				if _, err := insertAndPrune(7, work, true, opts); err != nil {
					b.Fatal(err)
				}
				opts.scratch.srcs = opts.scratch.srcs[:0]
			}
		})
	}
}
