package core

import (
	"fmt"
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
// warm scratch, on a reverse-sorted list — the worst case for the merge
// buffer — in every pruning profile, and checks that the prune used
// opts.scratch's buffer.
func TestPruneVGAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, prof := range pruneProfiles() {
		opts := prof.opts
		opts.scratch = &nodeScratch{}
		src := reverseSorted(randCandList(rng, 200, "a"), opts.countIndexed)
		work := make([]vgCand, len(src))
		got := testing.AllocsPerRun(100, func() {
			copy(work, src)
			if _, err := pruneVG(work, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("%s: pruneVG allocates %v per call with warm scratch", prof.name, got)
		}
		if cap(opts.scratch.buf) == 0 {
			t.Fatalf("%s: a reverse-sorted list was pruned without the merge buffer", prof.name)
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
	chain = insertBuffers(7, chain, chain, opts)
	left, right := frontierList(rng, 10), frontierList(rng, 10)
	walk, err := lishiMerge(left, right, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := opts.scratch.pairSources(left, right, opts); err != nil {
		b.Fatal(err)
	}
	walk = insertBuffers(7, walk, opts.scratch.pairs, opts)
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
