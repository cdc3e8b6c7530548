package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// The hull filter (hullKeep) may only drop sources that cannot win, so a
// delay-only insertBuffers must pick, for every buffer type and slot, the
// same source with the same slack as the full scan the reference
// override runs, emit the same list after its sort, and make the same
// links. These tests difference the two on adversarial source lists.

// hullSources builds an n-source list of one of several adversarial
// shapes, in src order a chain or branch node could present.
func hullSources(rng *rand.Rand, n, shape int) []vgCand {
	link := func(i int) *solLink {
		return &solLink{buf: &buffers.Buffer{Name: fmt.Sprintf("s%d", i)}}
	}
	var list []vgCand
	switch shape % 7 {
	case 0:
		// Grid values: equal loads and exact slack ties everywhere.
		list = randCandList(rng, n, "g")
	case 1:
		// A pruned staircase charged with a wire, as a chain node's list
		// arrives: loads ascending, slacks no longer monotone.
		list = frontierList(rng, 1+n/2)
		w := rctree.Wire{R: 20 + 200*rng.Float64(), C: 1e-14 * rng.Float64()}
		for i := range list {
			c := &list[i]
			c.q -= w.R * (w.C/2 + c.load)
			c.load += w.C
		}
	case 2:
		// Near-collinear: points on lines whose slope is a grid library's
		// R, so every middle point is exactly on its chord, and some
		// nudged one ulp either way.
		for i := 0; i < n; i++ {
			slope := float64(1+rng.Intn(4)) * 0.25
			c := float64(rng.Intn(40)) * 0.25
			q := 3 + slope*c
			switch rng.Intn(3) {
			case 0:
				q = math.Nextafter(q, math.Inf(1))
			case 1:
				q = math.Nextafter(q, math.Inf(-1))
			}
			list = append(list, vgCand{load: c, q: q, cost: rng.Intn(3), nbuf: rng.Intn(3), pol: uint8(rng.Intn(2))})
		}
	case 3:
		// Equal loads with slacks one ulp apart.
		for i := 0; i < n; i++ {
			c := float64(1+rng.Intn(4)) * 1e-14
			q := -1e-9
			for k := rng.Intn(3); k > 0; k-- {
				q = math.Nextafter(q, 0)
			}
			list = append(list, vgCand{load: c, q: q, cost: rng.Intn(3), nbuf: rng.Intn(3), pol: uint8(rng.Intn(2))})
		}
	case 4:
		// Realistic magnitudes in no particular order, as a count-indexed
		// branch node's walk emits them.
		for i := 0; i < n; i++ {
			list = append(list, vgCand{
				load: (1 + 100*rng.Float64()) * 1e-15,
				q:    (rng.Float64() - 0.9) * 1e-9,
				cost: rng.Intn(6), nbuf: rng.Intn(6), pol: uint8(rng.Intn(2)),
			})
		}
	case 5:
		// Magnitudes past the filter's bound, infinities and NaN among
		// ordinary sources: those slots must be scanned whole.
		for i := 0; i < n; i++ {
			c, q := float64(1+rng.Intn(8)), float64(rng.Intn(16))
			switch rng.Intn(6) {
			case 0:
				q = 1e300 * float64(rng.Intn(3)-1)
			case 1:
				c = 1e200
			case 2:
				q = math.Inf(-1)
			case 3:
				q = math.NaN()
			}
			list = append(list, vgCand{load: c, q: q, cost: rng.Intn(3), pol: uint8(rng.Intn(2))})
		}
	default:
		// Subnormal loads and slacks.
		for i := 0; i < n; i++ {
			list = append(list, vgCand{
				load: float64(rng.Intn(8)) * 0x1p-1070,
				q:    float64(rng.Intn(8)-4) * 0x1p-1072,
				cost: rng.Intn(3), pol: uint8(rng.Intn(2)),
			})
		}
	}
	for i := range list {
		list[i].sol = link(i)
	}
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	return list
}

// hullProfiles are the delay-only option sets the filter runs under.
func hullProfiles() []vgOptions {
	return []vgOptions{
		{},
		{countIndexed: true},
		{countIndexed: true, maxBuffers: 4},
	}
}

// hullLibraries are insertLibraries plus a grid library whose distinct
// Cin give the sorted emission a single run to check.
func hullLibraries(rng *rand.Rand) []*buffers.Library {
	var libs []*buffers.Library
	for _, l := range insertLibraries(rng) {
		libs = append(libs, l.lib)
	}
	distinct := &buffers.Library{}
	for i, cin := range rng.Perm(6) {
		distinct.Buffers = append(distinct.Buffers, buffers.Buffer{
			Name: fmt.Sprintf("D%d", i), Cin: float64(1+cin) * 0.25,
			R: float64(1+rng.Intn(4)) * 0.25, T: float64(rng.Intn(4)) * 0.25,
			Inverting: i%2 == 1,
		})
	}
	return append(libs, distinct)
}

// diffInsertWinners runs insertBuffers filtered and as a full scan on
// copies of src and reports the first difference: the winners' values
// and order after the sort, each winner's buffer type and source index,
// the generated count and, once linked, every link.
func diffInsertWinners(src []vgCand, lib *buffers.Library, opts vgOptions) error {
	run := func(o vgOptions) ([]vgCand, []insWin, vgStats) {
		var st vgStats
		o.stats, o.scratch = &st, &nodeScratch{}
		list := slices.Clone(src)
		list = insertBuffers(list, list, lib, o)
		var wins []insWin
		for _, c := range list[len(src):] {
			wins = append(wins, o.scratch.wins[c.ins-1])
		}
		o.scratch.linkInserted(7, list, lib, nil, nil)
		return list, wins, st
	}
	full := opts
	full.dp.classicMerge = true
	got, gotWins, gotSt := run(opts)
	want, wantWins, wantSt := run(full)
	if gotSt != wantSt {
		return fmt.Errorf("stats %+v, full scan %+v", gotSt, wantSt)
	}
	if !slices.Equal(gotWins, wantWins) {
		return fmt.Errorf("winners (buffer, source) %v, full scan %v", gotWins, wantWins)
	}
	return sameInsertion(got, want)
}

// TestInsertWinnersMatchFullScan differences the filter against the full
// scan on 400 lists per shape, library and delay-only profile.
func TestInsertWinnersMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	libs := hullLibraries(rng)
	for shape := 0; shape < 7; shape++ {
		for li, lib := range libs {
			for pi, opts := range hullProfiles() {
				for iter := 0; iter < 400; iter++ {
					src := hullSources(rng, rng.Intn(90), shape)
					if err := diffInsertWinners(src, lib, opts); err != nil {
						t.Fatalf("shape %d, library %d, profile %d, iteration %d (%d sources): %v",
							shape, li, pi, iter, len(src), err)
					}
				}
			}
		}
	}
}

// TestInsertHullEmitsSortedRun checks the sorted emission: with distinct
// Cin, no count index or equal costs, the winners leave insertHull as
// one candCmp run, so the sort after it is a single scan.
func TestInsertHullEmitsSortedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	libs := hullLibraries(rng)
	lib := libs[len(libs)-1]
	for _, opts := range []vgOptions{{}, {countIndexed: true}, {countIndexed: true, maxBuffers: 5}} {
		sc := &nodeScratch{}
		for iter := 0; iter < 500; iter++ {
			src := hullSources(rng, rng.Intn(60), 4)
			slots := sc.index(src, opts.countIndexed)
			sc.wins = sc.wins[:0]
			tail := sc.insertHull(nil, src, lib, opts, len(slots))
			if runs := countRuns(tail, opts.countIndexed); runs > 1 {
				t.Fatalf("%+v, iteration %d: %d winners arrive as %d runs", opts, iter, len(tail), runs)
			}
		}
	}
}

// TestHullKeepDrops pins that the filter filters: on a wire-charged
// staircase of 40 sources per parity, the Section V library's winners
// come from a few hull vertices, and hullKeep keeps those and drops most
// of the rest.
func TestHullKeepDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lib := buffers.DefaultLibrary(0.8)
	hb, ok := boundsOf(lib)
	if !ok {
		t.Fatal("the Section V library is outside the filter's bounds")
	}
	src := hullSources(rng, 80, 1)
	sc := &nodeScratch{}
	sc.gone = make([]bool, len(src))
	var idx []int
	for i := range src {
		if src[i].pol == 0 {
			idx = append(idx, i)
		}
	}
	kept := sc.hullKeep(src, slices.Clone(idx), hb)
	if len(kept) == 0 || len(kept) > len(idx)/2 {
		t.Fatalf("hullKeep kept %d of %d sources", len(kept), len(idx))
	}
	// Every type's best source is among the kept ones.
	for _, b := range lib.Buffers {
		best := idx[0]
		for _, i := range idx {
			if src[i].q-b.Delay(src[i].load) > src[best].q-b.Delay(src[best].load) {
				best = i
			}
		}
		if !slices.Contains(kept, best) {
			t.Fatalf("%s's best source %d was dropped", b.Name, best)
		}
	}
}

// FuzzInsertWinners differences the filter against the full scan on
// fuzzed shapes, sizes, libraries and profiles (make hullfuzz).
func FuzzInsertWinners(f *testing.F) {
	for shape := 0; shape < 7; shape++ {
		f.Add(int64(shape), uint8(shape), uint8(40), uint8(shape), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, n, li, pi uint8) {
		rng := rand.New(rand.NewSource(seed))
		libs := hullLibraries(rng)
		profiles := hullProfiles()
		src := hullSources(rng, int(n%128), int(shape))
		lib, opts := libs[int(li)%len(libs)], profiles[int(pi)%len(profiles)]
		if err := diffInsertWinners(src, lib, opts); err != nil {
			t.Fatalf("%d sources: %v", len(src), err)
		}
	})
}

// BenchmarkInsertBuffers times Step 5 on a chain node's list (a pruned
// staircase charged with its wire) and on a branch node's sources (the
// Li–Shi walk's pairs in delay mode, the whole pair space in noise mode),
// with the Section V library.
func BenchmarkInsertBuffers(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	lib := buffers.DefaultLibrary(0.8)
	chain := hullSources(rand.New(rand.NewSource(23)), 80, 1)
	slices.SortFunc(chain, func(a, b vgCand) int { return candCmp(&a, &b, false) })
	left, right := frontierList(rng, 10), frontierList(rng, 10)
	for _, mode := range []struct {
		name string
		opts vgOptions
	}{{"delay", vgOptions{}}, {"noise", vgOptions{noise: true}}} {
		opts := mode.opts
		opts.scratch = &nodeScratch{}
		walk, err := lishiMerge(left, right, opts)
		if err != nil {
			b.Fatal(err)
		}
		branch := walk
		if opts.noise {
			if err := opts.scratch.pairSources(left, right, opts); err != nil {
				b.Fatal(err)
			}
			branch = slices.Clone(opts.scratch.pairs)
		}
		for _, sh := range []struct {
			name string
			src  []vgCand
		}{{"chain", chain}, {"branch", branch}} {
			b.Run(fmt.Sprintf("%s/%s/n=%d", mode.name, sh.name, len(sh.src)), func(b *testing.B) {
				list := make([]vgCand, 0, len(walk)+4*len(lib.Buffers))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					insertBuffers(list, sh.src, lib, opts)
				}
			})
		}
	}
}
