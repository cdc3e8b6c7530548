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

// insertBuffers' slot-major path (insertHull) must pick, for every
// buffer type and slot, the same source with the same slack as the full
// scan the reference override runs, emit the same list after its sort,
// and make the same links: in delay-only runs, where the hull filter
// (hullKeep) may only drop sources that cannot win, and under noise
// constraints, where each type admits only the sources with R·I ≤ NS.
// These tests difference the two on adversarial source lists.

// hullSources builds an n-source list of one of several adversarial
// shapes, in src order a chain or branch node could present.
func hullSources(rng *rand.Rand, n, shape int) []vgCand {
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
	// Each source's own pending row, at a node of its own, is its
	// witness: a winner's link names the source it was built on.
	for i := range list {
		list[i].kind, list[i].node = 1, rctree.NodeID(i)
	}
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	return list
}

// noiseFields gives src's sources currents and noise slacks whose
// admission is adversarial for lib: NS exactly fl(R·I) for a library R
// (the type admits it, on the boundary) or one ulp either side of it,
// I = 0, NS < 0, and ordinary values, at ordinary, unit and subnormal
// scales. With hostile set it also mixes in NaN, infinite and negative I
// or NS and magnitudes past hullMag, where rounding no longer orders the
// types' admitted sets and only the scan's own test may decide.
func noiseFields(rng *rand.Rand, src []vgCand, lib *buffers.Library, hostile bool) {
	scale := []float64{1e-4, 1, 0x1p-1060}[rng.Intn(3)]
	for i := range src {
		c := &src[i]
		r := lib.Buffers[rng.Intn(len(lib.Buffers))].R
		c.down = float64(1+rng.Intn(64)) * scale
		switch rng.Intn(8) {
		case 0, 1:
			c.ns = r * c.down
		case 2:
			c.ns = math.Nextafter(r*c.down, math.Inf(-1))
		case 3:
			c.ns = math.Nextafter(r*c.down, math.Inf(1))
		case 4:
			c.down, c.ns = 0, float64(rng.Intn(3)-1)*0.5
		case 5:
			c.ns = -rng.Float64() * scale
		default:
			c.ns = 2 * rng.Float64() * r * c.down
		}
		if hostile && rng.Intn(8) == 0 {
			switch rng.Intn(7) {
			case 0:
				c.down = math.NaN()
			case 1:
				c.down = -c.down - scale
			case 2:
				c.down = math.Inf(1)
			case 3:
				c.ns = math.NaN()
			case 4:
				c.ns = math.Inf(2*rng.Intn(2) - 1)
			case 5:
				c.down = 1e300
			default:
				c.ns = -1e300
			}
		}
	}
}

// hullProfiles are the option sets insertHull runs under: delay-only,
// then the same three under noise constraints.
func hullProfiles() []vgOptions {
	return []vgOptions{
		{},
		{countIndexed: true},
		{countIndexed: true, maxBuffers: 4},
		{noise: true},
		{noise: true, countIndexed: true},
		{noise: true, countIndexed: true, maxBuffers: 4},
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
	type insWin struct{ buf, src int }
	run := func(o vgOptions) ([]vgCand, *linkTab, []insWin, vgStats) {
		var st vgStats
		o.stats, o.scratch, o.ins = &st, &nodeScratch{}, newInsLib(lib)
		list := slices.Clone(src)
		list = insertBuffers(7, list, list, o)
		tab := linkAll(o.scratch, list, nil, nil)
		// A winner's buffer is its pending row's kind, and its source the
		// node of the source row it is built on (hullSources).
		var wins []insWin
		for _, c := range list[len(src):] {
			wins = append(wins, insWin{int(c.kind) - 1, int(tab.row(c.sol).node)})
		}
		return list, tab, wins, st
	}
	full := opts
	full.dp.classicMerge = true
	got, gotTab, gotWins, gotSt := run(opts)
	want, wantTab, wantWins, wantSt := run(full)
	if gotSt != wantSt {
		return fmt.Errorf("stats %+v, full scan %+v", gotSt, wantSt)
	}
	if !slices.Equal(gotWins, wantWins) {
		return fmt.Errorf("winners (buffer, source) %v, full scan %v", gotWins, wantWins)
	}
	return sameInsertion(got, gotTab, want, wantTab)
}

// TestInsertWinnersMatchFullScan differences insertHull against the full
// scan on 400 lists per shape, library and profile; in the noise
// profiles a quarter of the lists carry hostile currents or noise slacks.
func TestInsertWinnersMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	libs := hullLibraries(rng)
	for shape := 0; shape < 7; shape++ {
		for li, lib := range libs {
			for pi, opts := range hullProfiles() {
				for iter := 0; iter < 400; iter++ {
					src := hullSources(rng, rng.Intn(90), shape)
					if opts.noise {
						noiseFields(rng, src, lib, iter%4 == 3)
					}
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
// one candCmp run, so the sort after it is a single scan — in noise runs
// too, count-indexed with equal costs as the Section V ladder runs.
func TestInsertHullEmitsSortedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	libs := hullLibraries(rng)
	lib := libs[len(libs)-1]
	for _, opts := range hullProfiles() {
		sc := &nodeScratch{}
		opts.ins = newInsLib(lib)
		for iter := 0; iter < 500; iter++ {
			src := hullSources(rng, rng.Intn(60), 4)
			if opts.noise {
				noiseFields(rng, src, lib, iter%4 == 3)
			}
			slots := sc.index(src, opts.countIndexed)
			tail := sc.insertHull(nil, src, opts, len(slots))
			sc.srcs = sc.srcs[:0]
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
	in := newInsLib(lib)
	if !in.filter {
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
	kept := sc.hullKeep(src, slices.Clone(idx), in.hb)
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

// FuzzInsertWinners differences insertHull against the full scan on
// fuzzed shapes, sizes, libraries and profiles (make hullfuzz); in the
// noise profiles with adversarial currents and noise slacks, hostile on
// odd seeds.
func FuzzInsertWinners(f *testing.F) {
	for shape := 0; shape < 7; shape++ {
		f.Add(int64(shape), uint8(shape), uint8(40), uint8(shape), uint8(shape))
		f.Add(int64(shape+7), uint8(shape), uint8(60), uint8(shape), uint8(3+shape%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, n, li, pi uint8) {
		rng := rand.New(rand.NewSource(seed))
		libs := hullLibraries(rng)
		profiles := hullProfiles()
		src := hullSources(rng, int(n%128), int(shape))
		lib, opts := libs[int(li)%len(libs)], profiles[int(pi)%len(profiles)]
		if opts.noise {
			noiseFields(rng, src, lib, seed%2 != 0)
		}
		if err := diffInsertWinners(src, lib, opts); err != nil {
			t.Fatalf("%d sources: %v", len(src), err)
		}
	})
}

// BenchmarkInsertBuffers times Step 5 on a chain node's list (a pruned
// staircase charged with its wire) and on a branch node's sources (the
// Li–Shi walk's pairs in delay mode, the whole pair space in noise mode),
// with the Section V library. The noise-ci mode is the Section V ladder's
// configuration, count-indexed under noise constraints, on lists whose
// currents spread the sources over several admission levels.
func BenchmarkInsertBuffers(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	lib := buffers.DefaultLibrary(0.8)
	chain := hullSources(rand.New(rand.NewSource(23)), 80, 1)
	left, right := frontierList(rng, 10), frontierList(rng, 10)
	for _, mode := range []struct {
		name string
		opts vgOptions
	}{{"delay", vgOptions{}}, {"noise", vgOptions{noise: true}}, {"noise-ci", vgOptions{noise: true, countIndexed: true}}} {
		opts := mode.opts
		opts.scratch, opts.ins = &nodeScratch{}, newInsLib(lib)
		chain, left, right := slices.Clone(chain), slices.Clone(left), slices.Clone(right)
		for _, l := range [][]vgCand{chain, left, right} {
			if opts.countIndexed {
				for i := range l {
					l[i].down *= 50
				}
			}
			slices.SortFunc(l, func(a, b vgCand) int { return candCmp(&a, &b, opts.countIndexed) })
		}
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
					insertBuffers(7, list, sh.src, opts)
					opts.scratch.srcs = opts.scratch.srcs[:0]
				}
			})
		}
	}
}
