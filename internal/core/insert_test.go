package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// The oracle for buffer insertion: the map-keyed implementation that
// insertBuffers' slot table replaced, kept here unchanged but for the
// link, which is now the winner's pending row (its buffer at the node)
// built on its source's solution or the source's own row, and for its
// emission order, which is now the prune's (candCmp, then buffer index).
// The slot table, with the link pass writing the rows it defers, must
// emit the same candidates, in the same order, with the same witnesses —
// identical rows (node, kind, prev) — on every list, so nothing
// downstream of Step 5 can tell the two apart.

// insertBuffersRef appends buffered candidates at node v to list: for each
// buffer type (and, in count-indexed mode, each resulting buffer count and
// each parity) the candidate producing the largest post-buffer slack,
// subject to the noise constraint R_b·I(v) ≤ NS(v) when noise is enforced
// — the boldface modification of Fig. 11, Step 5. The appended candidates
// are emitted in a deterministic total order — candCmp, then buffer
// index — never map order, so repeated runs and parallel schedules see
// byte-identical lists. Each winner's source row, when the source has a
// pending one, is written to seg once per source.
func insertBuffersRef(v rctree.NodeID, list []vgCand, lib *buffers.Library, opts vgOptions, seg *linkSeg) []vgCand {
	type key struct {
		buf  int
		pol  uint8
		cost int
	}
	type win struct {
		c   vgCand
		src int
	}
	best := map[key]win{}
	for bi, b := range lib.Buffers {
		for si, c := range list {
			if opts.noise && b.R*c.down > c.ns {
				continue // inserting here would violate downstream noise
			}
			if opts.countIndexed && opts.maxBuffers > 0 && c.cost+b.Cost() > opts.maxBuffers {
				continue
			}
			q := c.q - b.Delay(c.load)
			k := key{buf: bi, pol: c.pol}
			if b.Inverting {
				k.pol ^= 1
			}
			if opts.countIndexed {
				k.cost = c.cost + b.Cost()
			}
			// Acceptance is value-canonical: on an exact slack tie the
			// cheaper (then smaller) solution wins, never the one that
			// happened to be scanned first. The classic and Li–Shi merges
			// emit candidates in different orders, so a first-wins rule
			// would make the selected cost/nbuf depend on the engine.
			cur, ok := best[k]
			better := !ok || q > cur.c.q
			if !better && q == cur.c.q {
				nc := c.cost + b.Cost()
				better = nc < cur.c.cost || (nc == cur.c.cost && c.nbuf+1 < cur.c.nbuf)
			}
			if better {
				best[k] = win{vgCand{
					load: b.Cin,
					q:    q,
					down: 0,
					ns:   b.NoiseMargin,
					nbuf: c.nbuf + 1,
					cost: c.cost + b.Cost(),
					pol:  k.pol,
					kind: bufKind(bi),
					node: v,
				}, si}
			}
		}
	}
	if len(best) == 0 {
		return list
	}
	keys := make([]key, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		ca, cb := best[a].c, best[b].c
		if c := candCmp(&ca, &cb, opts.countIndexed); c != 0 {
			return c
		}
		return cmp.Compare(a.buf, b.buf)
	})
	srcRow := map[int]int32{}
	for _, k := range keys {
		w := best[k]
		src := list[w.src]
		w.c.sol = src.sol
		if src.kind != 0 {
			r, ok := srcRow[w.src]
			if !ok {
				r = seg.add(solRow{node: src.node, kind: src.kind, prev: [2]int32{src.sol, 0}})
				srcRow[w.src] = r
			}
			w.c.sol = r
		}
		list = append(list, w.c)
	}
	if opts.stats != nil {
		opts.stats.generated += int64(len(best))
	}
	return list
}

// insertLibraries are the libraries the oracle runs against: the Section V
// library (11 types, 5 of them inverting), its non-inverting half, and
// grid-valued libraries whose delays land exact slack ties on the grid
// lists of randCandList — one with small Problem 3 weights and one whose
// weights spread costs too far for the dense cost rank.
func insertLibraries(rng *rand.Rand) []struct {
	name string
	lib  *buffers.Library
} {
	grid := func(n, maxWeight int) *buffers.Library {
		l := &buffers.Library{}
		for i := 0; i < n; i++ {
			l.Buffers = append(l.Buffers, buffers.Buffer{
				Name:        fmt.Sprintf("G%d", i),
				Cin:         float64(1+rng.Intn(8)) * 0.25,
				R:           float64(1+rng.Intn(4)) * 0.25,
				T:           float64(rng.Intn(4)) * 0.25,
				NoiseMargin: float64(rng.Intn(10)) * 0.5,
				Inverting:   rng.Intn(3) == 0,
				Weight:      rng.Intn(maxWeight + 1),
			})
		}
		return l
	}
	sectionV := buffers.DefaultLibrary(0.8)
	return []struct {
		name string
		lib  *buffers.Library
	}{
		{"sectionV", sectionV},
		{"sectionV-noninverting", sectionV.NonInverting()},
		{"grid-weighted", grid(6, 3)},
		{"grid-wide-weights", grid(5, 1000)},
	}
}

// insertProfiles are the option sets the oracle covers: noise on and off,
// count-indexed with and without a maxBuffers cap.
func insertProfiles() []struct {
	name string
	opts vgOptions
} {
	return []struct {
		name string
		opts vgOptions
	}{
		{"delay", vgOptions{}},
		{"noise", vgOptions{noise: true}},
		{"count", vgOptions{countIndexed: true}},
		{"count-capped", vgOptions{countIndexed: true, maxBuffers: 6}},
		{"noise-count", vgOptions{noise: true, countIndexed: true}},
		{"noise-count-capped", vgOptions{noise: true, countIndexed: true, maxBuffers: 4}},
	}
}

// withForcedTies appends copies of random candidates that keep their load
// and slack — so every buffer type sees an exact post-buffer slack tie —
// but change cost and buffer count, or keep them too (a full-value tie,
// where only scan order separates the witnesses). Each copy gets its own
// pending row.
func withForcedTies(rng *rand.Rand, list []vgCand) []vgCand {
	n := len(list)
	for k := 0; k < n/3; k++ {
		c := list[rng.Intn(n)]
		switch rng.Intn(3) {
		case 0:
			c.cost = rng.Intn(6)
		case 1:
			c.nbuf = rng.Intn(6)
		}
		c.kind, c.node = 1, rctree.NodeID(1<<24+k)
		list = append(list, c)
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// headRow is candidate c's latest decision as a row: its pending row if
// it has one, else the row its sol names (false for no row at all).
func headRow(tab *linkTab, c vgCand) (solRow, bool) {
	if c.kind != 0 {
		return solRow{node: c.node, kind: c.kind, prev: [2]int32{c.sol, 0}}, true
	}
	if c.sol == 0 {
		return solRow{}, false
	}
	return *tab.row(c.sol), true
}

// sameLink reports whether candidates a (rows in ta) and b (rows in tb)
// carry the same decisions in the same shape, whether a decision is
// still pending or written, and wherever in their tables the rows sit.
func sameLink(ta *linkTab, a vgCand, tb *linkTab, b vgCand) bool {
	var same func(x, y solRow) bool
	sameRef := func(x, y int32) bool {
		if x == 0 || y == 0 {
			return x == y
		}
		return same(*ta.row(x), *tb.row(y))
	}
	same = func(x, y solRow) bool {
		return x.node == y.node && x.kind == y.kind && sameRef(x.prev[0], y.prev[0]) && sameRef(x.prev[1], y.prev[1])
	}
	ra, oka := headRow(ta, a)
	rb, okb := headRow(tb, b)
	if !oka || !okb {
		return oka == okb
	}
	return same(ra, rb)
}

// linkOf describes candidate c's solution as tab holds it, for failure
// messages: its pending row, if it has one, then every row its sol
// reaches, depth first, each written as a row would be.
func linkOf(tab *linkTab, c vgCand) string {
	var b strings.Builder
	row := func(node rctree.NodeID, kind int16) { fmt.Fprintf(&b, "(%d:%d ", node, kind) }
	var ref func(r int32)
	ref = func(r int32) {
		if r == 0 {
			b.WriteString("-")
			return
		}
		rw := tab.row(r)
		row(rw.node, rw.kind)
		ref(rw.prev[0])
		b.WriteByte(' ')
		ref(rw.prev[1])
		b.WriteByte(')')
	}
	if c.kind != 0 {
		row(c.node, c.kind)
		ref(c.sol)
		b.WriteString(" -)")
		return b.String()
	}
	ref(c.sol)
	return b.String()
}

// linkAll runs sc's link pass over list — a branch node's when left and
// right are set — into a fresh table, and returns the table.
func linkAll(sc *nodeScratch, list, left, right []vgCand) *linkTab {
	tab := &linkTab{}
	seg := tab.seg(0)
	sc.link(list, left, right, &seg)
	tab.segs[0] = seg
	return tab
}

// sameInsertion reports the first difference between two insertion
// outputs, got's links in gotTab and want's in wantTab: every candidate
// bit-identical, and every link the same decisions on the same sources.
func sameInsertion(got []vgCand, gotTab *linkTab, want []vgCand, wantTab *linkTab) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.load) != math.Float64bits(w.load) ||
			math.Float64bits(g.q) != math.Float64bits(w.q) ||
			math.Float64bits(g.down) != math.Float64bits(w.down) ||
			math.Float64bits(g.ns) != math.Float64bits(w.ns) ||
			g.nbuf != w.nbuf || g.cost != w.cost || g.pol != w.pol || g.via != w.via {
			return fmt.Errorf("candidate %d = %+v, want %+v", i, g, w)
		}
		if !sameLink(gotTab, g, wantTab, w) {
			return fmt.Errorf("candidate %d link = %s, want %s", i, linkOf(gotTab, g), linkOf(wantTab, w))
		}
	}
	return nil
}

// TestInsertBuffersMatchesReference runs the slot table against the
// map-keyed reference on 1 000 seeded lists per library and profile —
// half with forced ties, a fifth with costs spread past the dense rank —
// with one nodeScratch reused throughout so stale slots would show.
func TestInsertBuffersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	libs := insertLibraries(rng)
	profiles := insertProfiles()
	sc := &nodeScratch{}
	for _, lb := range libs {
		for _, pr := range profiles {
			t.Run(lb.name+"/"+pr.name, func(t *testing.T) {
				for iter := 0; iter < 1000; iter++ {
					list := randCandList(rng, rng.Intn(60), "c")
					if iter%5 == 4 {
						// Costs too spread for the dense rank.
						for i := range list {
							list[i].cost *= 997
						}
					}
					if iter%2 == 0 {
						list = withForcedTies(rng, list)
					}
					v := rctree.NodeID(1 + rng.Intn(100))
					var wantStats, gotStats vgStats
					ref := pr.opts
					ref.stats = &wantStats
					wantTab := &linkTab{}
					wantSeg := wantTab.seg(0)
					want := insertBuffersRef(v, slices.Clone(list), lb.lib, ref, &wantSeg)
					wantTab.segs[0] = wantSeg
					opts := pr.opts
					opts.stats, opts.scratch, opts.ins = &gotStats, sc, newInsLib(lb.lib)
					got := slices.Clone(list)
					got = insertBuffers(v, got, got, opts, false)
					gotTab := linkAll(sc, got, nil, nil)
					if err := sameInsertion(got, gotTab, want, wantTab); err != nil {
						t.Fatalf("iteration %d (%d candidates): %v", iter, len(list), err)
					}
					// The winners arrive as one sorted run, so a chain
					// node's prune merges exactly two.
					for i := len(list) + 1; i < len(got); i++ {
						if candCmp(&got[i], &got[i-1], pr.opts.countIndexed) < 0 {
							t.Fatalf("iteration %d: appended tail breaks its run at %d", iter, i)
						}
					}
					if gotStats != wantStats {
						t.Fatalf("iteration %d: stats %+v, want %+v", iter, gotStats, wantStats)
					}
				}
			})
		}
	}
}

// insertAllocSlack is what buffer insertion and the link pass may
// allocate per call with warm scratch and a warm table segment: nothing,
// however many winners they emit and link.
const insertAllocSlack = 0

// TestInsertBuffersAllocBudget pins buffer insertion's allocations: on a
// fixed 200-candidate list with room for the winners and the 11-type
// Section V library, with warm scratch and a warm link table segment,
// insertBuffers and the link pass together allocate at most
// insertAllocSlack — nothing per scanned candidate, and nothing per
// winner either: every source has a pending row, so each winner's
// source row is written, into the segment's capacity. (In a run, the
// link pass sees the list after the prune, so only the winners the prune
// keeps get a row.) Both groupings are held to it: the counting sort on
// the list as built, the slot ranges on its candCmp-sorted copy. So is a
// noise-mode branch node's insertion, pair forming and the link pass of
// both sides included.
func TestInsertBuffersAllocBudget(t *testing.T) {
	lib := buffers.DefaultLibrary(0.8)
	for _, pr := range insertProfiles() {
		t.Run(pr.name, func(t *testing.T) {
			if pr.opts.noise {
				t.Run("branch", func(t *testing.T) { branchAllocs(t, lib, pr.opts) })
			}
			for _, sorted := range []bool{false, true} {
				t.Run(fmt.Sprintf("sorted=%v", sorted), func(t *testing.T) {
					rng := rand.New(rand.NewSource(200))
					src := randCandList(rng, 200, "a")
					for i := range src {
						src[i].down *= 1e-3 // keep the noise profiles' scans busy
					}
					if sorted {
						src = candCmpSorted(src, pr.opts.countIndexed)
					}
					opts := pr.opts
					opts.scratch, opts.ins = &nodeScratch{}, newInsLib(lib)
					probe := slices.Clone(src)
					winners := len(insertBuffers(7, probe, probe, opts, sorted)) - len(src)
					if winners < len(lib.Buffers) {
						t.Fatalf("only %d winners for %d buffer types", winners, len(lib.Buffers))
					}
					opts.scratch.link(probe, nil, nil, &linkSeg{})
					// Room for the winners, so no call grows the list; each call
					// starts from the same sources, since insertion shares them.
					list := slices.Grow(slices.Clone(src), winners)
					seg := (&linkTab{}).seg(0)
					got := testing.AllocsPerRun(100, func() {
						list = append(list[:0], src...)
						seg.n = 0
						opts.scratch.link(insertBuffers(7, list, list, opts, sorted), nil, nil, &seg)
					})
					if seg.n == 0 {
						t.Fatal("the link pass wrote no row")
					}
					if got > insertAllocSlack {
						t.Fatalf("insertBuffers and link allocate %v per call for %d winners, budget is %d",
							got, winners, insertAllocSlack)
					}
				})
			}
		})
	}
}

// branchAllocs holds a noise-mode branch node's insertion (insertPairs),
// on two 60-candidate child lists, and the node's link pass to
// insertAllocSlack with warm scratch and a warm table segment.
func branchAllocs(t *testing.T, lib *buffers.Library, opts vgOptions) {
	rng := rand.New(rand.NewSource(201))
	left := candCmpSorted(randCandList(rng, 60, "l"), opts.countIndexed)
	right := candCmpSorted(randCandList(rng, 60, "r"), opts.countIndexed)
	for _, l := range [][]vgCand{left, right} {
		for i := range l {
			l[i].down *= 1e-3
		}
	}
	opts.scratch, opts.ins = &nodeScratch{}, newInsLib(lib)
	sc := opts.scratch
	walk, err := lishiMerge(left, right, opts)
	if err != nil {
		t.Fatal(err)
	}
	npairs := crossSize(sc.groups[0], sc.groups[1], opts)
	joins := slices.Clone(sc.joins) // the walk's pairs' junctions
	step := func(list []vgCand) []vgCand {
		list, err := sc.insertPairs(7, list, left, right, opts, npairs)
		if err != nil {
			t.Fatal(err)
		}
		return list
	}
	probe := step(slices.Clone(walk))
	winners := len(probe) - len(walk)
	if winners < len(lib.Buffers) {
		t.Fatalf("only %d winners over %d pairs for %d buffer types", winners, npairs, len(lib.Buffers))
	}
	sc.link(probe, left, right, &linkSeg{})
	list := slices.Grow(slices.Clone(walk), winners)
	seg := (&linkTab{}).seg(0)
	got := testing.AllocsPerRun(100, func() {
		list = append(list[:0], walk...)
		seg.n = 0
		sc.joins = append(sc.joins[:0], joins...)
		sc.link(step(list), left, right, &seg)
	})
	if seg.n == 0 {
		t.Fatal("the link pass wrote no row")
	}
	if got > insertAllocSlack {
		t.Fatalf("insertPairs and link allocate %v per call for %d winners over %d pairs, budget is %d",
			got, winners, npairs, insertAllocSlack)
	}
}
