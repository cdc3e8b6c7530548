package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// The oracle for buffer insertion: the map-keyed implementation that
// insertBuffers' slot table replaced, kept here unchanged but for the
// link's buffer field, which now points at the library entry, and for
// its emission order, which is now the prune's (candCmp, then buffer
// index). The slot table, with linkInserted making the links it defers,
// must emit the same candidates, in the same order, with the same
// witnesses — identical solLink (node, buffer, prev) — on every list, so
// nothing downstream of Step 5 can tell the two apart.

// insertBuffersRef appends buffered candidates at node v to list: for each
// buffer type (and, in count-indexed mode, each resulting buffer count and
// each parity) the candidate producing the largest post-buffer slack,
// subject to the noise constraint R_b·I(v) ≤ NS(v) when noise is enforced
// — the boldface modification of Fig. 11, Step 5. The appended candidates
// are emitted in a deterministic total order — candCmp, then buffer
// index — never map order, so repeated runs and parallel schedules see
// byte-identical lists.
func insertBuffersRef(v rctree.NodeID, list []vgCand, lib *buffers.Library, opts vgOptions) []vgCand {
	type key struct {
		buf  int
		pol  uint8
		cost int
	}
	best := map[key]vgCand{}
	for bi, b := range lib.Buffers {
		for _, c := range list {
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
			better := !ok || q > cur.q
			if !better && q == cur.q {
				nc := c.cost + b.Cost()
				better = nc < cur.cost || (nc == cur.cost && c.nbuf+1 < cur.nbuf)
			}
			if better {
				best[k] = vgCand{
					load: b.Cin,
					q:    q,
					down: 0,
					ns:   b.NoiseMargin,
					nbuf: c.nbuf + 1,
					cost: c.cost + b.Cost(),
					pol:  k.pol,
					sol:  &solLink{node: v, buf: &lib.Buffers[bi], prev: [2]*solLink{c.sol, nil}},
				}
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
		ca, cb := best[a], best[b]
		if c := candCmp(&ca, &cb, opts.countIndexed); c != 0 {
			return c
		}
		return cmp.Compare(a.buf, b.buf)
	})
	for _, k := range keys {
		list = append(list, best[k])
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
// solution link.
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
		c.sol = &solLink{buf: &buffers.Buffer{Name: fmt.Sprintf("tie%d", k)}}
		list = append(list, c)
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// sameInsertion reports the first difference between two insertion
// outputs: every candidate bit-identical, and every link the insertion
// created equal in node and buffer and pointing at the same prev.
func sameInsertion(got, want []vgCand) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.load) != math.Float64bits(w.load) ||
			math.Float64bits(g.q) != math.Float64bits(w.q) ||
			math.Float64bits(g.down) != math.Float64bits(w.down) ||
			math.Float64bits(g.ns) != math.Float64bits(w.ns) ||
			g.nbuf != w.nbuf || g.cost != w.cost || g.pol != w.pol || g.ins != w.ins {
			return fmt.Errorf("candidate %d = %+v, want %+v", i, g, w)
		}
		if g.sol == w.sol {
			continue // an input candidate, passed through
		}
		if g.sol == nil || w.sol == nil || g.sol.node != w.sol.node || g.sol.buf != w.sol.buf ||
			g.sol.isWidth != w.sol.isWidth || g.sol.prev != w.sol.prev {
			return fmt.Errorf("candidate %d link = %+v, want %+v", i, g.sol, w.sol)
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
					want := insertBuffersRef(v, slices.Clone(list), lb.lib, ref)
					opts := pr.opts
					opts.stats, opts.scratch, opts.ins = &gotStats, sc, newInsLib(lb.lib)
					got := slices.Clone(list)
					got = insertBuffers(got, got, opts)
					sc.linkInserted(v, got, lb.lib, nil, nil)
					if err := sameInsertion(got, want); err != nil {
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

// insertAllocSlack is what buffer insertion may allocate beyond one
// solLink per emitted winner.
const insertAllocSlack = 2

// TestInsertBuffersAllocBudget pins buffer insertion's allocations to its
// winners: on a fixed 200-candidate list with room for the winners and
// the 11-type Section V library, with warm scratch, insertBuffers and
// linkInserted together allocate one solLink per emitted candidate plus
// at most insertAllocSlack — nothing per scanned candidate. (In a run,
// linkInserted sees the list after the prune, so only the winners the
// prune keeps get a link.)
func TestInsertBuffersAllocBudget(t *testing.T) {
	lib := buffers.DefaultLibrary(0.8)
	for _, pr := range insertProfiles() {
		t.Run(pr.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(200))
			list := randCandList(rng, 200, "a")
			for i := range list {
				list[i].down *= 1e-3 // keep the noise profiles' scans busy
			}
			opts := pr.opts
			opts.scratch, opts.ins = &nodeScratch{}, newInsLib(lib)
			probe := slices.Clone(list)
			winners := len(insertBuffers(probe, probe, opts)) - len(list)
			if winners < len(lib.Buffers) {
				t.Fatalf("only %d winners for %d buffer types", winners, len(lib.Buffers))
			}
			// Room for the winners, so no call grows the list.
			list = slices.Grow(list, winners)
			got := testing.AllocsPerRun(100, func() {
				opts.scratch.linkInserted(7, insertBuffers(list, list, opts), lib, nil, nil)
			})
			if got > float64(winners+insertAllocSlack) {
				t.Fatalf("insertBuffers allocates %v per call for %d winners, budget is %d",
					got, winners, winners+insertAllocSlack)
			}
		})
	}
}
