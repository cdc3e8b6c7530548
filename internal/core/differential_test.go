package core

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// The differential suite is the gate on the parallel dynamic program: for
// a seeded netgen corpus it asserts that every observable output of the
// DP — candidate lists field by field, buffer placements, wire widths,
// slack bits, candidate-count telemetry — is identical between the serial
// walk and the worker-pool walk, at several worker counts, and across
// repeated runs. Parallelism is allowed to change when nodes are
// computed, never what they compute.

// diffCorpusSize is the full corpus; short mode trims it but stays above
// the 50-topology floor the suite documents.
const diffCorpusSize = 60

// diffCorpus builds the seeded corpus: netgen nets (the Table I-shaped
// topology mix), segmented exactly as the experiments pipeline segments
// them, so the DP sees realistic candidate-site densities.
func diffCorpus(t testing.TB, n int) ([]*rctree.Tree, *buffers.Library, noise.Params) {
	t.Helper()
	suite, err := netgen.Generate(netgen.Config{Seed: 7, NumNets: n})
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*rctree.Tree, len(suite.Nets))
	for i, tr := range suite.Nets {
		seg := tr.Clone()
		if _, err := segment.ByLength(seg, 0.5e-3); err != nil {
			t.Fatal(err)
		}
		if _, err := seg.InsertBelow(seg.Root()); err != nil {
			t.Fatal(err)
		}
		nets[i] = seg
	}
	return nets, suite.Library, suite.Tech.Noise
}

// candsEqual compares two candidate lists bit for bit: every float via
// math.Float64bits (so -0 vs 0 or differing NaNs cannot hide), every
// count exactly, and the flattened solutions — a's rows in ta, b's in tb
// — as buffer and width maps.
func candsEqual(a []vgCand, ta *linkTab, b []vgCand, tb *linkTab) error {
	if len(a) != len(b) {
		return fmt.Errorf("list lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.load) != math.Float64bits(y.load) ||
			math.Float64bits(x.q) != math.Float64bits(y.q) ||
			math.Float64bits(x.down) != math.Float64bits(y.down) ||
			math.Float64bits(x.ns) != math.Float64bits(y.ns) {
			return fmt.Errorf("candidate %d numeric fields differ: %+v vs %+v", i, x, y)
		}
		if x.nbuf != y.nbuf || x.cost != y.cost || x.pol != y.pol {
			return fmt.Errorf("candidate %d counts differ: %+v vs %+v", i, x, y)
		}
		ax, wx := solMaps(ta, x)
		ay, wy := solMaps(tb, y)
		if !maps.Equal(ax, ay) {
			return fmt.Errorf("candidate %d solutions differ: %v vs %v", i, ax, ay)
		}
		if !maps.Equal(wx, wy) {
			return fmt.Errorf("candidate %d width maps differ: %v vs %v", i, wx, wy)
		}
	}
	return nil
}

// solMaps is candidate c's solution as maps: the library index of the
// buffer at each node and the width index of each sized wire. A nil tab
// stands for an empty one.
func solMaps(tab *linkTab, c vgCand) (bufs, widths map[rctree.NodeID]int) {
	if tab == nil {
		tab = &linkTab{}
	}
	bufs, widths = map[rctree.NodeID]int{}, map[rctree.NodeID]int{}
	for _, p := range collectSol(tab, c) {
		if p.kind > 0 {
			bufs[p.node] = int(p.kind) - 1
		} else {
			widths[p.node] = int(-p.kind) - 1
		}
	}
	return bufs, widths
}

func assignEqual(a, b map[rctree.NodeID]buffers.Buffer) error {
	if len(a) != len(b) {
		return fmt.Errorf("assignment sizes differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || w.Name != v.Name {
			return fmt.Errorf("node %d: %q vs %q", k, v.Name, w.Name)
		}
	}
	return nil
}

// diffProfiles are the DP configurations the corpus is differenced under:
// the Section V tool configuration, the unconstrained baseline, safe
// pruning, and simultaneous wire sizing.
func diffProfiles(p noise.Params) []struct {
	name string
	opts vgOptions
} {
	return []struct {
		name string
		opts vgOptions
	}{
		{"buffopt-k8", vgOptions{noise: true, params: p, countIndexed: true, maxBuffers: 8}},
		{"delayopt", vgOptions{}},
		{"safe-pruning", vgOptions{noise: true, params: p, safePruning: true}},
		{"sizing", vgOptions{noise: true, params: p, widths: []float64{1, 2, 4}}},
	}
}

// TestDifferentialSerialVsParallel is the core gate: on every corpus net
// and every profile, the parallel walk's root candidate list is
// bit-identical to the serial walk's, and the candidate-count telemetry
// (generated, pruned, merged, visited, highwater) matches exactly —
// schedule-independent accounting, not just schedule-independent answers.
func TestDifferentialSerialVsParallel(t *testing.T) {
	n := diffCorpusSize
	profiles := "all"
	if testing.Short() {
		n = 50
		profiles = "first-two"
	}
	nets, lib, p := diffCorpus(t, n)

	runOnce := func(tr *rctree.Tree, opts vgOptions, workers int) ([]vgCand, *linkTab, obs.Snapshot) {
		t.Helper()
		old := obs.Default()
		obs.SetDefault(obs.NewRegistry())
		defer obs.SetDefault(old)
		opts.dp.workers = workers
		opts.tab = &linkTab{}
		cands, err := runVG(tr, lib, opts)
		if err != nil {
			t.Fatalf("runVG(workers=%d): %v", workers, err)
		}
		return cands, opts.tab, obs.Default().Snapshot()
	}

	statKeys := []string{
		"vg.candidates.generated", "vg.candidates.pruned",
		"vg.candidates.merged", "vg.nodes.visited",
	}
	for pi, prof := range diffProfiles(p) {
		if profiles == "first-two" && pi >= 2 {
			break
		}
		t.Run(prof.name, func(t *testing.T) {
			profNets := nets
			if prof.name == "sizing" && len(profNets) > 12 {
				// Sizing multiplies every wire charge by the width menu;
				// a dozen nets exercise the sized merge paths without
				// dominating the race-gated suite's wall clock.
				profNets = profNets[:12]
			}
			for i, tr := range profNets {
				serial, stab, ssnap := runOnce(tr, prof.opts, 1)
				for _, workers := range []int{2, 4} {
					par, ptab, psnap := runOnce(tr, prof.opts, workers)
					if err := candsEqual(serial, stab, par, ptab); err != nil {
						t.Fatalf("net %d (%s), workers %d: %v",
							i, tr.Node(tr.Root()).Name, workers, err)
					}
					for _, k := range statKeys {
						if ssnap.Counters[k] != psnap.Counters[k] {
							t.Errorf("net %d, workers %d: %s = %d parallel vs %d serial",
								i, workers, k, psnap.Counters[k], ssnap.Counters[k])
						}
					}
					if sg, pg := ssnap.Gauges["vg.list.highwater"], psnap.Gauges["vg.list.highwater"]; sg != pg {
						t.Errorf("net %d, workers %d: highwater %d parallel vs %d serial", i, workers, pg, sg)
					}
					// The pool must balance on every run, serial or not.
					if tk, rt := psnap.Counters["vg.pool.taken"], psnap.Counters["vg.pool.returned"]; tk != rt {
						t.Errorf("net %d, workers %d: pool taken %d != returned %d", i, workers, tk, rt)
					}
				}
			}
		})
	}
}

// TestDifferentialPublicAPI differences the public entry points — what
// the service actually serves — across worker counts: slack bits, cost,
// buffer placements, and wire widths all identical.
func TestDifferentialPublicAPI(t *testing.T) {
	n := diffCorpusSize
	if testing.Short() {
		n = 50
	}
	nets, lib, p := diffCorpus(t, n)
	workerSet := []int{1, 2, 4, runtime.GOMAXPROCS(0)}

	for i, tr := range nets {
		var base *Result
		for _, w := range workerSet {
			res, err := Optimize(context.Background(), Problem{
				Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise,
			}, Options{dp: dpOverride{workers: w}})
			if err != nil {
				t.Fatalf("net %d workers %d: %v", i, w, err)
			}
			if base == nil {
				base = res
				continue
			}
			if math.Float64bits(res.Slack) != math.Float64bits(base.Slack) {
				t.Fatalf("net %d workers %d: slack %x vs %x", i, w,
					math.Float64bits(res.Slack), math.Float64bits(base.Slack))
			}
			if res.Cost != base.Cost {
				t.Fatalf("net %d workers %d: cost %d vs %d", i, w, res.Cost, base.Cost)
			}
			if err := assignEqual(res.Buffers, base.Buffers); err != nil {
				t.Fatalf("net %d workers %d: %v", i, w, err)
			}
			if len(res.Widths) != len(base.Widths) {
				t.Fatalf("net %d workers %d: widths %v vs %v", i, w, res.Widths, base.Widths)
			}
		}
	}
}

// TestDeterminismRepeatedRuns locks in byte-identical JSON across repeated
// runs at every worker count: the insertion order of map-built candidate
// stages used to be randomized, so this is a regression gate on the
// deterministic emission orders in insertBuffers and pruneVG.
func TestDeterminismRepeatedRuns(t *testing.T) {
	nets, lib, p := diffCorpus(t, 50)
	if testing.Short() {
		nets = nets[:20]
	}
	for i, tr := range nets {
		var want []byte
		for rep := 0; rep < 3; rep++ {
			for _, w := range []int{1, 4} {
				res, err := Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise,
				}, Options{dp: dpOverride{workers: w}})
				if err != nil {
					t.Fatalf("net %d rep %d workers %d: %v", i, rep, w, err)
				}
				got := resultJSON(t, res)
				if want == nil {
					want = got
					continue
				}
				if string(got) != string(want) {
					t.Fatalf("net %d rep %d workers %d: result JSON drifted:\n%s\nvs\n%s",
						i, rep, w, got, want)
				}
			}
		}
	}
}

// resultJSON renders a Result into a canonical byte form: slack bits,
// cost, and placements sorted by node.
func resultJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	type placed struct {
		Node  int     `json:"node"`
		Buf   string  `json:"buf"`
		Width float64 `json:"width,omitempty"`
	}
	out := struct {
		SlackBits uint64   `json:"slack_bits"`
		Cost      int      `json:"cost"`
		Buffers   []placed `json:"buffers"`
		Widths    []placed `json:"widths"`
	}{SlackBits: math.Float64bits(res.Slack), Cost: res.Cost}
	for v, b := range res.Buffers {
		out.Buffers = append(out.Buffers, placed{Node: int(v), Buf: b.Name})
	}
	sort.Slice(out.Buffers, func(i, j int) bool { return out.Buffers[i].Node < out.Buffers[j].Node })
	for v, w := range res.Widths {
		out.Widths = append(out.Widths, placed{Node: int(v), Width: w})
	}
	sort.Slice(out.Widths, func(i, j int) bool { return out.Widths[i].Node < out.Widths[j].Node })
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDifferentialExhaustiveSpotCheck cross-checks the parallel DP against
// the exhaustive oracles on small random nets: optimal slack agreement
// (Theorem 5 territory) with the worker pool engaged, not just between the
// two walks.
func TestDifferentialExhaustiveSpotCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.4, NoiseMargin: 6},
	}}
	p := noise.Params{CouplingRatio: 1, Slope: 1}
	trials := 60
	if testing.Short() {
		trials = 25
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 4, MaxSinks: 3, MarginLo: 3, MarginHi: 8, BufferSites: true,
		})
		if _, err := segment.ByCount(tr, 2); err != nil {
			t.Fatal(err)
		}
		if len(feasibleNodes(tr)) > 9 {
			continue
		}
		res, err := Optimize(context.Background(), Problem{
			Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise,
		}, Options{dp: dpOverride{workers: 4}})
		want, _, ok, oerr := ExhaustiveMaxSlackNoise(tr, lib, p, true)
		if oerr != nil {
			t.Fatal(oerr)
		}
		if !ok {
			if err == nil {
				t.Fatalf("trial %d: parallel BuffOpt succeeded where no feasible assignment exists", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: parallel BuffOpt failed but exhaustive found slack %g: %v", trial, want, err)
		}
		if !approx(res.Slack, want) {
			t.Fatalf("trial %d: parallel BuffOpt slack %g, exhaustive %g", trial, res.Slack, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trial reached the oracle; the generator is degenerate")
	}
}
