// Benchmarks regenerating the paper's evaluation. One benchmark per table
// and figure (BenchmarkTableI … BenchmarkFig7), plus micro-benchmarks for
// every major subsystem and the ablations DESIGN.md calls out (pruning
// policy, segmentation granularity, routing heuristic).
//
// Run everything:
//
//	go test -bench=. -benchmem
package buffopt_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/circuit"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/experiments"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/noisesim"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/steiner"
)

// benchNets is the suite size for table benchmarks: large enough to be
// representative, small enough for -bench iterations.
const benchNets = 40

func benchSuite(b testing.TB) *experiments.Suite {
	b.Helper()
	s, err := experiments.NewSuite(experiments.Config{Seed: 1, NumNets: benchNets})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTableI regenerates the sink-distribution histogram.
func BenchmarkTableI(b *testing.B) {
	s := benchSuite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := s.RunTableI(); t.Total != benchNets {
			b.Fatalf("bad table: %+v", t)
		}
	}
}

// BenchmarkTableII regenerates the before/after verification, including
// the detailed simulation of every net. A fresh suite per iteration keeps
// the cached BuffOpt results from hiding the real cost.
func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSuite(b)
		b.StartTimer()
		if t := s.RunTableII(); t.MetricAfter != 0 {
			b.Fatalf("violations remain: %+v", t)
		}
	}
}

// BenchmarkTableIII regenerates the BuffOpt vs DelayOpt(k) comparison.
func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSuite(b)
		b.StartTimer()
		if t := s.RunTableIII(); t.Rows[0].ViolationsRemaining != 0 {
			b.Fatalf("BuffOpt left violations: %+v", t.Rows[0])
		}
	}
}

// BenchmarkTableIV regenerates the delay-penalty comparison.
func BenchmarkTableIV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSuite(b)
		b.StartTimer()
		if t := s.RunTableIV(); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1 regenerates the with/without-buffer simulation demo.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig1()
		if err != nil || !f.FixedByBuffer {
			b.Fatalf("fig1 failed: %+v, %v", f, err)
		}
	}
}

// BenchmarkFig3 regenerates the worked noise computation.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := experiments.RunFig3(); !f.Violation {
			b.Fatal("fig3 drifted")
		}
	}
}

// BenchmarkTheorem1 regenerates the l_max sweep (the Fig. 6 shape).
func BenchmarkTheorem1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if sw := experiments.RunTheorem1Sweep(); len(sw.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig7 regenerates the iterative Algorithm 1 walk.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig7()
		if err != nil || !f.Clean {
			b.Fatalf("fig7 failed: %+v, %v", f, err)
		}
	}
}

// BenchmarkEq17 regenerates the separation sweep.
func BenchmarkEq17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if sw := experiments.RunSeparationSweep(); len(sw.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// -------------------------------------------------- subsystem benchmarks

// benchNet returns one representative segmented multi-sink net.
func benchNet(b testing.TB) (*rctree.Tree, *buffers.Library, noise.Params) {
	b.Helper()
	s := benchSuite(b)
	// Pick the largest net for a meaty workload.
	return s.Segmented[0], s.Library, s.Tech.Noise
}

// BenchmarkBuffOptMinBuffers is the Section V tool on one large net.
func BenchmarkBuffOptMinBuffers(b *testing.B) {
	tr, lib, p := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(context.Background(), core.Problem{
			Tree: tr, Library: lib, Params: p, Objective: core.MinBuffersNoise,
		}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuffOpt is plain Algorithm 3 (Problem 2) on one large net.
func BenchmarkBuffOpt(b *testing.B) {
	tr, lib, p := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(context.Background(), core.Problem{
			Tree: tr, Library: lib, Params: p, Objective: core.MaxSlackNoise,
		}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayOpt is the unconstrained baseline on the same net.
func BenchmarkDelayOpt(b *testing.B) {
	tr, lib, _ := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(context.Background(), core.Problem{
			Tree: tr, Library: lib, Objective: core.MaxSlack,
		}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayOptK4 is DelayOpt(4), the Table III workhorse.
func BenchmarkDelayOptK4(b *testing.B) {
	tr, lib, _ := benchNet(b)
	k := 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(context.Background(), core.Problem{
			Tree: tr, Library: lib, Objective: core.MaxSlack, MaxBuffers: &k,
		}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveUncached is the whole degradation ladder on one large
// net — the baseline BenchmarkSolveCached's hits are measured against
// (the tentpole acceptance: a hit is ≥10× cheaper than a solve).
func BenchmarkSolveUncached(b *testing.B) {
	tr, lib, p := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(context.Background(), tr, lib, p, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCached measures a cache hit on the path bufferd runs:
// the canonical hash of the problem (SolveCacheKey) plus the lookup,
// which hands out the stored result itself. No DP runs and nothing is
// copied.
func BenchmarkSolveCached(b *testing.B) {
	tr, lib, p := benchNet(b)
	c := core.NewSolveCache(64, 0, "bench")
	solve := func() (*core.SolveResult, bool, error) {
		res, err := core.Solve(context.Background(), tr, lib, p, core.Options{})
		if err != nil {
			return nil, false, err
		}
		return res, core.Cacheable(res), nil
	}
	key := func() string {
		return core.SolveCacheKey(core.Problem{Tree: tr, Library: lib, Params: p, Objective: core.MinBuffersNoise}, core.Options{})
	}
	if _, _, err := c.Do(context.Background(), key(), solve); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := c.Do(context.Background(), key(), solve)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Hit {
			b.Fatal("prewarmed solve missed the cache")
		}
	}
}

// solveCacheHitAllocBudget pins a warm SolveCache hit (the lookup, key
// precomputed). It measured 0 allocations on the bench net and on a net
// 11 times its size, with and without the race detector. A deep copy of
// the answer costs a few blocks for the tree and one per map, plus map
// buckets that grow with the answer; a counter name built per bump costs
// one block per counter.
const solveCacheHitAllocBudget = 0

// solveCacheHitAllocs is a warm SolveCache hit's allocations on tr,
// key precomputed: the lookup alone, as every cached read pays it.
func solveCacheHitAllocs(t *testing.T, tr *rctree.Tree, lib *buffers.Library, p noise.Params) float64 {
	t.Helper()
	c := core.NewSolveCache(64, 0, "test")
	key := core.SolveCacheKey(core.Problem{Tree: tr, Library: lib, Params: p, Objective: core.MinBuffersNoise}, core.Options{})
	fill := func() (*core.SolveResult, bool, error) {
		res, err := core.Solve(context.Background(), tr, lib, p, core.Options{})
		if err != nil {
			return nil, false, err
		}
		return res, core.Cacheable(res), nil
	}
	if _, _, err := c.Do(context.Background(), key, fill); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(100, func() {
		if _, out, err := c.Do(context.Background(), key, fill); err != nil || !out.Hit {
			t.Fatalf("warm lookup: %+v, %v", out, err)
		}
	})
}

// TestSolveCacheHitAllocBudget holds a SolveCache hit to no allocation
// at all, on the bench net and on a copy with every wire split in 15 (at
// least ten times the nodes). A per-read copy of the answer (its tree,
// buffer map or tier list) would cost several blocks per read and grow
// with the net, and a counter name built per read would cost one; either
// fails this.
func TestSolveCacheHitAllocBudget(t *testing.T) {
	tr, lib, p := benchNet(t)
	large := tr.Clone()
	if _, err := segment.ByCount(large, 15); err != nil {
		t.Fatal(err)
	}
	if large.Len() < 10*tr.Len() {
		t.Fatalf("witness net has %d nodes against %d; the comparison needs ten times as many", large.Len(), tr.Len())
	}
	small, big := solveCacheHitAllocs(t, tr, lib, p), solveCacheHitAllocs(t, large, lib, p)
	t.Logf("hit allocations: %v on %d nodes, %v on %d", small, tr.Len(), big, large.Len())
	if big > small {
		t.Fatalf("a hit allocates %v on %d nodes but %v on %d: reads copy the answer", small, tr.Len(), big, large.Len())
	}
	if small > solveCacheHitAllocBudget {
		t.Fatalf("a hit allocates %v, budget is %d", small, solveCacheHitAllocBudget)
	}
}

// BenchmarkAlgorithm1 repairs a 12 mm two-pin line.
func BenchmarkAlgorithm1(b *testing.B) {
	p := noise.SectionV()
	lib := buffers.DefaultLibrary(0.8)
	tr := rctree.New("line", 300, 0)
	if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 960, C: 2.4e-12, Length: 12e-3}, "s", 30e-15, 0, 0.8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Algorithm1(tr, lib, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm2 repairs the largest multi-sink net (continuous
// placements, no segmentation needed).
func BenchmarkAlgorithm2(b *testing.B) {
	s := benchSuite(b)
	tr := s.Nets[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Algorithm2(tr, s.Library, s.Tech.Noise); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseAnalyze measures the Devgan metric on a segmented net.
func BenchmarkNoiseAnalyze(b *testing.B) {
	tr, _, p := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := noise.Analyze(tr, nil, p); r.MaxNoise <= 0 {
			b.Fatal("no noise")
		}
	}
}

// BenchmarkElmoreAnalyze measures the timing analyzer on the same net.
func BenchmarkElmoreAnalyze(b *testing.B) {
	tr, _, _ := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := elmore.Analyze(tr, nil); r.MaxDelay <= 0 {
			b.Fatal("no delay")
		}
	}
}

// ecoNet is a net of the eco_edit workload's shape, with its answer: 150
// sinks in a 9 mm box routed by the rectilinear MST, segmented to
// 0.25 mm, a root buffer site inserted and binarized (~690 nodes), solved
// for the best slack under the noise constraints.
func ecoNet(tb testing.TB) (*core.Result, noise.Params) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	tech := netgen.SectionVTech()
	net := steiner.Net{Name: "eco", DriverR: 300, DriverT: 50e-12}
	for i := 0; i < 150; i++ {
		net.Sinks = append(net.Sinks, steiner.Sink{
			Name:        fmt.Sprintf("s%d", i),
			At:          steiner.Point{X: (rng.Float64() - 0.5) * 9e-3, Y: (rng.Float64() - 0.5) * 9e-3},
			Cap:         (10 + 40*rng.Float64()) * 1e-15,
			RAT:         2.5e-9,
			NoiseMargin: tech.NoiseMargin,
		})
	}
	tr, err := steiner.Route(net, tech.Wire, steiner.RectilinearMST)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := segment.ByLength(tr, 0.25e-3); err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.InsertBelow(tr.Root()); err != nil {
		tb.Fatal(err)
	}
	tr.Binarize()
	res, err := core.Optimize(context.Background(), core.Problem{
		Tree: tr, Library: buffers.DefaultLibrary(tech.NoiseMargin), Params: tech.Noise, Objective: core.MaxSlackNoise,
	}, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return res, tech.Noise
}

// BenchmarkAnalyzeECO runs both analyzers, as every /solve/delta reply
// does, on an eco_edit-shaped net and its answer.
func BenchmarkAnalyzeECO(b *testing.B) {
	res, p := ecoNet(b)
	b.ReportMetric(float64(res.Tree.Len()), "nodes")
	b.ReportMetric(float64(res.NumBuffers()), "buffers")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !noise.Analyze(res.Tree, res.Buffers, p).Clean() {
			b.Fatal("the answer violates a noise margin")
		}
		if r := elmore.Analyze(res.Tree, res.Buffers); r.MaxDelay <= 0 {
			b.Fatal("no delay")
		}
	}
}

// analyzeAllocBudget caps each analyzer's allocations. Both measured 7,
// with and without the race detector, on every answer below: the result
// and its per-node slices, the buffered-node table and the preorder. The
// obs timer allocates nothing.
const analyzeAllocBudget = 7

// TestAnalyzeAllocBudget holds each analyzer to a fixed number of
// allocations, whatever the tree's size or its buffer count: the bench
// net's answer, the ECO net's answer and a copy of the ECO net split to
// over three times its nodes with its own answer all read the same, and
// so does the timing analyzer on the ECO net unbuffered and with a buffer
// at every node. The answers are noise-clean, so no violation list grows.
// An allocation per node or per buffer, such as a buffered-node set kept
// in a map, fails this.
func TestAnalyzeAllocBudget(t *testing.T) {
	res, p := ecoNet(t)
	tr, lib, bp := benchNet(t)
	small, err := core.Optimize(context.Background(), core.Problem{
		Tree: tr, Library: lib, Params: bp, Objective: core.MaxSlackNoise,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	large := res.Tree.Clone()
	if _, err := segment.ByCount(large, 4); err != nil {
		t.Fatal(err)
	}
	if large.Len() < 3*res.Tree.Len() {
		t.Fatalf("witness net has %d nodes against %d", large.Len(), res.Tree.Len())
	}
	big, err := core.Optimize(context.Background(), core.Problem{
		Tree: large, Library: buffers.DefaultLibrary(0.8), Params: p, Objective: core.MaxSlackNoise,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	every := map[rctree.NodeID]buffers.Buffer{}
	for v := 0; v < res.Tree.Len(); v++ {
		every[rctree.NodeID(v)] = buffers.DefaultLibrary(0.8).Buffers[0]
	}
	type answer struct {
		name   string
		tree   *rctree.Tree
		assign map[rctree.NodeID]buffers.Buffer
		params noise.Params
	}
	answers := []answer{
		{"bench net answer", small.Tree, small.Buffers, bp},
		{"eco net answer", res.Tree, res.Buffers, p},
		{"split eco net answer", big.Tree, big.Buffers, p},
	}
	var first [2]float64
	for i, a := range answers {
		if !noise.Analyze(a.tree, a.assign, a.params).Clean() {
			t.Fatalf("%s: not noise-clean", a.name)
		}
		got := [2]float64{
			testing.AllocsPerRun(20, func() { elmore.Analyze(a.tree, a.assign) }),
			testing.AllocsPerRun(20, func() { noise.Analyze(a.tree, a.assign, a.params) }),
		}
		t.Logf("%s (%d nodes, %d buffers): elmore %v, noise %v allocations", a.name, a.tree.Len(), len(a.assign), got[0], got[1])
		if got[0] > analyzeAllocBudget || got[1] > analyzeAllocBudget {
			t.Fatalf("%s: allocations %v, budget is %d", a.name, got, analyzeAllocBudget)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("%s: allocations %v, against %v on the %s", a.name, got, first, answers[0].name)
		}
	}
	for _, assign := range []map[rctree.NodeID]buffers.Buffer{nil, every} {
		if got := testing.AllocsPerRun(20, func() { elmore.Analyze(res.Tree, assign) }); got != first[0] {
			t.Fatalf("elmore on the eco net under %d buffers allocates %v, against %v", len(assign), got, first[0])
		}
	}
}

// BenchmarkNoiseSim measures one full coupled-RC transient verification.
func BenchmarkNoiseSim(b *testing.B) {
	s := benchSuite(b)
	tr := s.Nets[len(s.Nets)/2]
	opts := noisesim.Options{Params: s.Tech.Noise}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noisesim.Simulate(tr, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseSimAWE measures the moment-matching verifier on the same
// net as BenchmarkNoiseSim — the RICE-style speedup over full transient.
func BenchmarkNoiseSimAWE(b *testing.B) {
	s := benchSuite(b)
	tr := s.Nets[len(s.Nets)/2]
	opts := noisesim.Options{Params: s.Tech.Noise}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noisesim.SimulateAWE(tr, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircuitTransient measures the raw MNA engine on an RC ladder.
func BenchmarkCircuitTransient(b *testing.B) {
	build := func() *circuit.Netlist {
		n := circuit.New()
		prev := n.Node("in")
		if err := n.AddV(prev, circuit.Ground, circuit.Ramp{V1: 1, Rise: 1e-10}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			next := n.Node("")
			if err := n.AddR(prev, next, 100); err != nil {
				b.Fatal(err)
			}
			if err := n.AddC(next, circuit.Ground, 10e-15); err != nil {
				b.Fatal(err)
			}
			prev = next
		}
		return n
	}
	nl := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.Transient(nl, circuit.TranOptions{Step: 1e-12, Duration: 2e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteinerMST and BenchmarkSteinerOneSteiner compare the routing
// heuristics on a 10-sink net (the routing ablation).
func BenchmarkSteinerMST(b *testing.B)        { benchSteiner(b, steiner.RectilinearMST) }
func BenchmarkSteinerOneSteiner(b *testing.B) { benchSteiner(b, steiner.OneSteiner) }

func benchSteiner(b *testing.B, alg steiner.Algorithm) {
	b.Helper()
	net := steiner.Net{Name: "bench", Driver: steiner.Point{}, DriverR: 200}
	coords := []struct{ x, y float64 }{
		{1, 0.5}, {2, 3}, {0.5, 2.5}, {3, 1}, {3.5, 3.5},
		{1.5, 1.5}, {2.5, 0.2}, {0.2, 3.8}, {3.9, 2.2}, {2.2, 2.8},
	}
	for i, c := range coords {
		net.Sinks = append(net.Sinks, steiner.Sink{
			Name: "s", At: steiner.Point{X: c.x * 1e-3, Y: c.y * 1e-3},
			Cap: 20e-15, NoiseMargin: 0.8,
		})
		_ = i
	}
	tech := steiner.Tech{RPerLen: 80e3, CPerLen: 200e-12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steiner.Route(net, tech, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------- ablations

// BenchmarkAblationPruning compares the paper's 2-D pruning against the
// exact 4-D variant on the same net (DESIGN.md ablation: pruning policy).
func BenchmarkAblationPruning(b *testing.B) {
	tr, lib, p := benchNet(b)
	for _, mode := range []struct {
		name string
		safe bool
	}{{"paper", false}, {"safe", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(context.Background(), core.Problem{
					Tree: tr, Library: lib, Params: p, Objective: core.MaxSlackNoise,
				}, core.Options{SafePruning: mode.safe}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSizing compares BuffOpt with and without simultaneous
// wire sizing (the Lillis [18] extension) on one large net.
func BenchmarkAblationSizing(b *testing.B) {
	tr, lib, p := benchNet(b)
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"buffers-only", core.Options{}},
		{"with-sizing", core.Options{Sizing: &core.Sizing{Widths: []float64{1, 2, 4}}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(context.Background(), core.Problem{
					Tree: tr, Library: lib, Params: p, Objective: core.MinBuffersNoise,
				}, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyIterative measures the related-work baseline ([14],
// [20]) on one large net, for comparison against BenchmarkBuffOpt.
func BenchmarkGreedyIterative(b *testing.B) {
	tr, lib, p := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyIterative(tr, lib, core.GreedyOptions{Noise: true, Params: p}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRouting runs the routing-substrate comparison.
func BenchmarkAblationRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunRoutingAblation(10)
		if err != nil || len(a.Rows) != 3 {
			b.Fatalf("routing ablation failed: %v", err)
		}
	}
}

// BenchmarkProblem3Tradeoff regenerates the buffers/slack trade-off curve.
func BenchmarkProblem3Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunProblem3Tradeoff()
		if err != nil || len(tr.Points) == 0 {
			b.Fatalf("tradeoff failed: %v", err)
		}
	}
}

// BenchmarkFig2 regenerates the multi-aggressor segmentation demo.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig2()
		if err != nil || !f.ExplicitClean {
			b.Fatalf("fig2 failed: %v", err)
		}
	}
}

// BenchmarkAblationSegmentation sweeps the wire-segmenting granularity:
// the Alpert–Devgan quality/run-time trade-off.
func BenchmarkAblationSegmentation(b *testing.B) {
	s := benchSuite(b)
	base := s.Nets[0]
	for _, seglen := range []struct {
		name string
		l    float64
	}{{"1mm", 1e-3}, {"0.5mm", 0.5e-3}, {"0.25mm", 0.25e-3}} {
		seg := base.Clone()
		if _, err := segment.ByLength(seg, seglen.l); err != nil {
			b.Fatal(err)
		}
		if _, err := seg.InsertBelow(seg.Root()); err != nil {
			b.Fatal(err)
		}
		b.Run(seglen.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(context.Background(), core.Problem{
					Tree: seg, Library: s.Library, Params: s.Tech.Noise, Objective: core.MinBuffersNoise,
				}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// deltaBenchNet builds the ECO benchmark workload: a deterministic
// complete binary tree of ~500 nodes (the ISSUE's acceptance scale) with
// every internal node a legal buffer site.
func deltaBenchNet(b testing.TB) *rctree.Tree {
	b.Helper()
	tr := rctree.New("eco-bench", 120, 30e-12)
	wire := func(i int) rctree.Wire {
		return rctree.Wire{
			R:      60 + float64(i%7)*12,
			C:      15e-15 + float64(i%5)*6e-15,
			Length: 0.25e-3,
		}
	}
	// 8 internal levels (255 internal nodes) + 256 sinks = 511 nodes.
	frontier := []rctree.NodeID{tr.Root()}
	id := 0
	for level := 0; level < 7; level++ {
		var next []rctree.NodeID
		for _, p := range frontier {
			for c := 0; c < 2; c++ {
				id++
				v, err := tr.AddInternal(p, wire(id), true)
				if err != nil {
					b.Fatal(err)
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	for _, p := range frontier {
		for c := 0; c < 2; c++ {
			id++
			if _, err := tr.AddSink(p, wire(id), fmt.Sprintf("s%d", id),
				8e-15+float64(id%9)*2e-15, (300+float64(id%11)*40)*1e-12, 0.8); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		b.Fatal(err)
	}
	return tr
}

// optimizeAllocBudget pins a warm core.Optimize on deltaBenchNet (511
// nodes, MaxSlack, the Section V library; serial, since AllocsPerRun
// runs at GOMAXPROCS 1). It measured 109–430 allocations: the answer's
// tree clone and maps, the run's bookkeeping and telemetry, and the
// arena's misses — 523–563 under the race detector, whose sync.Pool
// drops a quarter of what it is given. The budget is the race-detector
// peak plus about a tenth; a solve writes 3,544 solution rows, so heap
// allocation per row, per kept candidate, per pooled list or per cloned
// node would overrun it several times over.
const optimizeAllocBudget = 620

// TestOptimizeAllocBudget pins the pooled, pointer-free dynamic program
// (candidate lists from the arena, solution rows in a pooled link table)
// against per-row or per-candidate heap allocation quietly returning.
func TestOptimizeAllocBudget(t *testing.T) {
	prob := core.Problem{Tree: deltaBenchNet(t), Library: buffers.DefaultLibrary(0.8), Objective: core.MaxSlack}
	got := testing.AllocsPerRun(20, func() {
		if _, err := core.Optimize(context.Background(), prob, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > optimizeAllocBudget {
		t.Fatalf("a warm Optimize on deltaBenchNet allocates %v, budget is %d", got, optimizeAllocBudget)
	}
}

// deltaAllocBudget pins a warm value-only core.Delta on deltaBenchNet:
// one set-cap edit on a sink, its ancestor path re-solved and every other
// subtree replayed from the memo (MaxSlack, serial, since AllocsPerRun
// runs at GOMAXPROCS 1). It measured 110–115 allocations, 142–150 under
// the race detector; each budget is its peak plus about a tenth. The
// edit rehashes the sink's nine-node root path and the run hashes its
// memo-key suffix once: a heap-allocated digest and escaping per-field
// closures per hash measured 141–146 (175–180 with -race) and fail both.
func deltaAllocBudget() float64 {
	if raceEnabled {
		return 165
	}
	return 125
}

// TestDeltaAllocBudget holds a warm value-only Delta to a fixed number of
// allocations, so per-node work on the replayed subtrees — a rehash, a
// key or a copy per memo lookup — cannot quietly return.
func TestDeltaAllocBudget(t *testing.T) {
	tr := deltaBenchNet(t)
	s, err := core.NewSession(core.Problem{Tree: tr, Library: buffers.DefaultLibrary(0.8), Objective: core.MaxSlack}, core.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the memo: the first solve resolves every subtree.
	if _, err := core.Delta(context.Background(), s, nil, core.Options{}); err != nil {
		t.Fatal(err)
	}
	sink := tr.Sinks()[0]
	base, k := tr.Node(sink).Cap, 0
	got := testing.AllocsPerRun(100, func() {
		k++
		if _, err := core.Delta(context.Background(), s,
			[]core.Edit{{Op: core.EditSetCap, Node: sink, Value: base * (1 + 2e-6*float64(k))}}, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if budget := deltaAllocBudget(); got > budget {
		t.Fatalf("a warm value-only Delta on deltaBenchNet allocates %v, budget is %v", got, budget)
	}
}

// BenchmarkDeltaResolve prices the incremental (ECO) re-solve engine
// against the full dynamic program it replaces: "full" re-runs Optimize
// from scratch after a single-leaf cap change; "delta" pushes the same
// change through a Session, re-solving only the edited sink's ancestor
// path and replaying every untouched subtree from the memo. Edit k sets
// the sink's cap to (1 + 2e-6·(k+1)) times its starting value, the
// eco_edit workload's rule: no value repeats, so no edit returns the
// session to a state its memo already holds. The delta row also reports
// reuse_rate (reused lookups / total lookups); the full/delta ns ratio
// is the speedup.
func BenchmarkDeltaResolve(b *testing.B) {
	tr := deltaBenchNet(b)
	lib := buffers.DefaultLibrary(0.8)
	prob := core.Problem{Tree: tr, Library: lib, Objective: core.MaxSlack}
	sink := tr.Sinks()[0]
	base := tr.Node(sink).Cap
	capAt := func(k int) float64 { return base * (1 + 2e-6*float64(k+1)) }

	b.Run("full", func(b *testing.B) {
		work := tr.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			work.Node(sink).Cap = capAt(i)
			p := prob
			p.Tree = work
			b.StartTimer()
			if _, err := core.Optimize(context.Background(), p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("delta", func(b *testing.B) {
		s, err := core.NewSession(prob, core.SessionConfig{})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the memo: the first solve resolves every subtree.
		if _, err := core.Delta(context.Background(), s, nil, core.Options{}); err != nil {
			b.Fatal(err)
		}
		var reused, lookups int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Delta(context.Background(), s,
				[]core.Edit{{Op: core.EditSetCap, Node: sink, Value: capAt(i)}}, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			reused += res.Reused
			lookups += res.Lookups
		}
		b.StopTimer()
		if lookups > 0 {
			b.ReportMetric(float64(reused)/float64(lookups), "reuse_rate")
		}
	})

	// delta-bounded is the server's session: its memo bounds (bufferd's
	// defaults, 8192 entries / 16 MiB) and edits that rotate over every
	// sink, edit k moving sink k mod n to (1 + 2e-6·(k+1)) times its
	// starting cap. The memo is filled until it evicts before the timer
	// starts, so every timed edit pays eviction and link-table compaction
	// as a full eco_edit session does.
	b.Run("delta-bounded", func(b *testing.B) {
		s, err := core.NewSession(prob, core.SessionConfig{MemoEntries: 8192, MemoBytes: 16 << 20})
		if err != nil {
			b.Fatal(err)
		}
		sinks := tr.Sinks()
		k := 0
		edit := func() *core.DeltaResult {
			v := sinks[k%len(sinks)]
			res, err := core.Delta(context.Background(), s,
				[]core.Edit{{Op: core.EditSetCap, Node: v, Value: tr.Node(v).Cap * (1 + 2e-6*float64(k+1))}}, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			k++
			return res
		}
		for s.MemoStats().Evicted == 0 {
			if k > 100_000 {
				b.Fatal("the memo never filled")
			}
			edit()
		}
		var reused, lookups int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := edit()
			reused += res.Reused
			lookups += res.Lookups
		}
		b.StopTimer()
		if lookups > 0 {
			b.ReportMetric(float64(reused)/float64(lookups), "reuse_rate")
		}
	})
}
