package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/steiner"
)

// fuzzMaxNodes bounds the worked tree FuzzOptimizeNetfmt solves: a
// segment length that would split a net past it is not applied, and the
// solver's own budget refuses anything larger.
const fuzzMaxNodes = 4096

// fuzzSegLens are the segment lengths a fuzz input picks from: none, the
// benchmark's 0.5 mm, and two finer ones that turn long wires into long
// chains of buffer sites.
var fuzzSegLens = []float64{0, 0.5e-3, 0.1e-3, 0.02e-3}

// FuzzOptimizeNetfmt drives fuzzed netfmt bytes through the whole solve
// path — netfmt.Read, Binarize, segmenting and core.Optimize under a
// small candidate cap and a timeout — for each objective. Every input
// must end in a typed guard error (invalid, budget, canceled or
// infeasible), or in an answer the independent analyzers confirm: its
// slack equals elmore.Analyze's worst slack within 1e-12 relative, and
// under a noise objective the buffered tree is noise-clean. A panic, an
// untyped or internal error, or a wrong answer fails (make fuzz).
func FuzzOptimizeNetfmt(f *testing.F) {
	for _, s := range optimizeFuzzSeeds(f) {
		for obj := range 3 {
			f.Add(s.text, s.seg, uint8(obj))
		}
	}
	lib := buffers.DefaultLibrary(0.8)
	params := noise.SectionV()
	f.Fuzz(func(t *testing.T, data []byte, seg, obj uint8) {
		tree, err := netfmt.Read(bytes.NewReader(data))
		if err != nil {
			typedOutcome(t, "netfmt.Read", err)
			return
		}
		tree.Binarize()
		if l := fuzzSegLens[int(seg)%len(fuzzSegLens)]; l > 0 && segment.Size(tree, l) <= fuzzMaxNodes {
			if _, err := segment.ByLength(tree, l); err != nil {
				typedOutcome(t, "segment.ByLength", err)
				return
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		budget := guard.New(ctx)
		budget.MaxCandidates, budget.MaxTreeNodes = 2000, fuzzMaxNodes
		p := core.Problem{Tree: tree, Library: lib, Params: params, Objective: core.Objective(int(obj) % 3)}
		res, err := core.Optimize(ctx, p, core.Options{Budget: budget})
		if err != nil {
			typedOutcome(t, "core.Optimize", err)
			return
		}
		got := elmore.Analyze(res.Tree, res.Buffers).WorstSlack
		if d := math.Abs(got - res.Slack); !(d <= 1e-12*math.Max(math.Abs(got), math.Abs(res.Slack))) {
			t.Fatalf("%v: claimed slack %g, Elmore says %g", p.Objective, res.Slack, got)
		}
		if p.Objective != core.MaxSlack && !noise.Analyze(res.Tree, res.Buffers, params).Clean() {
			t.Fatalf("%v: the answer leaves noise violations", p.Objective)
		}
	})
}

// typedOutcome fails t unless err is one of the typed guard errors an
// input may end in.
func typedOutcome(t *testing.T, step string, err error) {
	t.Helper()
	switch guard.Class(err) {
	case "invalid", "budget", "canceled", "infeasible":
	default:
		t.Fatalf("%s: %s error: %v", step, guard.Class(err), err)
	}
}

type fuzzSeed struct {
	text []byte
	seg  uint8
}

// optimizeFuzzSeeds are FuzzOptimizeNetfmt's seed inputs: Section V suite
// nets, a long two-pin line segmented into a long chain, nets with extreme
// electrical magnitudes, a 300-sink routed net, and a few malformed ones.
func optimizeFuzzSeeds(f *testing.F) []fuzzSeed {
	write := func(t *rctree.Tree) []byte {
		var b bytes.Buffer
		if err := netfmt.Write(&b, t); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	var seeds []fuzzSeed
	suite, err := netgen.Generate(netgen.Config{Seed: 3, NumNets: 4})
	if err != nil {
		f.Fatal(err)
	}
	for i, t := range suite.Nets {
		seeds = append(seeds, fuzzSeed{write(t), uint8(i)})
	}
	// A 40 mm two-pin line: 2000 sites at the finest segment length.
	line := fmt.Sprintf("net line\ndriver r=250 t=4e-11\nnode 0 source x=0 y=0\n"+
		"node 1 sink parent=0 wire=%g,%g,0.04 x=0.04 y=0 cap=2e-14 rat=1.2e-8 nm=0.8 name=far\nend\n",
		0.04*8e4, 0.04*1.5e-10)
	seeds = append(seeds, fuzzSeed{[]byte(line), 3})
	// Extreme magnitudes: tiny and huge parasitics, margins and times.
	for _, m := range []struct{ r, c, cap, rat, nm float64 }{
		{1e-300, 1e-300, 1e-300, 1e-300, 1e-300},
		{1e150, 1e150, 1e150, 1e150, 1e150},
		{1e300, 1e-300, 1e300, -1e300, 0},
	} {
		seeds = append(seeds, fuzzSeed{[]byte(fmt.Sprintf("net x\ndriver r=%g t=0\nnode 0 source x=0 y=0\n"+
			"node 1 internal parent=0 wire=%g,%g,0.001 x=0.001 y=0 bufok=1\n"+
			"node 2 sink parent=1 wire=%g,%g,0.001 x=0.002 y=0 cap=%g rat=%g nm=%g name=a\n"+
			"node 3 sink parent=1 wire=%g,%g,0.001 x=0.001 y=0.001 cap=%g rat=%g nm=%g name=b\nend\n",
			m.r, m.r, m.c, m.r, m.c, m.cap, m.rat, m.nm, m.r, m.c, m.cap, m.rat, m.nm)), 1})
	}
	// A 300-sink net routed as a rectilinear MST in a 10 mm box.
	rng := rand.New(rand.NewSource(5))
	tech := netgen.SectionVTech()
	net := steiner.Net{Name: "wide", DriverR: 200, DriverT: 5e-11}
	for i := range 300 {
		net.Sinks = append(net.Sinks, steiner.Sink{
			Name:        fmt.Sprintf("s%d", i),
			At:          steiner.Point{X: (rng.Float64() - 0.5) * 1e-2, Y: (rng.Float64() - 0.5) * 1e-2},
			Cap:         (10 + 40*rng.Float64()) * 1e-15,
			RAT:         2e-9,
			NoiseMargin: tech.NoiseMargin,
		})
	}
	wide, err := steiner.Route(net, tech.Wire, steiner.RectilinearMST)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, fuzzSeed{write(wide), 0})
	for _, s := range []string{
		"",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" + strings.Repeat("node 1 sink parent=0\n", 2) + "end\n",
	} {
		seeds = append(seeds, fuzzSeed{[]byte(s), 0})
	}
	return seeds
}
