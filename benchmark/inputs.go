package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/netfmt"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/steiner"
)

// The solver configuration every workload shares: bufferd's defaults,
// which are also the Section V technology (λ = 0.7, 1.8 V / 0.25 ns
// aggressors, 0.8 V margins, the 11-type library).
var (
	sectionV = noise.SectionV()
	library  = buffers.DefaultLibrary(0.8)
)

// netInput is one net as a workload feeds it to the program: the netfmt
// text a client would send, the parsed raw tree, and how the program
// turns it into the tree its dynamic program solves.
type netInput struct {
	text   string
	raw    *rctree.Tree
	segLen float64 // wire segmenting length, m
	// objective, when non-nil, selects core.Optimize with that objective;
	// nil selects the core.Solve ladder (min buffers under noise).
	objective *core.Objective
	// binarize marks session trees, which /solve/delta binarizes after
	// segmenting.
	binarize bool
}

// newNetInput renders a generated net as netfmt text and parses it back:
// the program numbers the nodes of a net it reads in its own order, and
// the client must address (and audit) the very tree the program built.
func newNetInput(gen *rctree.Tree, segLen float64, objective *core.Objective) (netInput, error) {
	var sb strings.Builder
	if err := netfmt.Write(&sb, gen); err != nil {
		return netInput{}, err
	}
	raw, err := netfmt.Read(strings.NewReader(sb.String()))
	if err != nil {
		return netInput{}, err
	}
	return netInput{text: sb.String(), raw: raw, segLen: segLen, objective: objective}, nil
}

// worked builds the tree the program's DP sees, exactly as bufferd does:
// clone, segment, insert a buffer site below the source (and binarize,
// for sessions).
func (n netInput) worked() (*rctree.Tree, error) {
	t := n.raw.Clone()
	if err := segmentTree(t, n.segLen); err != nil {
		return nil, err
	}
	if n.binarize {
		t.Binarize()
	}
	return t, nil
}

// segmentTree is the program's segmenting step: split wires longer than
// segLen, then add a buffer site right below the source.
func segmentTree(t *rctree.Tree, segLen float64) error {
	if _, err := segment.ByLength(t, segLen); err != nil {
		return err
	}
	_, err := t.InsertBelow(t.Root())
	return err
}

// noiseParams is what the audit checks noise against: the Section V
// parameters for noise objectives, nil for the delay-only one.
func (n netInput) noiseParams() *noise.Params {
	if n.objective != nil && *n.objective == core.MaxSlack {
		return nil
	}
	p := sectionV
	return &p
}

// solve runs the program's core solver on a worked tree.
func (n netInput) solve(ctx context.Context, work *rctree.Tree) (*core.SolveResult, error) {
	if n.objective == nil {
		return core.Solve(ctx, work, library, sectionV, core.Options{})
	}
	res, err := core.Optimize(ctx, core.Problem{Tree: work, Library: library, Params: sectionV, Objective: *n.objective}, core.Options{})
	if err != nil {
		return nil, err
	}
	return &core.SolveResult{Result: res, Tier: core.TierExact}, nil
}

// cacheKey derives the content key bufferd's cache computes for this net
// (on the raw tree): the Solve key for the ladder, the Optimize key for
// an objective.
func (n netInput) cacheKey() string {
	p := core.Problem{Tree: n.raw, Library: library, Params: sectionV, Objective: core.MinBuffersNoise}
	if n.objective != nil {
		p.Objective = *n.objective
		return core.OptimizeCacheKey(p, core.Options{})
	}
	return core.SolveCacheKey(p, core.Options{})
}

// suite generates the Section V suite (netgen) as inputs for the ladder
// at bufferd's 0.5 mm segmenting.
func suite(seed int64, n int) ([]netInput, error) {
	s, err := netgen.Generate(netgen.Config{Seed: seed, NumNets: n})
	if err != nil {
		return nil, err
	}
	out := make([]netInput, 0, len(s.Nets))
	for _, t := range s.Nets {
		in, err := newNetInput(t, 0.5e-3, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// routedNet builds one multi-sink net routed as a rectilinear MST: the
// driver at the center of a box of side box (m), sinks placed uniformly
// in it with 10–50 fF pins (netgen's global-wire range), a 120–500 Ω
// driver, and one required time.
func routedNet(rng *rand.Rand, name string, sinks int, box float64) (*rctree.Tree, error) {
	tech := netgen.SectionVTech()
	net := steiner.Net{
		Name:    name,
		DriverR: 120 + 380*rng.Float64(),
		DriverT: (30 + 50*rng.Float64()) * 1e-12,
	}
	rat := (2 + rng.Float64()) * 1e-9
	for i := 0; i < sinks; i++ {
		net.Sinks = append(net.Sinks, steiner.Sink{
			Name:        fmt.Sprintf("s%d", i),
			At:          steiner.Point{X: (rng.Float64() - 0.5) * box, Y: (rng.Float64() - 0.5) * box},
			Cap:         (10 + 40*rng.Float64()) * 1e-15,
			RAT:         rat,
			NoiseMargin: tech.NoiseMargin,
		})
	}
	return steiner.Route(net, tech.Wire, steiner.RectilinearMST)
}
