// Critical bus: a long two-pin wire — the classic global interconnect the
// paper's introduction motivates. This example:
//
//  1. plans the wire with Theorem 1 (how long can an unbuffered run be?),
//
//  2. repairs it with Algorithm 1 (optimal, linear-time noise avoidance
//     for single-sink nets, buffers at maximal Theorem 1 spacing),
//
//  3. compares against DelayOpt and BuffOpt on a segmented copy, showing
//     the delay cost of noise avoidance on this net, and
//
//  4. shows Theorem 2 in action: the delay-optimal buffering of a noisy
//     net can still violate noise.
//
//     go run ./examples/criticalbus
package main

import (
	"context"
	"fmt"
	"log"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

const (
	busMM   = 10.0  // bus length, mm
	rPerMM  = 80.0  // Ω/mm
	cPerMM  = 200.0 // fF/mm
	driverR = 300.0 // Ω
)

func main() {
	params := noise.SectionV()
	lib := buffers.DefaultLibrary(0.8)
	strongest, err := lib.MinResistance()
	check(err)

	// 1. Planning with Theorem 1: the maximal noise-safe unbuffered run.
	iu := params.PerCap() * cPerMM * 1e-15 * 1e3 // A/m
	lmax, err := core.MaxSafeLength(strongest.R, rPerMM*1e3, iu, 0, 0.8)
	check(err)
	fmt.Printf("Theorem 1: a %s-driven run is noise-safe up to %.2f mm; the bus is %.0f mm\n",
		strongest.Name, lmax*1e3, busMM)

	tr := rctree.New("bus", driverR, 50e-12)
	_, err = tr.AddSink(tr.Root(),
		rctree.Wire{R: rPerMM * busMM, C: cPerMM * busMM * 1e-15, Length: busMM * 1e-3},
		"receiver", 30e-15, 2e-9, 0.8)
	check(err)

	// 2. Algorithm 1.
	sol, err := core.Algorithm1(tr, lib, params)
	check(err)
	fmt.Printf("\nAlgorithm 1: %d buffers at maximal spacing\n", sol.NumBuffers())
	printState("  after Algorithm 1", sol.Tree, sol.Buffers, params)

	// 3. DelayOpt vs BuffOpt on the segmented bus.
	seg := tr.Clone()
	if _, err := segment.ByLength(seg, 0.5e-3); err != nil {
		log.Fatal(err)
	}
	if _, err := seg.InsertBelow(seg.Root()); err != nil {
		log.Fatal(err)
	}
	printState("\nunbuffered bus", tr, nil, params)

	d, err := core.Optimize(context.Background(), core.Problem{
		Tree: seg, Library: lib, Objective: core.MaxSlack,
	}, core.Options{})
	check(err)
	fmt.Printf("\nDelayOpt: %d buffers (pure delay optimum)\n", d.NumBuffers())
	printState("  after DelayOpt", d.Tree, d.Buffers, params)

	b, err := core.Optimize(context.Background(), core.Problem{
		Tree: seg, Library: lib, Params: params, Objective: core.MaxSlackNoise,
	}, core.Options{})
	check(err)
	fmt.Printf("\nBuffOpt: %d buffers (delay optimum subject to noise)\n", b.NumBuffers())
	printState("  after BuffOpt", b.Tree, b.Buffers, params)

	dDelay := elmore.Analyze(d.Tree, d.Buffers).MaxDelay
	bDelay := elmore.Analyze(b.Tree, b.Buffers).MaxDelay
	fmt.Printf("\nnoise-avoidance delay penalty on this bus: %.2f%%\n",
		100*(bDelay-dDelay)/dDelay)

	// 4. Theorem 2: is the delay optimum noise-clean here?
	if !noise.Analyze(d.Tree, d.Buffers, params).Clean() {
		fmt.Println("Theorem 2 in action: the delay-optimal solution still violates noise.")
	} else {
		fmt.Println("On this bus the delay optimum happens to be noise-clean.")
	}
}

func printState(label string, tr *rctree.Tree, assign map[rctree.NodeID]buffers.Buffer, p noise.Params) {
	n := noise.Analyze(tr, assign, p)
	e := elmore.Analyze(tr, assign)
	fmt.Printf("%s: delay %.1f ps, noise bound %.3f V, violations %d\n",
		label, e.MaxDelay*1e12, n.MaxNoise, len(n.Violations))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
