// Quickstart: build a small routed net, check its noise and timing, run
// BuffOpt (Algorithm 3 with the Lillis buffer-count extension, the tool
// configuration of the paper's Section V), and verify the result with the
// detailed coupled-RC simulator.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/noisesim"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

func main() {
	// Technology: Section V of the paper. λ = 0.7 of every wire's
	// capacitance couples to an aggressor slewing at 1.8 V / 0.25 ns;
	// every gate tolerates 0.8 V of noise.
	params := noise.SectionV()
	lib := buffers.DefaultLibrary(0.8)

	// A 2-sink net: 3 mm to a far latch, 1.5 mm to a near one, driven by
	// a mid-strength gate (250 Ω). Wires: 80 Ω/mm, 200 fF/mm.
	tr := rctree.New("demo", 250, 40e-12)
	branch, err := tr.AddInternal(tr.Root(), wire(1.5), true)
	check(err)
	_, err = tr.AddSink(branch, wire(3.0), "far_latch", 25e-15, 1.2e-9, 0.8)
	check(err)
	_, err = tr.AddSink(branch, wire(1.5), "near_latch", 18e-15, 1.2e-9, 0.8)
	check(err)

	report("before", tr, nil, params)

	// Preprocess: segment long wires into candidate buffer sites
	// (Alpert–Devgan wire segmenting) and add a site at the driver output.
	work := tr.Clone()
	if _, err := segment.ByLength(work, 0.5e-3); err != nil {
		log.Fatal(err)
	}
	if _, err := work.InsertBelow(work.Root()); err != nil {
		log.Fatal(err)
	}

	// BuffOpt: fewest buffers such that noise and timing are both met.
	res, err := core.Optimize(context.Background(), core.Problem{
		Tree: work, Library: lib, Params: params, Objective: core.MinBuffersNoise,
	}, core.Options{})
	check(err)
	fmt.Printf("\nBuffOpt inserted %d buffer(s); optimizer slack %.1f ps\n",
		res.NumBuffers(), res.Slack*1e12)
	for v, b := range res.Buffers {
		n := res.Tree.Node(v)
		fmt.Printf("  %s at node %d (%.2f, %.2f) mm\n", b.Name, v, n.X*1e3, n.Y*1e3)
	}
	report("after", res.Tree, res.Buffers, params)

	// Independent verification, as the paper did with 3dnoise.
	sim, err := noisesim.Simulate(res.Tree, res.Buffers, noisesim.Options{Params: params})
	check(err)
	fmt.Printf("\nsimulator peak noise: %.3f V, violations: %d\n", sim.MaxNoise, len(sim.Violations))
}

func wire(mm float64) rctree.Wire {
	return rctree.Wire{R: 80 * mm, C: 200e-15 * mm, Length: mm * 1e-3}
}

func report(label string, tr *rctree.Tree, assign map[rctree.NodeID]buffers.Buffer, p noise.Params) {
	n := noise.Analyze(tr, assign, p)
	e := elmore.Analyze(tr, assign)
	fmt.Printf("%s: max delay %.1f ps, worst slack %.1f ps, peak noise bound %.3f V, violations %d\n",
		label, e.MaxDelay*1e12, e.WorstSlack*1e12, n.MaxNoise, len(n.Violations))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
