// Design flow: the whole Section V experiment as a user of the public
// API would run it — generate (or load) a design's nets, repair every
// noise violation with the BuffOpt tool, verify the worst nets with both
// independent analyzers (transient simulation and RICE-style moment
// matching), and print a design-level report.
//
//	go run ./examples/designflow
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	"buffopt/internal/core"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/noisesim"
	"buffopt/internal/report"
	"buffopt/internal/segment"
)

func main() {
	// A small design: the 40 largest-capacitance nets, Section V
	// technology (λ = 0.7, 1.8 V / 0.25 ns aggressors, 0.8 V margins).
	suite, err := netgen.Generate(netgen.Config{Seed: 42, NumNets: 40})
	check(err)
	params := suite.Tech.Noise

	type outcome struct {
		res    *core.Result
		wasBad bool
	}
	outcomes := make([]outcome, len(suite.Nets))
	bad := 0
	totalBuffers := 0
	for i, tr := range suite.Nets {
		wasBad := !noise.CleanUnbuffered(tr, params)
		if wasBad {
			bad++
		}
		// Preprocess: Alpert–Devgan segmenting plus a driver-output site.
		work := tr.Clone()
		if _, err := segment.ByLength(work, 0.5e-3); err != nil {
			log.Fatal(err)
		}
		if _, err := work.InsertBelow(work.Root()); err != nil {
			log.Fatal(err)
		}
		res, err := core.Optimize(context.Background(), core.Problem{
			Tree: work, Library: suite.Library, Params: params, Objective: core.MinBuffersNoise,
		}, core.Options{})
		check(err)
		outcomes[i] = outcome{res: res, wasBad: wasBad}
		totalBuffers += res.NumBuffers()
	}
	fmt.Printf("design: %d nets, %d with noise violations, %d buffers inserted\n",
		len(suite.Nets), bad, totalBuffers)

	// Confirm every net is clean by the metric.
	for i, o := range outcomes {
		if !noise.Analyze(o.res.Tree, o.res.Buffers, params).Clean() {
			log.Fatalf("net %d still violates", i)
		}
	}
	fmt.Println("metric: all nets clean after BuffOpt")

	// Signoff the three noisiest nets with both independent verifiers.
	idx := make([]int, len(outcomes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return suite.Nets[idx[a]].TotalCap() > suite.Nets[idx[b]].TotalCap()
	})
	simOpts := noisesim.Options{Vdd: suite.Tech.Vdd, Params: params}
	for _, i := range idx[:3] {
		o := outcomes[i]
		tran, err := noisesim.Simulate(o.res.Tree, o.res.Buffers, simOpts)
		check(err)
		awe, err := noisesim.SimulateAWE(o.res.Tree, o.res.Buffers, simOpts)
		check(err)
		fmt.Printf("signoff %s: transient peak %.3f V, AWE peak %.3f V, clean %v/%v\n",
			suite.Nets[i].Node(0).Name, tran.MaxNoise, awe.MaxNoise, tran.Clean(), awe.Clean())
	}

	// Full report for the single worst net.
	worst := outcomes[idx[0]]
	fmt.Println()
	check(report.Write(os.Stdout, worst.res.Tree, worst.res.Buffers, report.Options{
		Params: params, Sinks: 5, ShowBuffers: true,
	}))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
