package core_test

import (
	"context"
	"fmt"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// ExampleAlgorithm1 repairs a noisy two-pin line: the buffers land at
// their Theorem 1 maximal spacings (here −1+√11 ≈ 2.317 length units).
func ExampleAlgorithm1() {
	params := noise.Params{CouplingRatio: 1, Slope: 1}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B1", Cin: 0.1, R: 1, NoiseMargin: 5},
	}}
	tr := rctree.New("line", 1, 0)
	tr.AddSink(tr.Root(), rctree.Wire{R: 10, C: 10, Length: 10}, "sink", 0.1, 0, 5)

	sol, err := core.Algorithm1(tr, lib, params)
	if err != nil {
		panic(err)
	}
	clean := noise.Analyze(sol.Tree, sol.Buffers, params).Clean()
	fmt.Printf("%d buffers, clean=%v\n", sol.NumBuffers(), clean)
	// Output: 4 buffers, clean=true
}

// ExampleOptimize_minBuffersNoise runs the Section V tool configuration:
// fewest buffers meeting both the noise and the timing constraints.
func ExampleOptimize_minBuffersNoise() {
	params := noise.Params{CouplingRatio: 1, Slope: 1}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.5, NoiseMargin: 4},
	}}
	tr := rctree.New("y", 2, 0)
	v1, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 1, C: 1, Length: 1}, true)
	tr.AddSink(v1, rctree.Wire{R: 3, C: 3, Length: 3}, "a", 0.1, 100, 4)
	tr.AddSink(v1, rctree.Wire{R: 3, C: 3, Length: 3}, "b", 0.1, 100, 4)
	// Preprocess: create candidate buffer sites.
	segment.ByCount(tr, 3)

	res, err := core.Optimize(context.Background(), core.Problem{
		Tree: tr, Library: lib, Params: params, Objective: core.MinBuffersNoise,
	}, core.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d buffers, slack ≥ 0: %v\n", res.NumBuffers(), res.Slack >= 0)
	// Output: 3 buffers, slack ≥ 0: true
}

// ExampleMaxSafeLength evaluates Theorem 1: how long may a buffer-driven
// wire run before its coupled noise exceeds the available slack?
func ExampleMaxSafeLength() {
	l, err := core.MaxSafeLength(
		1, // driver resistance
		1, // wire resistance per unit length
		1, // injected current per unit length
		0, // downstream current
		5, // noise slack at the far end
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("l_max = %.4f\n", l)
	// Output: l_max = 2.3166
}
