package core

import (
	"context"
	"strconv"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// TestAlgorithm1VeryLongLine stresses the linear-time walk: a line needing
// thousands of buffers must stay correct, clean, and evenly spaced.
func TestAlgorithm1VeryLongLine(t *testing.T) {
	length := 5000.0
	tr := rctree.New("long", 1, 0)
	if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: length, C: length, Length: length}, "s", 0.1, 0, 5); err != nil {
		t.Fatal(err)
	}
	lib := singleBufferLib()
	sol, err := Algorithm1(tr, lib, unitParams)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh-state maximal spacing is −1+√11 ≈ 2.3166; the count must be
	// close to length/spacing.
	want := int(length / 2.3166)
	if got := sol.NumBuffers(); got < want || got > want+2 {
		t.Fatalf("buffers = %d, want ≈ %d", got, want)
	}
	if err := sol.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if !noise.Analyze(sol.Tree, sol.Buffers, unitParams).Clean() {
		t.Fatal("not clean")
	}
}

// TestBuffOptManySegments stresses the DP on a deep chain: consistency
// with the analyzers must hold at scale.
func TestBuffOptManySegments(t *testing.T) {
	tr := rctree.New("deep", 1.5, 0)
	if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 30, C: 30, Length: 30}, "s", 0.1, 1e5, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := segment.ByCount(tr, 300); err != nil {
		t.Fatal(err)
	}
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.3, NoiseMargin: 5},
		{Name: "S", Cin: 0.02, R: 2, T: 0.2, NoiseMargin: 5},
	}}
	res, err := Optimize(context.Background(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MinBuffersNoise,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Slack, elmore.Analyze(res.Tree, res.Buffers).WorstSlack) {
		t.Fatalf("DP slack %g disagrees with analyzer at scale", res.Slack)
	}
	if !noise.Analyze(res.Tree, res.Buffers, unitParams).Clean() {
		t.Fatal("not clean")
	}
	if res.NumBuffers() == 0 {
		t.Fatal("no buffers on a 30-unit noisy line")
	}
}

// BenchmarkAlgorithm1Scaling shows the linear-time walk scaling with line
// length (and therefore with the number of inserted buffers).
func BenchmarkAlgorithm1Scaling(b *testing.B) {
	lib := singleBufferLib()
	for _, length := range []float64{100, 1000, 10000} {
		tr := rctree.New("l", 1, 0)
		if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: length, C: length, Length: length}, "s", 0.1, 0, 5); err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(int(length)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Algorithm1(tr, lib, unitParams); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuffOptScaling shows the DP's growth with candidate-site count
// on a fixed-length line.
func BenchmarkBuffOptScaling(b *testing.B) {
	lib := &buffers.Library{Buffers: []buffers.Buffer{
		{Name: "B", Cin: 0.05, R: 1, T: 0.3, NoiseMargin: 5},
	}}
	for _, segs := range []int{50, 100, 200, 400} {
		tr := rctree.New("l", 1.5, 0)
		if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 30, C: 30, Length: 30}, "s", 0.1, 1e5, 5); err != nil {
			b.Fatal(err)
		}
		if _, err := segment.ByCount(tr, segs); err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(segs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(context.Background(), Problem{
					Tree: tr, Library: lib, Params: unitParams, Objective: MinBuffersNoise,
				}, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return strconv.Itoa(n/1000) + "k"
	}
	return strconv.Itoa(n)
}
