package noise_test

// The analyzer as it stood before it read one preorder and a per-node
// buffered table: a postorder pass and a preorder pass, each looking the
// assignment up at every node. It is kept here, unchanged but for its
// name, only as the oracle TestAnalyzeMatchesReference holds Analyze to,
// bit for bit.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// analyzeReference is Analyze's reference oracle.
func analyzeReference(t *rctree.Tree, assign noise.Assignment, p noise.Params) *noise.Result {
	n := t.Len()
	r := &noise.Result{
		WireCurrent: make([]float64, n),
		Downstream:  make([]float64, n),
		Noise:       make([]float64, n),
	}

	for _, v := range t.Postorder() {
		node := t.Node(v)
		if v != t.Root() {
			r.WireCurrent[v] = p.WireCurrent(node.Wire)
		}
		sum := 0.0
		for _, c := range node.Children {
			if _, buffered := assign[c]; buffered {
				sum += r.WireCurrent[c]
			} else {
				sum += r.WireCurrent[c] + r.Downstream[c]
			}
		}
		r.Downstream[v] = sum
	}

	out := make([]float64, n)
	for _, v := range t.Preorder() {
		node := t.Node(v)
		if v == t.Root() {
			r.Noise[v] = 0
			out[v] = t.DriverResistance * r.Downstream[v]
		} else {
			w := node.Wire
			through := r.WireCurrent[v] / 2
			if _, buffered := assign[v]; !buffered {
				through += r.Downstream[v]
			}
			r.Noise[v] = out[node.Parent] + w.R*through
			if b, buffered := assign[v]; buffered {
				if r.Noise[v] > b.NoiseMargin {
					r.Violations = append(r.Violations, noise.Violation{Node: v, Noise: r.Noise[v], Margin: b.NoiseMargin})
				}
				out[v] = b.R * r.Downstream[v]
			} else {
				out[v] = r.Noise[v]
			}
		}
		if node.Kind == rctree.Sink {
			if r.Noise[v] > node.NoiseMargin {
				r.Violations = append(r.Violations, noise.Violation{Node: v, Noise: r.Noise[v], Margin: node.NoiseMargin})
			}
		}
		isInput := node.Kind == rctree.Sink
		if _, buffered := assign[v]; buffered {
			isInput = true
		}
		if isInput && r.Noise[v] > r.MaxNoise {
			r.MaxNoise = r.Noise[v]
		}
	}
	return r
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameViolations reports whether a and b list the same violations, in
// the same order, bit for bit.
func sameViolations(a, b []noise.Violation) bool {
	return slices.EqualFunc(a, b, func(x, y noise.Violation) bool {
		return x.Node == y.Node && math.Float64bits(x.Noise) == math.Float64bits(y.Noise) &&
			math.Float64bits(x.Margin) == math.Float64bits(y.Margin)
	})
}

// referenceAssignments draws the assignments each tree is analyzed
// under: nil, empty, the root alone, every sink, a random sample that
// always holds the root and a sink, every node, and a sample padded with
// keys that name no node of tr.
func referenceAssignments(rng *rand.Rand, tr *rctree.Tree, lib *buffers.Library) []noise.Assignment {
	pick := func() buffers.Buffer { return lib.Buffers[rng.Intn(len(lib.Buffers))] }
	sinks := tr.Sinks()
	root := noise.Assignment{tr.Root(): pick()}
	atSinks := noise.Assignment{}
	for _, s := range sinks {
		atSinks[s] = pick()
	}
	sample := noise.Assignment{tr.Root(): pick(), sinks[rng.Intn(len(sinks))]: pick()}
	all := noise.Assignment{}
	for v := 0; v < tr.Len(); v++ {
		if rng.Intn(4) == 0 {
			sample[rctree.NodeID(v)] = pick()
		}
		all[rctree.NodeID(v)] = pick()
	}
	outside := noise.Assignment{rctree.NodeID(tr.Len()): pick(), rctree.NodeID(tr.Len() + 7): pick(), rctree.None: pick(), -5: pick()}
	for v := range sample {
		outside[v] = sample[v]
	}
	return []noise.Assignment{nil, {}, root, atSinks, sample, all, outside}
}

// TestAnalyzeMatchesReference differences Analyze against the reference
// bit for bit — every per-node slice, the violations in order, MaxNoise
// and Clean — on the 500 suite nets (every other one segmented to
// 0.5 mm) and 200 random trees whose wires carry explicit aggressor
// lists, empty lists or the estimate, each under every assignment of
// referenceAssignments.
func TestAnalyzeMatchesReference(t *testing.T) {
	suite, err := netgen.Generate(netgen.Config{Seed: 1, NumNets: 500})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	type tc struct {
		tr  *rctree.Tree
		lib *buffers.Library
		p   noise.Params
	}
	var cases []tc
	for i, tr := range suite.Nets {
		if i%2 == 1 {
			tr = tr.Clone()
			if _, err := segment.ByLength(tr, 0.5e-3); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, tc{tr, suite.Library, suite.Tech.Noise})
	}
	for i := 0; i < 200; i++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 12, MaxSinks: 6, BufferSites: true})
		for v := 1; v < tr.Len(); v++ {
			w := &tr.Node(rctree.NodeID(v)).Wire
			switch rng.Intn(3) {
			case 0:
				w.Aggressors = []rctree.Coupling{}
			case 1:
				for k := rng.Intn(3); k >= 0; k-- {
					w.Aggressors = append(w.Aggressors, rctree.Coupling{Ratio: rng.Float64(), Slope: rng.Float64()})
				}
			}
		}
		p := noise.Params{CouplingRatio: rng.Float64(), Slope: 0.1 + rng.Float64()}
		cases = append(cases, tc{tr, testutil.RandomLibrary(rng, 5), p})
	}
	violations := 0
	for i, c := range cases {
		for j, a := range referenceAssignments(rng, c.tr, c.lib) {
			got, want := noise.Analyze(c.tr, a, c.p), analyzeReference(c.tr, a, c.p)
			switch {
			case !sameBits(got.WireCurrent, want.WireCurrent), !sameBits(got.Downstream, want.Downstream),
				!sameBits(got.Noise, want.Noise):
				t.Fatalf("case %d, assignment %d: per-node values differ from the reference", i, j)
			case !sameViolations(got.Violations, want.Violations), got.Clean() != want.Clean():
				t.Fatalf("case %d, assignment %d: violations %v, reference %v", i, j, got.Violations, want.Violations)
			case math.Float64bits(got.MaxNoise) != math.Float64bits(want.MaxNoise):
				t.Fatalf("case %d, assignment %d: max noise %v, reference %v", i, j, got.MaxNoise, want.MaxNoise)
			}
			violations += len(want.Violations)
		}
	}
	if violations == 0 {
		t.Fatal("no assignment violated a margin; the violation order went untested")
	}
}
