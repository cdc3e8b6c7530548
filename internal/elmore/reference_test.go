package elmore_test

// The analyzer as it stood before it read one preorder and a per-node
// buffered table: a postorder pass and a preorder pass, each looking the
// assignment up at every node. It is kept here, unchanged but for its
// name, only as the oracle TestAnalyzeMatchesReference holds Analyze to,
// bit for bit.

import (
	"math"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/netgen"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// analyzeReference is Analyze's reference oracle.
func analyzeReference(t *rctree.Tree, assign elmore.Assignment) *elmore.Result {
	n := t.Len()
	r := &elmore.Result{
		Cap:        make([]float64, n),
		Drive:      make([]float64, n),
		Arrival:    make([]float64, n),
		SinkSlack:  make([]float64, n),
		WorstSlack: math.Inf(1),
		WorstSink:  rctree.None,
	}

	post := t.Postorder()
	for _, v := range post {
		node := t.Node(v)
		drive := 0.0
		if node.Kind == rctree.Sink {
			drive = node.Cap
		}
		for _, c := range node.Children {
			drive += t.Node(c).Wire.C + r.Cap[c]
		}
		r.Drive[v] = drive
		if b, ok := assign[v]; ok {
			r.Cap[v] = b.Cin
		} else {
			r.Cap[v] = drive
		}
	}

	for _, v := range t.Preorder() {
		node := t.Node(v)
		if v == t.Root() {
			r.Arrival[v] = 0
		} else {
			w := node.Wire
			u := node.Parent
			parentOut := r.Arrival[u]
			if b, ok := assign[u]; ok {
				parentOut += b.Delay(r.Drive[u])
			} else if u == t.Root() {
				parentOut += t.DriverDelay + t.DriverResistance*r.Drive[u]
			}
			r.Arrival[v] = parentOut + w.R*(w.C/2+r.Cap[v])
		}

		if node.Kind == rctree.Sink {
			r.SinkSlack[v] = node.RAT - r.Arrival[v]
			if r.SinkSlack[v] < r.WorstSlack {
				r.WorstSlack = r.SinkSlack[v]
				r.WorstSink = v
			}
			if r.Arrival[v] > r.MaxDelay {
				r.MaxDelay = r.Arrival[v]
			}
		} else {
			r.SinkSlack[v] = math.Inf(1)
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

// referenceAssignments draws the assignments each tree is analyzed
// under: nil, empty, the root alone, every sink, a random sample that
// always holds the root and a sink, every node, and a sample padded with
// keys that name no node of tr.
func referenceAssignments(rng *rand.Rand, tr *rctree.Tree, lib *buffers.Library) []elmore.Assignment {
	pick := func() buffers.Buffer { return lib.Buffers[rng.Intn(len(lib.Buffers))] }
	sinks := tr.Sinks()
	root := elmore.Assignment{tr.Root(): pick()}
	atSinks := elmore.Assignment{}
	for _, s := range sinks {
		atSinks[s] = pick()
	}
	sample := elmore.Assignment{tr.Root(): pick(), sinks[rng.Intn(len(sinks))]: pick()}
	all := elmore.Assignment{}
	for v := 0; v < tr.Len(); v++ {
		if rng.Intn(4) == 0 {
			sample[rctree.NodeID(v)] = pick()
		}
		all[rctree.NodeID(v)] = pick()
	}
	outside := elmore.Assignment{rctree.NodeID(tr.Len()): pick(), rctree.NodeID(tr.Len() + 7): pick(), rctree.None: pick(), -5: pick()}
	for v := range sample {
		outside[v] = sample[v]
	}
	return []elmore.Assignment{nil, {}, root, atSinks, sample, all, outside}
}

// TestAnalyzeMatchesReference differences Analyze against the reference
// bit for bit — every per-node slice, WorstSlack, WorstSink and MaxDelay
// — on the 500 suite nets (every other one segmented to 0.5 mm) and 200
// random trees, each under every assignment of referenceAssignments.
func TestAnalyzeMatchesReference(t *testing.T) {
	suite, err := netgen.Generate(netgen.Config{Seed: 1, NumNets: 500})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	type tc struct {
		tr  *rctree.Tree
		lib *buffers.Library
	}
	var cases []tc
	for i, tr := range suite.Nets {
		if i%2 == 1 {
			tr = tr.Clone()
			if _, err := segment.ByLength(tr, 0.5e-3); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, tc{tr, suite.Library})
	}
	for i := 0; i < 200; i++ {
		tr := testutil.RandomTree(rng, testutil.TreeOptions{MaxInternal: 12, MaxSinks: 6, BufferSites: true})
		cases = append(cases, tc{tr, testutil.RandomLibrary(rng, 5)})
	}
	for i, c := range cases {
		for j, a := range referenceAssignments(rng, c.tr, c.lib) {
			got, want := elmore.Analyze(c.tr, a), analyzeReference(c.tr, a)
			switch {
			case !sameBits(got.Cap, want.Cap), !sameBits(got.Drive, want.Drive),
				!sameBits(got.Arrival, want.Arrival), !sameBits(got.SinkSlack, want.SinkSlack):
				t.Fatalf("case %d, assignment %d: per-node values differ from the reference", i, j)
			case math.Float64bits(got.WorstSlack) != math.Float64bits(want.WorstSlack),
				got.WorstSink != want.WorstSink,
				math.Float64bits(got.MaxDelay) != math.Float64bits(want.MaxDelay):
				t.Fatalf("case %d, assignment %d: worst slack %v at %d, max delay %v; reference %v at %d, %v",
					i, j, got.WorstSlack, got.WorstSink, got.MaxDelay, want.WorstSlack, want.WorstSink, want.MaxDelay)
			}
		}
	}
}
