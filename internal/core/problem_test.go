package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
)

// TestOptimizeMatchesLegacyEntryPoints is the dispatch gate: for each of
// the paper's five tool configurations (BuffOpt, BuffOpt(k), DelayOpt,
// DelayOpt(k), the minimum-buffer BuffOpt), plus BuffOpt under safe
// pruning and under wire sizing, Optimize's answer on every net of the
// differential corpus hashes to the digest recorded in
// testdata/dispatch_digests.json — the answers of the per-configuration
// runners that the one objective dispatch replaced. A digest covers the
// slack bits, cost, placements and widths (or the error class), so a
// wrong objective/bound switch cannot hide. Short mode checks the first
// eight nets.
func TestOptimizeMatchesLegacyEntryPoints(t *testing.T) {
	raw, err := os.ReadFile("testdata/dispatch_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	nets, lib, p := diffCorpus(t, 16)
	k := 8

	cases := []struct {
		name    string
		problem Problem
		opts    Options
	}{
		{"BuffOpt", Problem{Library: lib, Params: p, Objective: MaxSlackNoise}, Options{}},
		{"BuffOptK", Problem{Library: lib, Params: p, Objective: MaxSlackNoise, MaxBuffers: &k}, Options{}},
		{"DelayOpt", Problem{Library: lib, Objective: MaxSlack}, Options{}},
		{"DelayOptK", Problem{Library: lib, Objective: MaxSlack, MaxBuffers: &k}, Options{}},
		{"BuffOptMinBuffers", Problem{Library: lib, Params: p, Objective: MinBuffersNoise}, Options{}},
		{"BuffOpt/safe-pruning", Problem{Library: lib, Params: p, Objective: MaxSlackNoise},
			Options{SafePruning: true}},
		{"BuffOpt/sizing", Problem{Library: lib, Params: p, Objective: MaxSlackNoise},
			Options{Sizing: &Sizing{Widths: []float64{1, 2, 4}}}},
	}
	if len(want) != len(cases) {
		t.Fatalf("digest file has %d cases, the test %d", len(want), len(cases))
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digests := want[tc.name]
			n := len(nets)
			if tc.opts.Sizing != nil {
				n = 6
			}
			if len(digests) != n {
				t.Fatalf("digest file has %d nets, want %d", len(digests), n)
			}
			if testing.Short() {
				n = min(n, 8)
			}
			for i, tr := range nets[:n] {
				pr := tc.problem
				pr.Tree = tr
				res, err := Optimize(context.Background(), pr, tc.opts)
				b := []byte("error:" + guard.Class(err))
				if err == nil {
					b = resultJSON(t, res)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:8]); got != digests[i] {
					t.Errorf("net %d: answer digest %s, recorded %s (%s)", i, got, digests[i], b)
				}
			}
		})
	}
}

// TestEntryPointValidationTaxonomy pins the satellite fix: every
// entry-point validation failure wraps guard.ErrInvalidInput, so the
// server maps it to 400, not 500.
func TestEntryPointValidationTaxonomy(t *testing.T) {
	tr, lib, p := noisySegmentedY(t, 2), lib3(), noise.Params{CouplingRatio: 0.7, Slope: 7.2e9}
	bad := -1
	cases := []struct {
		name string
		call func() error
	}{
		{"DelayOptK negative k", func() error {
			_, err := Optimize(context.Background(), Problem{
				Tree: tr, Library: lib, Objective: MaxSlack, MaxBuffers: &bad,
			}, Options{})
			return err
		}},
		{"BuffOptK negative k", func() error {
			_, err := Optimize(context.Background(), Problem{
				Tree: tr, Library: lib, Params: p, Objective: MaxSlackNoise, MaxBuffers: &bad,
			}, Options{})
			return err
		}},
		{"Optimize negative bound", func() error {
			_, err := Optimize(context.Background(), Problem{
				Tree: tr, Library: lib, Objective: MaxSlack, MaxBuffers: &bad,
			}, Options{})
			return err
		}},
		{"nil tree", func() error {
			_, err := Optimize(context.Background(), Problem{Library: lib, Objective: MaxSlack}, Options{})
			return err
		}},
		{"nil library", func() error {
			_, err := Optimize(context.Background(), Problem{Tree: tr, Objective: MaxSlack}, Options{})
			return err
		}},
		{"empty library", func() error {
			_, err := Optimize(context.Background(), Problem{Tree: tr, Library: &buffers.Library{}, Objective: MaxSlack}, Options{})
			return err
		}},
		{"unknown objective", func() error {
			_, err := Optimize(context.Background(), Problem{
				Tree: tr, Library: lib, Objective: Objective(99),
			}, Options{})
			return err
		}},
		{"MinBuffersNoise with bound", func() error {
			k := 4
			_, err := Optimize(context.Background(), Problem{
				Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise, MaxBuffers: &k,
			}, Options{})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, guard.ErrInvalidInput) {
				t.Fatalf("error %v is not guard.ErrInvalidInput; the server would answer 500, not 400", err)
			}
		})
	}
}

// TestOptimizeHonorsContext: a canceled ctx reaches the inner loops even
// with no caller-provided budget.
func TestOptimizeHonorsContext(t *testing.T) {
	tr, lib := noisySegmentedY(t, 2), lib3()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Optimize(ctx, Problem{Tree: tr, Library: lib, Objective: MaxSlack}, Options{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("Optimize under canceled ctx: %v, want guard.ErrCanceled", err)
	}
}

// ParseObjective round-trips every named objective and rejects junk with
// the invalid-input class.
func TestObjectiveParseRoundTrip(t *testing.T) {
	for o := MaxSlack; o <= MinBuffersNoise; o++ {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseObjective("bogus"); !errors.Is(err, guard.ErrInvalidInput) {
		t.Errorf("ParseObjective junk error = %v", err)
	}
}

// hashProblem is the stability suite's base problem builder: a small
// two-sink net with explicit aggressors on one wire, so every hashed
// field is exercised.
func hashTree(driverR, driverT float64, mutate func(*rctree.Tree)) *rctree.Tree {
	tr := rctree.New("base", driverR, driverT)
	v1, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 1, C: 2, Length: 3}, true)
	tr.AddSink(v1, rctree.Wire{R: 4, C: 5, Length: 6, Aggressors: []rctree.Coupling{{Ratio: 0.5, Slope: 7e9}}},
		"s1", 0.1, 1.0, 0.8)
	tr.AddSink(v1, rctree.Wire{R: 7, C: 8, Length: 9}, "s2", 0.2, 2.0, 0.9)
	if mutate != nil {
		mutate(tr)
	}
	return tr
}

func hashProblem(tr *rctree.Tree) Problem {
	return Problem{
		Tree:      tr,
		Library:   lib3(),
		Params:    noise.Params{CouplingRatio: 0.7, Slope: 7.2e9},
		Objective: MinBuffersNoise,
	}
}

func TestCanonicalHashStability(t *testing.T) {
	base := hashProblem(hashTree(10, 0.5, nil)).CanonicalHash()

	t.Run("deterministic", func(t *testing.T) {
		if got := hashProblem(hashTree(10, 0.5, nil)).CanonicalHash(); got != base {
			t.Error("same problem hashed differently across calls")
		}
	})

	t.Run("names and coordinates excluded", func(t *testing.T) {
		tr := rctree.New("RENAMED", 10, 0.5)
		v1, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 1, C: 2, Length: 3}, true)
		tr.Node(v1).X, tr.Node(v1).Y = 42, 43
		tr.AddSink(v1, rctree.Wire{R: 4, C: 5, Length: 6, Aggressors: []rctree.Coupling{{Ratio: 0.5, Slope: 7e9}}},
			"other1", 0.1, 1.0, 0.8)
		tr.AddSink(v1, rctree.Wire{R: 7, C: 8, Length: 9}, "other2", 0.2, 2.0, 0.9)
		if got := hashProblem(tr).CanonicalHash(); got != base {
			t.Error("renamed/replaced labels changed the hash; labels must be excluded")
		}
	})

	t.Run("node numbering excluded", func(t *testing.T) {
		// Same topology and per-parent child order, different global
		// creation order (hence different node IDs): build both sinks'
		// parent chains interleaved. Here: two internals under the root,
		// each with one sink, created a-then-b versus sinks b-then-a.
		build := func(order []int) *rctree.Tree {
			tr := rctree.New("n", 10, 0.5)
			a, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 1, C: 1, Length: 1}, true)
			b, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 2, C: 2, Length: 2}, true)
			parents := []rctree.NodeID{a, b}
			wires := []rctree.Wire{{R: 3, C: 3, Length: 3}, {R: 4, C: 4, Length: 4}}
			for _, i := range order {
				tr.AddSink(parents[i], wires[i], "s", 0.1, 1, 0.8)
			}
			return tr
		}
		h1 := hashProblem(build([]int{0, 1})).CanonicalHash()
		h2 := hashProblem(build([]int{1, 0})).CanonicalHash()
		if h1 != h2 {
			t.Error("node renumbering changed the hash; IDs must be excluded")
		}
	})

	t.Run("sibling order included", func(t *testing.T) {
		// Swapping the order of children under one parent changes the
		// branch-merge order, which can steer tie-breaking: distinct key.
		tr := rctree.New("base", 10, 0.5)
		v1, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 1, C: 2, Length: 3}, true)
		tr.AddSink(v1, rctree.Wire{R: 7, C: 8, Length: 9}, "s2", 0.2, 2.0, 0.9)
		tr.AddSink(v1, rctree.Wire{R: 4, C: 5, Length: 6, Aggressors: []rctree.Coupling{{Ratio: 0.5, Slope: 7e9}}},
			"s1", 0.1, 1.0, 0.8)
		if got := hashProblem(tr).CanonicalHash(); got == base {
			t.Error("sibling swap kept the hash; merge order is output-affecting")
		}
	})

	t.Run("parasitic perturbations included", func(t *testing.T) {
		perturb := map[string]func(*rctree.Tree){
			"wire R":       func(tr *rctree.Tree) { tr.Node(1).Wire.R += 1e-12 },
			"wire C":       func(tr *rctree.Tree) { tr.Node(1).Wire.C += 1e-12 },
			"wire length":  func(tr *rctree.Tree) { tr.Node(1).Wire.Length += 1e-12 },
			"sink cap":     func(tr *rctree.Tree) { tr.Node(2).Cap += 1e-12 },
			"sink RAT":     func(tr *rctree.Tree) { tr.Node(2).RAT += 1e-12 },
			"noise margin": func(tr *rctree.Tree) { tr.Node(2).NoiseMargin += 1e-12 },
			"buffer site":  func(tr *rctree.Tree) { tr.Node(1).BufferOK = false },
			"aggr ratio":   func(tr *rctree.Tree) { tr.Node(2).Wire.Aggressors[0].Ratio += 1e-12 },
			"aggr slope":   func(tr *rctree.Tree) { tr.Node(2).Wire.Aggressors[0].Slope += 1 },
			"aggr nil vs empty": func(tr *rctree.Tree) {
				tr.Node(3).Wire.Aggressors = []rctree.Coupling{}
			},
		}
		for name, f := range perturb {
			if got := hashProblem(hashTree(10, 0.5, f)).CanonicalHash(); got == base {
				t.Errorf("%s perturbation kept the hash", name)
			}
		}
		if got := hashProblem(hashTree(11, 0.5, nil)).CanonicalHash(); got == base {
			t.Error("driver resistance perturbation kept the hash")
		}
		if got := hashProblem(hashTree(10, 0.6, nil)).CanonicalHash(); got == base {
			t.Error("driver delay perturbation kept the hash")
		}
	})

	t.Run("library included", func(t *testing.T) {
		p := hashProblem(hashTree(10, 0.5, nil))
		libs := map[string]func(*buffers.Library){
			"Cin":    func(l *buffers.Library) { l.Buffers[0].Cin += 1e-12 },
			"R":      func(l *buffers.Library) { l.Buffers[0].R += 1e-12 },
			"T":      func(l *buffers.Library) { l.Buffers[0].T += 1e-12 },
			"margin": func(l *buffers.Library) { l.Buffers[0].NoiseMargin += 1e-12 },
			"name":   func(l *buffers.Library) { l.Buffers[0].Name += "x" },
			"weight": func(l *buffers.Library) { l.Buffers[0].Weight = 7 },
			"drop":   func(l *buffers.Library) { l.Buffers = l.Buffers[:len(l.Buffers)-1] },
		}
		for name, f := range libs {
			l := &buffers.Library{Buffers: append([]buffers.Buffer(nil), lib3().Buffers...)}
			f(l)
			p.Library = l
			if got := p.CanonicalHash(); got == base {
				t.Errorf("library %s perturbation kept the hash", name)
			}
		}
	})

	t.Run("objective and bound included", func(t *testing.T) {
		p := hashProblem(hashTree(10, 0.5, nil))
		p.Objective = MaxSlackNoise
		h1 := p.CanonicalHash()
		if h1 == base {
			t.Error("objective change kept the hash")
		}
		k := 8
		p.MaxBuffers = &k
		h2 := p.CanonicalHash()
		if h2 == h1 {
			t.Error("adding a count bound kept the hash")
		}
		k2 := 9
		p.MaxBuffers = &k2
		if p.CanonicalHash() == h2 {
			t.Error("changing the count bound kept the hash")
		}
	})

	t.Run("params ignored iff noise-free", func(t *testing.T) {
		p := hashProblem(hashTree(10, 0.5, nil))
		p.Objective = MaxSlack
		h1 := p.CanonicalHash()
		p.Params.CouplingRatio = 0.2
		if p.CanonicalHash() != h1 {
			t.Error("MaxSlack hash depends on noise params it never reads")
		}
		p.Objective = MinBuffersNoise
		h2 := p.CanonicalHash()
		p.Params.Slope = 1e9
		if p.CanonicalHash() == h2 {
			t.Error("noise-objective hash ignored a params change")
		}
	})
}
