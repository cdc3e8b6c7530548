package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// Tests of what an answer and a session share: a Delta answer's tree is
// the session's snapshot, which no later edit writes; a plain answer's
// tree is a private copy; and an edit keeps nothing the caller can still
// write to.

// answerBytes is the answer's snapshot encoding and its tree's subtree
// hash: what a reader of the answer sees.
func answerBytes(t *testing.T, res *Result) ([]byte, rctree.SubtreeHash) {
	t.Helper()
	b, err := EncodeSolveResult("k", &SolveResult{Result: res, Tier: TierExact})
	if err != nil {
		t.Fatal(err)
	}
	return b, res.Tree.SubtreeHashes()[res.Tree.Root()]
}

// TestDeltaAnswersReadOnly holds every Delta answer of a 200-edit stream
// (set-cap, set-rat, set-wire, grafts and prunes, sizing every fifth
// run) and checks, after the whole stream, that none changed: each
// answer's encoding and tree hash are what they were when Delta returned
// it. A value-only batch without sizing answers on the session's
// snapshot itself, and a sized one on a private copy.
func TestDeltaAnswersReadOnly(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 6)
	p := Problem{Tree: nets[5], Library: lib, Params: params, Objective: MaxSlackNoise}
	s, err := NewSession(p, SessionConfig{MemoBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	type held struct {
		res  *Result
		enc  []byte
		hash rctree.SubtreeHash
	}
	var answers []held
	shared := 0
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 200; step++ {
		var opts Options
		if step%5 == 4 {
			opts.Sizing = &Sizing{Widths: []float64{1, 2}}
		}
		e := ecoEdit(s, rng, p.Tree.Len())
		res, err := Delta(context.Background(), s, []Edit{e}, opts)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, e.Op, err)
		}
		switch {
		case res.Widths != nil && res.Tree == s.p.Tree:
			t.Fatalf("step %d: a sized answer shares the session's snapshot", step)
		case res.Widths == nil && res.Tree != s.p.Tree:
			t.Fatalf("step %d: an unsized answer copied the session's snapshot", step)
		case res.Widths == nil:
			shared++
		}
		enc, hash := answerBytes(t, res.Result)
		answers = append(answers, held{res.Result, enc, hash})
	}
	for i, a := range answers {
		enc, hash := answerBytes(t, a.res)
		if !bytes.Equal(enc, a.enc) || hash != a.hash {
			t.Fatalf("answer %d changed after later edits", i)
		}
	}
	if shared == 0 {
		t.Fatal("no answer shared the session's snapshot")
	}
}

// TestOptimizeReadOnly: Optimize and Solve never write their input tree,
// and an answer is a private copy no later solve on the same input
// writes.
func TestOptimizeReadOnly(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 4)
	for i, tr := range nets {
		in, inHash := answerBytes(t, &Result{Solution: &Solution{Tree: tr, Buffers: map[rctree.NodeID]buffers.Buffer{}}})
		p := Problem{Tree: tr, Library: lib, Params: params, Objective: MaxSlackNoise}
		first, err := Optimize(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first.Tree == tr {
			t.Fatalf("net %d: the answer shares the caller's tree", i)
		}
		enc, hash := answerBytes(t, first)
		for _, opts := range []Options{{}, {Sizing: &Sizing{Widths: []float64{1, 2}}}, {SafePruning: true}} {
			if _, err := Optimize(context.Background(), p, opts); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Solve(context.Background(), tr, lib, params, Options{}); err != nil {
			t.Fatal(err)
		}
		if got, h := answerBytes(t, &Result{Solution: &Solution{Tree: tr, Buffers: map[rctree.NodeID]buffers.Buffer{}}}); !bytes.Equal(got, in) || h != inHash {
			t.Fatalf("net %d: a solve wrote the caller's tree", i)
		}
		if got, h := answerBytes(t, first); !bytes.Equal(got, enc) || h != hash {
			t.Fatalf("net %d: the first answer changed under later solves", i)
		}
	}
}

// TestDeltaEditNotRetained: an edit keeps nothing of the caller's. Writing
// into a set-wire's or a graft's aggressor slice after Delta returns
// leaves the session's tree, its hashes and the answer as they were.
func TestDeltaEditNotRetained(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 2)
	s, err := NewSession(Problem{Tree: nets[1], Library: lib, Params: params, Objective: MaxSlackNoise}, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Tree()
	sink := tr.Sinks()[0]
	w := tr.Node(sink).Wire
	w.Aggressors = []rctree.Coupling{{Ratio: 0.5, Slope: params.Slope}}
	gw := rctree.Wire{R: 80, C: 20e-15, Length: 0.3e-3, Aggressors: []rctree.Coupling{{Ratio: 0.25, Slope: params.Slope}}}
	var host rctree.NodeID = -1
	for v := 0; v < tr.Len(); v++ {
		if n := tr.Node(rctree.NodeID(v)); n.Kind != rctree.Sink && len(n.Children) < 2 {
			host = rctree.NodeID(v)
			break
		}
	}
	edits := []Edit{{Op: EditSetWire, Node: sink, Wire: w}}
	if host >= 0 {
		edits = append(edits, Edit{Op: EditGraft, Node: host, Wire: gw, Sub: graftDonor(rand.New(rand.NewSource(2)))})
	}
	res, err := Delta(context.Background(), s, edits, Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, hash := answerBytes(t, res.Result)
	w.Aggressors[0].Ratio = 7
	gw.Aggressors[0].Ratio = 7
	if err := s.Tree().Validate(); err != nil {
		t.Fatalf("a write to the caller's edit reached the session's tree: %v", err)
	}
	if fresh := s.p.Tree.SubtreeHashes(); !slices.Equal(fresh, s.hashes) {
		t.Fatal("a write to the caller's edit left the session's subtree hashes stale")
	}
	if got, h := answerBytes(t, res.Result); !bytes.Equal(got, enc) || h != hash {
		t.Fatal("a write to the caller's edit changed the answer")
	}
	if host < 0 {
		t.Log("no graft host; only set-wire checked")
	}
}

// TestValueEditChecksItsNode: a set-cap, set-rat or set-wire edit runs
// Validate's own check of the node it touches, and nothing stricter. It
// rejects what Validate rejects (a coupling ratio outside [0, 1], a
// negative or non-finite aggressor slope, a non-finite parameter), and
// accepts a wire whose finite R, C and length overflow only when summed.
func TestValueEditChecksItsNode(t *testing.T) {
	nets, _, _ := diffCorpus(t, 1)
	tr := nets[0]
	sink := tr.Sinks()[0]
	wire := func(mod func(*rctree.Wire)) Edit {
		w := tr.Node(sink).Wire
		mod(&w)
		return Edit{Op: EditSetWire, Node: sink, Wire: w}
	}
	for _, bad := range []Edit{
		wire(func(w *rctree.Wire) { w.Aggressors = []rctree.Coupling{{Ratio: 7, Slope: 1}} }),
		wire(func(w *rctree.Wire) { w.Aggressors = []rctree.Coupling{{Ratio: -0.1, Slope: 1}} }),
		wire(func(w *rctree.Wire) { w.Aggressors = []rctree.Coupling{{Ratio: 0.5, Slope: -1}} }),
		wire(func(w *rctree.Wire) { w.Aggressors = []rctree.Coupling{{Ratio: 0.5, Slope: math.Inf(1)}} }),
		wire(func(w *rctree.Wire) { w.C = math.NaN() }),
		{Op: EditSetCap, Node: sink, Value: -1e-15},
		{Op: EditSetRAT, Node: sink, Value: math.Inf(-1)},
	} {
		work := tr.Clone()
		if _, err := applyEdit(work, work.SubtreeHashes(), bad); !errors.Is(err, guard.ErrInvalidInput) {
			t.Errorf("edit %+v: error %v, want guard.ErrInvalidInput", bad, err)
		}
	}
	work := tr.Clone()
	big := wire(func(w *rctree.Wire) { w.R, w.Length = math.MaxFloat64, math.MaxFloat64 })
	if _, err := applyEdit(work, work.SubtreeHashes(), big); err != nil {
		t.Fatalf("a finite wire whose fields overflow when summed: %v", err)
	}
	if err := work.Validate(); err != nil {
		t.Fatalf("the accepted edit left a tree Validate rejects: %v", err)
	}
}

// reachOnce walks candidate c's solution and reports a row reached twice,
// or a node given two buffers or two widths: what collectSol's walk,
// which keeps no visited set, relies on never happening.
func reachOnce(tab *linkTab, c vgCand) error {
	rows := map[int32]bool{}
	decided := map[solPick]bool{}
	decide := func(node rctree.NodeID, kind int16) error {
		if kind == 0 {
			return nil
		}
		k := solPick{node, 1} // one buffer and one width per node
		if kind < 0 {
			k.kind = -1
		}
		if decided[k] {
			return fmt.Errorf("node %d decided twice (kind %d)", node, kind)
		}
		decided[k] = true
		return nil
	}
	if err := decide(c.node, c.kind); err != nil {
		return err
	}
	for stack := []int32{c.sol}; len(stack) > 0; {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ref == 0 {
			continue
		}
		if rows[ref] {
			return fmt.Errorf("row %d reached twice", ref)
		}
		rows[ref] = true
		r := tab.row(ref)
		if err := decide(r.node, r.kind); err != nil {
			return err
		}
		stack = append(stack, r.prev[0], r.prev[1])
	}
	return nil
}

// TestCollectSolReachesRowsOnce: no solution reaches a row twice or
// decides a node twice — every root candidate of every corpus net under
// every DP profile, serial and on four workers, and every candidate of
// every memo entry a session holds over a 300-edit stream with grafts,
// prunes, relocations, compactions and sizing every fifth run.
func TestCollectSolReachesRowsOnce(t *testing.T) {
	t.Parallel()
	nets, lib, params := diffCorpus(t, 40)
	for _, prof := range diffProfiles(params) {
		for i, tr := range nets {
			if prof.name == "sizing" && i >= 12 {
				break
			}
			for _, workers := range []int{1, 4} {
				opts := prof.opts
				opts.dp.workers = workers
				opts.tab = &linkTab{}
				cands, err := runVG(tr, lib, opts)
				if err != nil {
					t.Fatal(err)
				}
				for j, c := range cands {
					if err := reachOnce(opts.tab, c); err != nil {
						t.Fatalf("%s, net %d, workers %d, candidate %d: %v", prof.name, i, workers, j, err)
					}
				}
			}
		}
	}

	p := Problem{Tree: nets[0], Library: lib, Params: params, Objective: MaxSlackNoise}
	s, err := NewSession(p, SessionConfig{MemoBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 300; step++ {
		opts := Options{dp: dpOverride{workers: 1 + 3*(step%2)}}
		if step%5 == 4 {
			opts.Sizing = &Sizing{Widths: []float64{1, 2}}
		}
		if _, err := Delta(context.Background(), s, []Edit{ecoEdit(s, rng, p.Tree.Len())}, opts); err != nil {
			t.Fatal(err)
		}
		for _, e := range s.memo.Entries() {
			for j, c := range e.Val.cands {
				if err := reachOnce(&s.tab, c); err != nil {
					t.Fatalf("step %d, memo candidate %d: %v", step, j, err)
				}
			}
		}
	}
}
