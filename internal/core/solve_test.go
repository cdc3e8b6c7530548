package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// eightBufferLib returns a library with eight distinct non-inverting
// buffer types, the size used by the oversized acceptance scenario.
func eightBufferLib() *buffers.Library {
	lib := &buffers.Library{}
	for i := 0; i < 8; i++ {
		lib.Buffers = append(lib.Buffers, buffers.Buffer{
			Name:        string(rune('A' + i)),
			Cin:         0.02 + 0.01*float64(i),
			R:           0.5 + 0.25*float64(i),
			T:           0.1 + 0.05*float64(i),
			NoiseMargin: 5,
		})
	}
	return lib
}

// fanoutTree builds a source driving branches sinks over long noisy
// wires, segmented into roughly segments legal buffer sites.
func fanoutTree(t testing.TB, branches, segments int) *rctree.Tree {
	t.Helper()
	tr := rctree.New("fan", 1.5, 0)
	for i := 0; i < branches; i++ {
		if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 30, C: 30, Length: 30}, "s"+string(rune('a'+i)), 0.1, 1e5, 5); err != nil {
			t.Fatal(err)
		}
	}
	tr.Binarize()
	if _, err := segment.ByCount(tr, segments); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSolveExactTier checks that with no deadline and no caps, Solve
// answers from the exact tier and reports no degradation.
func TestSolveExactTier(t *testing.T) {
	tr := buildNoisyY(t)
	if _, err := segment.ByCount(tr, 40); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), tr, lib2(), unitParams, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierExact || res.Degraded {
		t.Fatalf("Tier = %v, Degraded = %v, want exact/undegraded", res.Tier, res.Degraded)
	}
	if len(res.TierErrors) != 0 {
		t.Fatalf("TierErrors = %v, want none", res.TierErrors)
	}
	if !noise.Analyze(res.Tree, res.Buffers, unitParams).Clean() {
		t.Fatal("exact-tier solution not noise clean")
	}
}

// TestSolveOversizedNetDegrades is the acceptance scenario: a 5k-segment
// fanout tree with 8 buffer types and SafePruning under a 100 ms budget
// must return degraded output promptly instead of hanging.
func TestSolveOversizedNetDegrades(t *testing.T) {
	tr := fanoutTree(t, 4, 5000)
	lib := eightBufferLib()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	start := time.Now()
	res, err := Solve(ctx, tr, lib, unitParams, Options{SafePruning: true})
	elapsed := time.Since(start)

	if err != nil {
		t.Fatalf("Solve returned no output: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("a 5k-segment SafePruning solve finished exactly in 100 ms? Tier = %v", res.Tier)
	}
	if len(res.TierErrors) == 0 {
		t.Fatal("degraded result carries no tier errors")
	}
	budgetTripped := false
	for _, te := range res.TierErrors {
		if errors.Is(te, guard.ErrBudgetExceeded) || errors.Is(te, guard.ErrCanceled) {
			budgetTripped = true
		}
	}
	if !budgetTripped {
		t.Fatalf("no tier failed on the budget: %v", res.TierErrors)
	}
	// "Promptly": the ladder's shares bound the total well under the
	// test timeout; allow generous slack for race-mode and loaded CI.
	if elapsed > 10*time.Second {
		t.Fatalf("Solve took %v under a 100 ms budget", elapsed)
	}
	if res.Result == nil || res.Tree == nil {
		t.Fatal("degraded result has no solution")
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("degraded solution tree invalid: %v", err)
	}
}

// TestSolveCandidateCapDegrades exhausts the candidate budget (not the
// clock) and checks the ladder lands on a heuristic tier.
func TestSolveCandidateCapDegrades(t *testing.T) {
	tr := buildNoisyY(t)
	if _, err := segment.ByCount(tr, 40); err != nil {
		t.Fatal(err)
	}
	b := guard.New(context.Background())
	b.MaxCandidates = 2
	res, err := Solve(context.Background(), tr, lib2(), unitParams, Options{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("Tier = %v with a 2-candidate cap, want degraded", res.Tier)
	}
	found := false
	for _, te := range res.TierErrors {
		if errors.Is(te, guard.ErrBudgetExceeded) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ErrBudgetExceeded in %v", res.TierErrors)
	}
}

// TestSolveCanceledContext checks a pre-canceled context aborts the whole
// ladder with ErrCanceled instead of degrading.
func TestSolveCanceledContext(t *testing.T) {
	tr := buildNoisyY(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, tr, lib2(), unitParams, Options{})
	if res != nil {
		t.Fatalf("got a result from a canceled context: tier %v", res.Tier)
	}
	if !errors.Is(err, guard.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestSolveInvalidInput checks bad parameters abort immediately with the
// invalid-input class rather than burning the ladder.
func TestSolveInvalidInput(t *testing.T) {
	tr := buildNoisyY(t)
	bad := noise.Params{CouplingRatio: 1, Slope: -1}
	_, err := Solve(context.Background(), tr, lib2(), bad, Options{})
	if !errors.Is(err, guard.ErrInvalidInput) {
		t.Fatalf("err = %v, want ErrInvalidInput", err)
	}
}

// TestSolveUnfixableAborts checks that a net the exact tier proves
// noise-infeasible aborts with ErrNoiseUnfixable instead of returning a
// heuristic answer that silently violates the constraints.
func TestSolveUnfixableAborts(t *testing.T) {
	// A sink with a tiny noise margin on a long noisy wire: even a buffer
	// at the sink's doorstep violates.
	tr := rctree.New("bad", 1, 0)
	if _, err := tr.AddSink(tr.Root(), rctree.Wire{R: 10, C: 10, Length: 10}, "s", 0.1, 0, 1e-6); err != nil {
		t.Fatal(err)
	}
	if _, err := segment.ByCount(tr, 10); err != nil {
		t.Fatal(err)
	}
	_, err := Solve(context.Background(), tr, lib2(), unitParams, Options{})
	if !errors.Is(err, ErrNoiseUnfixable) {
		t.Fatalf("err = %v, want ErrNoiseUnfixable", err)
	}
	if !errors.Is(err, guard.ErrInfeasible) {
		t.Fatalf("err = %v, should also wrap guard.ErrInfeasible", err)
	}
}

// TestCancellationMidRun checks the DP notices deadline expiry mid-run,
// returns promptly with ErrCanceled, and leaves the input tree untouched.
func TestCancellationMidRun(t *testing.T) {
	tr := fanoutTree(t, 4, 3000)
	lib := eightBufferLib()
	before := tr.Len()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	b := guard.New(ctx)

	start := time.Now()
	_, err := Optimize(b.Context(), Problem{
		Tree: tr, Library: lib, Params: unitParams, Objective: MaxSlackNoise,
	}, Options{SafePruning: true, Budget: b})
	elapsed := time.Since(start)

	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, should expose the deadline cause", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to surface", elapsed)
	}
	// No partial-state corruption: the input tree is never modified.
	if tr.Len() != before {
		t.Fatalf("input tree grew from %d to %d nodes", before, tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("input tree corrupted: %v", err)
	}
}

// TestCancellationAlgorithms checks the Algorithm 1/2 and greedy budget
// variants all honor a canceled context.
func TestCancellationAlgorithms(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := guard.New(ctx)

	line := rctree.New("l", 1, 0)
	if _, err := line.AddSink(line.Root(), rctree.Wire{R: 100, C: 100, Length: 100}, "s", 0.1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Algorithm1Budget(line, singleBufferLib(), unitParams, b); !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("Algorithm1Budget err = %v, want ErrCanceled", err)
	}

	y := buildNoisyY(t)
	if _, err := Algorithm2Budget(y, lib2(), unitParams, b); !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("Algorithm2Budget err = %v, want ErrCanceled", err)
	}
	if _, err := GreedyIterative(y, lib2(), GreedyOptions{Noise: true, Params: unitParams, Budget: b}); !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("GreedyIterative err = %v, want ErrCanceled", err)
	}
	if _, _, _, err := ExhaustiveMinBuffersNoiseBudget(y, lib2(), unitParams, b); !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("ExhaustiveMinBuffersNoiseBudget err = %v, want ErrCanceled", err)
	}
}

// TestBudgetTreeNodeCap checks the tree-size cap fires before any work.
func TestBudgetTreeNodeCap(t *testing.T) {
	tr := fanoutTree(t, 2, 100)
	b := guard.New(context.Background())
	b.MaxTreeNodes = 10
	if _, err := Optimize(b.Context(), Problem{
		Tree: tr, Library: singleBufferLib(), Params: unitParams, Objective: MaxSlackNoise,
	}, Options{Budget: b}); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
