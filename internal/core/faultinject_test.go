package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/faultinject"
	"buffopt/internal/guard"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// injectorFor builds a rate-1 injector for a single fault, so the test's
// one request is guaranteed to draw it.
func injectorFor(t *testing.T, f faultinject.Fault, delay time.Duration) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.New(faultinject.Config{
		Seed:      1,
		Rates:     map[faultinject.Fault]float64{f: 1},
		SlowDelay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func faultTree(t *testing.T) *rctree.Tree {
	t.Helper()
	tr := buildNoisyY(t)
	if _, err := segment.ByCount(tr, 40); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSolveAbsorbsSpuriousCancel: an injected mid-flight cancellation
// fails exactly one tier with ErrCanceled while the real context stays
// live, and the ladder answers from the next tier instead of aborting.
func TestSolveAbsorbsSpuriousCancel(t *testing.T) {
	inj := injectorFor(t, faultinject.FaultCancel, 0)
	ctx := faultinject.WithPlan(context.Background(), inj.Assign())

	res, err := Solve(ctx, faultTree(t), lib2(), unitParams, Options{})
	if err != nil {
		t.Fatalf("Solve aborted on an injected cancel: %v", err)
	}
	// Later tiers may hit their own (tighter) caps; the injected cancel
	// must be the first rung's failure.
	if !res.Degraded || len(res.TierErrors) == 0 {
		t.Fatalf("Degraded = %v, TierErrors = %v, want a degradation step", res.Degraded, res.TierErrors)
	}
	te := res.TierErrors[0]
	if te.Tier != TierExact || !errors.Is(te, guard.ErrCanceled) || !errors.Is(te, faultinject.ErrInjected) {
		t.Fatalf("TierErrors[0] = %v, want exact tier failing with injected ErrCanceled", te)
	}
	if got := inj.Consumed(faultinject.FaultCancel); got != 1 {
		t.Fatalf("consumed = %d, want exactly 1", got)
	}
}

// faultDoors are core's answer doors, each running one request on
// faultTree: the Solve ladder, Optimize under every objective, and a
// session's Delta. Non-ladder answers come back wrapped as exact
// SolveResults, the way the server wraps them.
var faultDoors = []struct {
	name   string
	ladder bool
	solve  func(t *testing.T, ctx context.Context) (*SolveResult, error)
}{
	{"Solve", true, func(t *testing.T, ctx context.Context) (*SolveResult, error) {
		return Solve(ctx, faultTree(t), lib2(), unitParams, Options{})
	}},
	{"Optimize/" + MaxSlack.String(), false, optimizeDoor(MaxSlack)},
	{"Optimize/" + MaxSlackNoise.String(), false, optimizeDoor(MaxSlackNoise)},
	{"Optimize/" + MinBuffersNoise.String(), false, optimizeDoor(MinBuffersNoise)},
	{"Delta", false, func(t *testing.T, ctx context.Context) (*SolveResult, error) {
		s, err := NewSession(Problem{
			Tree: faultTree(t), Library: lib2(), Params: unitParams, Objective: MinBuffersNoise,
		}, SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Delta(ctx, s, nil, Options{})
		if err != nil {
			return nil, err
		}
		return &SolveResult{Result: res.Result}, nil
	}},
}

func optimizeDoor(o Objective) func(t *testing.T, ctx context.Context) (*SolveResult, error) {
	return func(t *testing.T, ctx context.Context) (*SolveResult, error) {
		res, err := Optimize(ctx, Problem{
			Tree: faultTree(t), Library: lib2(), Params: unitParams, Objective: o,
		}, Options{})
		if err != nil {
			return nil, err
		}
		return &SolveResult{Result: res}, nil
	}
}

// checkBooks asserts the injector's exactly-once accounting: the one
// assigned fault was consumed exactly once.
func checkBooks(t *testing.T, inj *faultinject.Injector, f faultinject.Fault) {
	t.Helper()
	if a, c := inj.Assigned(f), inj.Consumed(f); a != 1 || c != 1 {
		t.Fatalf("%s: assigned %d, consumed %d; want exactly 1 each", f, a, c)
	}
}

// TestSolveCatchesMalformedResult: an injected result corruption (NaN
// slack, the undetected-malformed-candidate scenario) is caught by the
// answer gate on every door and classified "internal". The ladder
// degrades past it; Optimize and Delta return it.
func TestSolveCatchesMalformedResult(t *testing.T) {
	for _, door := range faultDoors {
		t.Run(door.name, func(t *testing.T) {
			inj := injectorFor(t, faultinject.FaultMalformed, 0)
			ctx := faultinject.WithPlan(context.Background(), inj.Assign())

			res, err := door.solve(t, ctx)
			checkBooks(t, inj, faultinject.FaultMalformed)
			if !door.ladder {
				if !errors.Is(err, guard.ErrInternal) || guard.Class(err) != "internal" {
					t.Fatalf("err = %v (class %q), want ErrInternal", err, guard.Class(err))
				}
				return
			}
			if err != nil {
				t.Fatalf("Solve aborted on an injected corruption: %v", err)
			}
			if !res.Degraded || len(res.TierErrors) == 0 {
				t.Fatalf("Degraded = %v, TierErrors = %v, want a degradation step", res.Degraded, res.TierErrors)
			}
			te := res.TierErrors[0]
			if te.Tier != TierExact || !errors.Is(te, guard.ErrInternal) {
				t.Fatalf("TierErrors[0] = %v, want exact tier failing with ErrInternal", te)
			}
			if guard.Class(te.Err) != "internal" {
				t.Fatalf("class = %q, want internal", guard.Class(te.Err))
			}
			// The answer that did come back is clean.
			if math.IsNaN(res.Slack) || math.IsInf(res.Slack, 0) {
				t.Fatalf("degraded answer still poisoned: slack %g", res.Slack)
			}
		})
	}
}

// TestSolveSlowFaultRespectsDeadline: an injected slow solve burns its
// delay once on every door when there is time, and yields to the
// deadline when there is not.
func TestSolveSlowFaultRespectsDeadline(t *testing.T) {
	for _, door := range faultDoors {
		t.Run(door.name, func(t *testing.T) {
			// No deadline: the delay is simply taken.
			inj := injectorFor(t, faultinject.FaultSlow, 30*time.Millisecond)
			ctx := faultinject.WithPlan(context.Background(), inj.Assign())
			start := time.Now()
			res, err := door.solve(t, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
				t.Fatalf("slow fault not injected: solve took %v", elapsed)
			}
			if res.Degraded {
				t.Fatalf("slow fault alone should not degrade, got tier %v", res.Tier)
			}
			checkBooks(t, inj, faultinject.FaultSlow)

			// Tight deadline: the sleep yields at the deadline. The ladder
			// still answers (unbuffered analysis at worst); a single DP
			// reports the expired deadline.
			inj = injectorFor(t, faultinject.FaultSlow, 10*time.Second)
			dctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			dctx = faultinject.WithPlan(dctx, inj.Assign())
			start = time.Now()
			res, err = door.solve(t, dctx)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("slow fault ignored the deadline: %v", elapsed)
			}
			checkBooks(t, inj, faultinject.FaultSlow)
			if !door.ladder {
				if !errors.Is(err, guard.ErrCanceled) {
					t.Fatalf("err = %v, want ErrCanceled past the deadline", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Solve under deadline returned nothing: %v", err)
			}
			if res.Result == nil || res.Tree == nil {
				t.Fatal("no usable result after deadline-bounded slow solve")
			}
		})
	}
}

func TestValidateResult(t *testing.T) {
	good := &Result{
		Solution: &Solution{Tree: rctree.New("t", 1, 0), Buffers: map[rctree.NodeID]buffers.Buffer{}},
		Slack:    1,
	}
	if err := validateResult(good); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	cases := []*Result{
		nil,
		{},
		{Solution: &Solution{}},
		{Solution: good.Solution, Slack: math.NaN()},
		{Solution: good.Solution, Slack: math.Inf(1)},
		{Solution: good.Solution, Cost: -1},
	}
	for i, r := range cases {
		if err := validateResult(r); !errors.Is(err, guard.ErrInternal) {
			t.Errorf("case %d: validateResult = %v, want ErrInternal", i, err)
		}
	}
}
