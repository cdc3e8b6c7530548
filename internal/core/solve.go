package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/faultinject"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Tier identifies which rung of the degradation ladder produced a Solve
// result. Lower values are stronger guarantees.
type Tier int

const (
	// TierExact is the paper's BuffOpt: minimum buffer weight subject to
	// noise and timing, exact (Theorem 5 / Section IV-C caveats apply per
	// Options.SafePruning).
	TierExact Tier = iota
	// TierCappedDP is the count-capped dynamic program: BuffOpt(k) with a
	// small fixed buffer bound, safe pruning off, and a tightened
	// candidate-list cap. Still noise-aware, no longer weight-minimal.
	TierCappedDP
	// TierGreedy is the iterative one-buffer-at-a-time heuristic in noise
	// mode. Polynomial per round; no optimality guarantee.
	TierGreedy
	// TierNoiseRepair runs Algorithm 2 alone: minimum buffers for noise
	// only, ignoring timing. The result is noise-clean if the net is
	// fixable at all, but slack is whatever falls out.
	TierNoiseRepair
	// TierUnbuffered is the last resort: no buffers inserted, just the
	// timing analysis of the bare tree. Always available in O(n).
	TierUnbuffered
)

func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierCappedDP:
		return "capped-dp"
	case TierGreedy:
		return "greedy"
	case TierNoiseRepair:
		return "noise-repair"
	case TierUnbuffered:
		return "unbuffered"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// MarshalJSON encodes the tier as its String() name, so JSON reports and
// metric snapshots use the same vocabulary as the logs.
func (t Tier) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON decodes a tier name produced by MarshalJSON.
func (t *Tier) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("core: tier must be a JSON string, got %s", data)
	}
	parsed, err := ParseTier(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*t = parsed
	return nil
}

// ParseTier is the inverse of Tier.String for the named tiers.
func ParseTier(s string) (Tier, error) {
	for t := TierExact; t <= TierUnbuffered; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("core: unknown tier %q", s)
}

// TierError records why one rung of the degradation ladder failed, with
// enough context to act on: how long the tier ran before giving up and the
// budget high-water marks at that moment (how long the candidate lists
// grew, how large the tree was). "exact: candidate list grew to 5211 (cap
// 4096) after 1.2s, peak 5211 candidates" tells the operator whether to
// raise -max-cands or the timeout; the bare error did not.
type TierError struct {
	// Tier is the rung that failed.
	Tier Tier `json:"tier"`
	// Elapsed is how long the tier ran before failing.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Usage holds the budget's high-water marks when the tier failed.
	Usage guard.Usage `json:"usage"`
	// Err is the underlying failure, classified by the guard taxonomy.
	Err error `json:"-"`
}

func (e *TierError) Error() string {
	return fmt.Sprintf("%s: %v (after %v; %s)", e.Tier, e.Err, e.Elapsed.Round(time.Microsecond), e.Usage)
}

// Unwrap exposes the underlying error so errors.Is/As dispatch on the
// guard taxonomy works through TierError.
func (e *TierError) Unwrap() error { return e.Err }

// SolveResult is a Result annotated with how it was obtained.
type SolveResult struct {
	*Result
	// Tier is the rung of the ladder that produced Result.
	Tier Tier
	// Degraded reports that at least one stronger tier was attempted and
	// failed (equivalently, Tier != TierExact).
	Degraded bool
	// TierErrors records, in ladder order, why each stronger tier failed —
	// including elapsed time and budget usage. Empty when Tier ==
	// TierExact.
	TierErrors []*TierError
	// Cached reports that this result was served from a SolveCache
	// without running the ladder; Solve itself never sets it. Cached
	// results are bit-identical to what a fresh solve would have
	// produced (the solver is deterministic); the flag exists for
	// telemetry and API responses, not correctness.
	Cached bool
	// Coalesced reports that this request missed the cache but shared a
	// concurrent identical request's solve instead of running its own.
	Coalesced bool
}

// Degradation ladder deadline shares: each tier may spend at most this
// fraction of the time remaining when it starts, so a stalled exact solve
// cannot starve the fallbacks. The last tier (unbuffered analysis) gets
// whatever is left; it is O(n) and effectively instant.
var tierShares = map[Tier]float64{
	TierExact:       0.55,
	TierCappedDP:    0.45,
	TierGreedy:      0.50,
	TierNoiseRepair: 0.50,
}

// Knobs for the degraded tiers. The capped DP keeps the noise constraints
// but bounds both the buffer count and the candidate lists so its runtime
// is predictable; greedy is bounded by its insertion cap.
const (
	cappedDPBuffers    = 8
	cappedDPCandidates = 4096
	greedyMaxBuffers   = 16
)

// Solve is the robust front door to the solver stack: it tries the exact
// optimizer under the given budget and, when the budget trips (deadline or
// resource cap), degrades tier by tier — count-capped DP, then the greedy
// heuristic, then Algorithm 2 noise repair, then a bare analysis — so a
// caller with a deadline always gets an answer instead of a hang.
//
// ctx carries cancellation and the overall deadline. opts.Budget, if set,
// contributes resource caps (candidate list size, tree size); its own
// context is ignored in favor of ctx. Each tier runs under a share of the
// remaining deadline and inside a panic-isolation wrapper, so a crash in
// one tier degrades instead of taking the process down.
//
// Errors: invalid input aborts immediately (errors.Is guard.ErrInvalidInput);
// cancellation of ctx itself aborts (errors.Is guard.ErrCanceled); a
// noise-infeasible net — proven by an exact tier, not guessed by a
// heuristic — aborts with ErrNoiseUnfixable. Budget trips never abort:
// they push the solve down the ladder and are reported in TierErrors.
func Solve(ctx context.Context, t *rctree.Tree, lib *buffers.Library, p noise.Params, opts Options) (*SolveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Validate once, up front: degrading cannot repair bad input, and the
	// ladder should not burn deadline discovering the same error five
	// times.
	if err := t.Validate(); err != nil {
		return nil, invalid(err)
	}
	if err := lib.Validate(); err != nil {
		return nil, invalid(err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Sizing.Validate(); err != nil {
		return nil, err
	}

	type tierFn func(b *guard.Budget) (*Result, error)

	cappedOpts := opts
	cappedOpts.SafePruning = false // the 4D dominance scan is the cost center
	cappedOpts.Sizing = nil

	tiers := []struct {
		tier     Tier
		maxCands int // extra candidate cap on top of opts.Budget's
		run      tierFn
	}{
		{TierExact, 0, func(b *guard.Budget) (*Result, error) {
			o := opts
			o.Budget = b
			return solveProblem(b.Context(), "optimize", Problem{
				Tree: t, Library: lib, Params: p, Objective: MinBuffersNoise,
			}, o)
		}},
		{TierCappedDP, cappedDPCandidates, func(b *guard.Budget) (*Result, error) {
			o := cappedOpts
			o.Budget = b
			k := cappedDPBuffers
			return solveProblem(b.Context(), "optimize", Problem{
				Tree: t, Library: lib, Params: p, Objective: MaxSlackNoise, MaxBuffers: &k,
			}, o)
		}},
		{TierGreedy, 0, func(b *guard.Budget) (*Result, error) {
			return GreedyIterative(t, lib, GreedyOptions{
				Noise:      true,
				Params:     p,
				MaxBuffers: greedyMaxBuffers,
				Budget:     b,
			})
		}},
		{TierNoiseRepair, 0, func(b *guard.Budget) (*Result, error) {
			work := t.Clone()
			work.Binarize()
			sol, err := Algorithm2Budget(work, lib, p, b)
			if err != nil {
				return nil, err
			}
			an := elmore.Analyze(sol.Tree, sol.Buffers)
			return &Result{Solution: sol, Slack: an.WorstSlack, Cost: costOf(sol.Buffers)}, nil
		}},
		{TierUnbuffered, 0, func(b *guard.Budget) (*Result, error) {
			// Deliberately ignores the budget: once every stronger tier has
			// spent the deadline, the caller still deserves the O(n) bare
			// analysis rather than nothing. Genuine cancellation (ctx
			// canceled, not merely past its deadline) never reaches here —
			// the ladder aborts on it above.
			an := elmore.Analyze(t, nil)
			return &Result{
				Solution: &Solution{Tree: t.Clone(), Buffers: map[rctree.NodeID]buffers.Buffer{}},
				Slack:    an.WorstSlack,
				Cost:     0,
			}, nil
		}},
	}

	solveCtx, solveSpan := obs.Span(ctx, "solve")
	defer solveSpan.End()

	// The slow fault burns before the ladder starts, so it spends the
	// request's deadline rather than the exact tier's share of it; the
	// per-tier gates below then find it taken.
	slowFault(ctx)

	var tierErrs []*TierError
	for _, step := range tiers {
		// The tier span's context feeds the tier budget, so DP spans nest
		// under the tier and an injected mid-flight cancel (guard.Check)
		// annotates the tier that absorbed it.
		tctx, span := obs.Span(solveCtx, "solve.tier."+step.tier.String())
		b, cancel := tierBudget(tctx, opts.Budget, tierShares[step.tier], step.maxCands)
		start := time.Now()
		// Every tier's answer passes the gate. A post-condition violation
		// is a bug in the tier (class "internal"), and the ladder treats
		// it like any other tier failure: the next tier recomputes from
		// scratch.
		var res *Result
		err := guard.Safe("core.Solve/"+step.tier.String(), func() error {
			var e error
			res, e = gate(ctx, func() (*Result, error) { return step.run(b) })
			return e
		})
		span.Fail(err) // record the tier's duration (and trace the error); the wrap is discarded — TierError carries more
		cancel()
		if err == nil {
			if step.tier != TierExact {
				obs.Inc("solve.degraded")
				solveSpan.SetAttr("degraded", "true")
			}
			obs.Inc("solve.answered." + step.tier.String())
			solveSpan.SetAttr("tier", step.tier.String())
			return &SolveResult{
				Result:     res,
				Tier:       step.tier,
				Degraded:   step.tier != TierExact,
				TierErrors: tierErrs,
			}, nil
		}
		tierErrs = append(tierErrs, &TierError{
			Tier:    step.tier,
			Elapsed: time.Since(start),
			Usage:   b.Usage(),
			Err:     err,
		})
		// Degradation causes keyed by the guard error taxonomy, so tight
		// budgets ("budget"), deadlines ("canceled"), and crashes ("panic")
		// are distinguishable in the snapshot.
		obs.Inc("solve.degrade." + guard.Class(err))
		// Non-degradable failures: bad input, the caller's own context
		// going away, or an exact tier proving the net unfixable.
		if errors.Is(err, guard.ErrInvalidInput) {
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil && !errors.Is(cerr, context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %w", guard.ErrCanceled, cerr)
		}
		if step.tier == TierExact && errors.Is(err, ErrNoiseUnfixable) {
			return nil, err
		}
	}
	joined := make([]error, len(tierErrs))
	for i, te := range tierErrs {
		joined[i] = te
	}
	return nil, fmt.Errorf("core: every degradation tier failed: %w", errors.Join(joined...))
}

// gate is core's one answer gate: every answer Optimize, Delta and each
// Solve tier hands out passes through it, and nothing else checks one.
// It burns an injected slow fault before run (once per request: the
// plan's faults are take-once, so Solve's own entry burn leaves the tier
// gates nothing to take), poisons the slack of an answer whose request
// drew the malformed fault — the Section IV-C scenario of a malformed
// candidate list surviving the DP — and holds every answer to
// validateResult, so a structurally broken or numerically poisoned
// result becomes guard.ErrInternal instead of reaching a caller, a
// cache or a session's books. The answer it returns is read-only from
// then on: every later holder shares it and none copies it.
func gate(ctx context.Context, run func() (*Result, error)) (*Result, error) {
	slowFault(ctx)
	res, err := run()
	if err != nil {
		return nil, err
	}
	if res != nil && faultinject.Take(ctx, faultinject.FaultMalformed) {
		res.Slack = math.NaN()
	}
	if err := validateResult(res); err != nil {
		return nil, err
	}
	return res, nil
}

// slowFault burns an injected slow fault's delay, yielding to ctx's
// deadline — the stuck-worker scenario that admission control and
// per-request deadlines absorb.
func slowFault(ctx context.Context) {
	if !faultinject.Take(ctx, faultinject.FaultSlow) {
		return
	}
	if d := faultinject.PlanFrom(ctx).Delay(); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
	}
}

// validateResult enforces the tiers' shared post-conditions: a complete
// solution (tree and buffer assignment present) with finite slack and
// non-negative cost. Violations wrap guard.ErrInternal.
func validateResult(r *Result) error {
	switch {
	case r == nil || r.Solution == nil || r.Solution.Tree == nil || r.Solution.Buffers == nil:
		return fmt.Errorf("core: tier returned an incomplete result: %w", guard.ErrInternal)
	case math.IsNaN(r.Slack) || math.IsInf(r.Slack, 0):
		return fmt.Errorf("core: tier returned non-finite slack %g: %w", r.Slack, guard.ErrInternal)
	case r.Cost < 0:
		return fmt.Errorf("core: tier returned negative cost %d: %w", r.Cost, guard.ErrInternal)
	}
	return nil
}

// tierBudget builds one tier's budget: the caps from the caller's budget
// (optionally tightened by maxCands), under a context that expires after
// share of the time remaining on ctx. Share 0 means "no sub-deadline".
func tierBudget(ctx context.Context, caps *guard.Budget, share float64, maxCands int) (*guard.Budget, context.CancelFunc) {
	cancel := func() {}
	if dl, ok := ctx.Deadline(); ok && share > 0 {
		if remain := time.Until(dl); remain > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(float64(remain)*share))
		}
	}
	b := withCaps(ctx, caps)
	if maxCands > 0 && (b.MaxCandidates == 0 || b.MaxCandidates > maxCands) {
		b.MaxCandidates = maxCands
	}
	return b, cancel
}
