package core

import "context"

// The dynamic program picks its merge path and its parallelism from the
// problem; no public option overrides either. Branch merges use the
// Li–Shi frontier walk (lishi.go) wherever it is exact — delay-only runs
// without safe pruning, at any library size — and the classic cross
// product everywhere else. The bottom-up walk goes parallel on trees of
// at least minParallelNodes nodes when GOMAXPROCS > 1. Every choice is
// bit-identical on objective values by construction; the enginetest suite
// (internal/core/enginetest) is the gate on that contract.

// dpOverride forces the dynamic program's otherwise automatic choices.
// Unexported, like Options.memo: only this package sets it — EngineTable's
// rows and the in-package differentials — so the fallback merge and the
// forced worker pool stay reachable as the baselines the gates compare
// against, and nowhere else.
type dpOverride struct {
	// classicMerge runs the cross-product merge at every branch node: the
	// reference the frontier walk is differenced against.
	classicMerge bool
	// workers forces the walk's pool size: 0 = automatic, 1 = serial,
	// N > 1 = exactly N workers even on small trees.
	workers int
}

// referenceDP is the reference configuration every differential compares
// against: the classic cross-product merge on the serial walk.
var referenceDP = dpOverride{classicMerge: true, workers: 1}

// EngineSpec is one row of the engine registry: a named way of solving a
// Problem, with its contract class. The enginetest suite iterates this
// table, so a new row is gated the moment it is registered.
type EngineSpec struct {
	// Name identifies the row in test output.
	Name string
	// Exact rows must produce bit-identical objective values (slack bits,
	// cost) to the reference row on every problem, and must match the
	// exhaustive oracle on small nets. Heuristic rows (greedy) are held
	// only to validity and never-better-than-exact.
	Exact bool
	// Noise reports whether the row supports noise-constrained
	// objectives; delay-only rows are skipped on those problems.
	Noise bool
	// Run solves one problem. Exact rows route through Optimize;
	// heuristics adapt their own entry points.
	Run func(ctx context.Context, p Problem, opts Options) (*Result, error)
}

// EngineTable returns the registered rows. The reference — the classic
// cross-product merge on the serial walk — is first: it is the baseline
// the differential assertions compare everything else to. "default" is
// what every caller gets (zero overrides); "default-parallel" forces a
// 4-worker pool so small trees take the parallel walk too.
func EngineTable() []EngineSpec {
	viaOptimize := func(dp dpOverride) func(context.Context, Problem, Options) (*Result, error) {
		return func(ctx context.Context, p Problem, opts Options) (*Result, error) {
			opts.dp = dp
			return Optimize(ctx, p, opts)
		}
	}
	return []EngineSpec{
		{Name: "reference", Exact: true, Noise: true, Run: viaOptimize(referenceDP)},
		{Name: "default", Exact: true, Noise: true, Run: viaOptimize(dpOverride{})},
		{Name: "default-parallel", Exact: true, Noise: true, Run: viaOptimize(dpOverride{workers: 4})},
		{Name: "greedy", Exact: false, Noise: true, Run: runGreedyEngine},
	}
}

// runGreedyEngine adapts GreedyIterative to the registry signature. The
// greedy heuristic has no count-bound mode; bounded problems reuse the
// bound as its insertion cap.
func runGreedyEngine(ctx context.Context, p Problem, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxBuf := greedyMaxBuffers
	if p.MaxBuffers != nil {
		maxBuf = *p.MaxBuffers
	}
	return GreedyIterative(p.Tree, p.Library, GreedyOptions{
		Noise:      p.Objective != MaxSlack,
		Params:     p.Params,
		MaxBuffers: maxBuf,
		Budget:     budgetFor(ctx, opts.Budget),
	})
}
