package core

import (
	"context"
	"fmt"
	"math"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Options tunes the Algorithm 3 family. The zero value reproduces the
// paper's configuration.
type Options struct {
	// SafePruning keeps noise slack and current in the dominance test,
	// guaranteeing exactness for multi-buffer libraries (Section IV-C
	// explains why the paper's pruning is only exact for a single buffer
	// type). Slower; off by default, as in the paper.
	SafePruning bool
	// Sizing enables simultaneous wire sizing (the Lillis [18] extension
	// the paper builds on): every wire additionally chooses a width from
	// Sizing.Widths. Nil disables sizing (all wires at minimum width).
	Sizing *Sizing
	// Budget bounds the run: wall-clock deadline (via context), candidate
	// list size, and tree size. Nil means unlimited. On violation the
	// solver returns an error wrapping guard.ErrCanceled or
	// guard.ErrBudgetExceeded; the input tree is never modified either
	// way.
	Budget *guard.Budget

	// dp forces the dynamic program's merge path and worker pool, which
	// are otherwise chosen from the problem (see dpOverride). Unexported:
	// only this package's reference rows and differentials set it.
	dp dpOverride
	// memo, when non-nil, threads a session's subtree memo table into the
	// dynamic program (see Delta). Unexported: only the session layer may
	// install it, because correctness depends on the hashes slice staying
	// synchronized with the tree being solved.
	memo *memoRun
}

// Sizing configures simultaneous wire sizing. Widening a wire divides its
// resistance by the width multiplier and grows the non-fringe part of its
// capacitance proportionally; the sidewall coupling current is unchanged,
// so widening is itself a noise-avoidance move.
type Sizing struct {
	// Widths are the available width multipliers (relative to minimum
	// width), e.g. {1, 2, 4}. Include 1 unless minimum width is banned.
	Widths []float64
	// Fringe is the fraction of a minimum-width wire's capacitance that
	// does not scale with width. Zero means 0.5.
	Fringe float64
}

// Validate checks the wire-sizing configuration. Errors wrap
// guard.ErrInvalidInput. A nil Sizing (sizing disabled) is valid.
func (s *Sizing) Validate() error {
	if s == nil {
		return nil
	}
	if len(s.Widths) == 0 {
		return fmt.Errorf("core: Sizing.Widths is empty; include at least width 1: %w", guard.ErrInvalidInput)
	}
	for i, w := range s.Widths {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return fmt.Errorf("core: Sizing.Widths[%d] = %g must be positive and finite: %w",
				i, w, guard.ErrInvalidInput)
		}
	}
	if math.IsNaN(s.Fringe) || s.Fringe < 0 || s.Fringe > 1 {
		return fmt.Errorf("core: Sizing.Fringe = %g must lie in [0, 1]: %w", s.Fringe, guard.ErrInvalidInput)
	}
	return nil
}

// vgo builds the dynamic-program options shared by every entry point.
func (o Options) vgo() vgOptions {
	v := vgOptions{safePruning: o.SafePruning, budget: o.Budget, dp: o.dp, memo: o.memo}
	if o.Sizing != nil {
		v.widths = o.Sizing.Widths
		v.fringe = o.Sizing.Fringe
	}
	return v
}

// invalid tags a validation failure with the taxonomy's invalid-input
// class, preserving the original message for errors.Is dispatch.
func invalid(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", guard.ErrInvalidInput, err)
}

// Result bundles a Solution with the dynamic program's own view of it, so
// callers do not need to re-run analysis to learn what the optimizer
// thought it achieved.
type Result struct {
	*Solution
	// Slack is the timing slack at the source, min over sinks of
	// RAT − delay, as computed by the dynamic program.
	Slack float64
	// Cost is the solution's total buffer weight (the Lillis power
	// function; equal to the buffer count when every weight is 1).
	Cost int
}

// solveProblem is core's one objective dispatch. The paper's five tool
// configurations are one Algorithm 3 with switches: the noise checks are
// on unless the objective is MaxSlack, and the candidate lists are
// count-indexed (Lillis [18]) when MaxBuffers is set or the objective is
// MinBuffersNoise. MinBuffersNoise searches the count (minBuffers); the
// other objectives answer with the best slack within the count bound.
// Optimize, Delta and Solve's DP tiers all run through here, under a
// span named span. The tree is pre-validated at its door (Optimize,
// Solve, NewSession, Delta).
//
// The budget is reconciled against the caller's ctx (not the span's
// child context) so callers keep their exact Budget object and its usage
// marks; the trace still reaches the inner loops because the budget's
// context carries the caller's span chain.
func solveProblem(ctx context.Context, span string, p Problem, opts Options) (*Result, error) {
	opts.Budget = budgetFor(ctx, opts.Budget)
	_, sp := obs.Span(ctx, span)
	sp.SetAttr("objective", p.Objective.String())
	defer sp.End()

	vo := opts.vgo()
	if vo.noise = p.Objective != MaxSlack; vo.noise {
		vo.params = p.Params
	}
	// A session's runs append to the session's link table; a plain solve
	// takes one from the pool and returns it once finishVG has read the
	// answer out of it.
	if vo.memo != nil {
		vo.tab = vo.memo.tab
	} else {
		vo.tab = getLinkTab()
		defer putLinkTab(vo.tab)
	}
	if p.Objective == MinBuffersNoise {
		return minBuffers(p.Tree, p.Library, vo)
	}
	k := math.MaxInt
	if p.MaxBuffers != nil {
		k = *p.MaxBuffers
		vo.countIndexed = true
		vo.maxBuffers = k
	}
	cands, err := runVG(p.Tree, p.Library, vo)
	if err != nil {
		return nil, err
	}
	best, ok := maxSlack(cands, k)
	if !ok {
		if vo.noise {
			return nil, fmt.Errorf("core: %s found no noise-feasible solution: %w", p.Objective, ErrNoiseUnfixable)
		}
		// Without noise constraints the unbuffered solution is always a
		// candidate; it is lost only when every slack overflowed to −Inf
		// or NaN, which the net's electrical values alone decide.
		return nil, fmt.Errorf("core: %s produced no finite candidate; the net's electrical values overflow: %w",
			p.Objective, guard.ErrInvalidInput)
	}
	return finishVG(p.Tree, p.Library, best, vo)
}

// minBuffers answers MinBuffersNoise (Problem 3), the Section V BuffOpt
// tool built on the Lillis buffer-count-indexed lists. Buffer counts are
// explored by iterative deepening (caps 2, 4, 8, …): a feasible solution
// found under cap m is count-minimal outright, because every smaller
// count was also explored, and most nets resolve at the first cap — which
// keeps BuffOpt's candidate lists shorter than DelayOpt(k)'s, the
// run-time effect Section V reports. When no count achieves non-negative
// slack, the noise-feasible solution with maximum slack is returned:
// noise constraints are hard, timing is maximized. Every cap's run
// appends to the one link table vo.tab, so a fallback kept from an
// earlier cap still reads its solution.
func minBuffers(t *rctree.Tree, lib *buffers.Library, vo vgOptions) (*Result, error) {
	const hardCap = 64
	var fallback *vgCand
	vo.countIndexed = true
	for limit := 2; limit <= hardCap; limit *= 2 {
		vo.maxBuffers = limit
		cands, err := runVG(t, lib, vo)
		if err != nil {
			return nil, err
		}
		// runVG returns cost ascending, slack descending within a cost:
		// the first candidate with non-negative slack is the cost-minimal
		// feasible solution with the best slack at that cost.
		for _, c := range cands {
			if c.q >= 0 {
				return finishVG(t, lib, c, vo)
			}
		}
		// Noise is satisfiable but timing is not (yet): remember the best
		// slack and allow more buffers in case they close the gap; stop
		// once extra headroom no longer improves anything.
		if c, ok := maxSlack(cands, math.MaxInt); ok {
			if fallback != nil && c.q <= fallback.q {
				break
			}
			fallback = &c
		}
	}
	if fallback != nil {
		return finishVG(t, lib, *fallback, vo)
	}
	return nil, fmt.Errorf("core: %s found no noise-feasible solution: %w", MinBuffersNoise, ErrNoiseUnfixable)
}

// maxSlack picks the candidate with the largest slack among those of
// total weight at most k (weight equals count for unit-weight libraries);
// ties break toward smaller weight.
func maxSlack(cands []vgCand, k int) (vgCand, bool) {
	var best vgCand
	found := false
	for _, c := range cands {
		if c.cost > k {
			continue
		}
		if !found || c.q > best.q || (c.q == best.q && c.cost < best.cost) {
			best, found = c, true
		}
	}
	return best, found
}

// finishVG materializes a chosen candidate into a Result. The answer's
// Buffers and Widths maps are sized exactly from the solution. Its tree is
// t itself when the run is a session's (vo.memo set) and chose no widths:
// a session never writes a tree it has solved on, because every edit
// batch edits a fresh copy, so the answer shares that snapshot. Otherwise
// it is a private copy: a plain solve's t belongs to the caller (or is
// the server's work tree, which a cached answer should not keep), and
// chosen widths are applied to the copy's parasitics so the standard
// analyzers see exactly what the dynamic program computed.
func finishVG(t *rctree.Tree, lib *buffers.Library, c vgCand, vo vgOptions) (*Result, error) {
	picks := collectSol(vo.tab, c)
	nb := 0
	for _, p := range picks {
		if p.kind > 0 {
			nb++
		}
	}
	assign := make(map[rctree.NodeID]buffers.Buffer, nb)
	var widths map[rctree.NodeID]float64
	if nw := len(picks) - nb; nw > 0 {
		widths = make(map[rctree.NodeID]float64, nw)
	}
	for _, p := range picks {
		if p.kind > 0 {
			assign[p.node] = lib.Buffers[p.kind-1]
		} else {
			widths[p.node] = vo.widths[-p.kind-1]
		}
	}
	work := t
	if vo.memo == nil || widths != nil {
		work = t.Clone()
	}
	for v, wd := range widths {
		node := work.Node(v)
		w := node.Wire
		w.R, w.C = vo.wireVariant(w, wd)
		if vo.noise && vo.params.Slope > 0 && w.C > 0 {
			// Freeze the coupling current at its minimum-width (sidewall)
			// value: the metric's estimation mode would otherwise scale it
			// with the grown ground capacitance.
			iw := vo.params.WireCurrent(node.Wire)
			w.Aggressors = []rctree.Coupling{{
				Ratio: iw / (vo.params.Slope * w.C),
				Slope: vo.params.Slope,
			}}
		}
		node.Wire = w
	}
	sol := &Solution{Tree: work, Buffers: assign, Widths: widths}
	return &Result{Solution: sol, Slack: c.q, Cost: c.cost}, nil
}
