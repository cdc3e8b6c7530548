package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// alg2Stats accumulates one Algorithm2Budget run's counters locally (see
// vgStats for the pattern): candidate placements and l_max evaluations are
// search-space measures; buffers inserted is the chosen solution's size.
type alg2Stats struct {
	lmax       int64 // MaxSafeLength evaluations
	placements int64 // tentative buffer placements explored across candidates
	merged     int64 // candidates emitted by branch merges
}

func (s *alg2Stats) flush(inserted int) {
	obs.Add("alg2.lmax.evals", s.lmax)
	obs.Add("alg2.placements.explored", s.placements)
	obs.Add("alg2.candidates.merged", s.merged)
	obs.Add("alg2.buffers.inserted", int64(inserted))
}

// nCand is an Algorithm 2 candidate at some node v: the downstream
// coupling current I(v), the noise slack NS(v), the number of buffers the
// partial solution uses, and the persistent placement history.
type nCand struct {
	down float64
	ns   float64
	nbuf int
	sol  *placement
}

// Algorithm2 solves Problem 1 for an arbitrary (multi-sink) tree: insert
// the minimum number of buffers such that no noise constraint is violated
// (Section III-C of the paper, proved optimal in Theorem 4, O(n²) time).
//
// The algorithm propagates candidate (I, NS) pairs bottom-up. Along wires
// buffers are inserted at their Theorem 1 maximal distances, exactly as in
// Algorithm1. At a branch point the left and right candidate lists are
// merged with Van Ginneken's linear technique; when a merged pair would
// violate noise — each branch is individually clean but the combined
// current overwhelms the combined slack — candidates with a buffer
// inserted immediately below the branch point on the left, on the right,
// and (an engineering addition, see below) on both branches are generated
// and all propagated upward, since the correct choice depends on the
// still-unknown upstream driver (the scenario discussed at the start of
// Section III-C).
//
// Deviations from the paper's pseudocode, both conservative:
//
//   - Buffered branch alternatives are generated at every merge, not only
//     for violating pairs, and are paired with the fewest-buffer candidate
//     of the decoupled branch (its electrical state dies at the buffer, so
//     only its buffer count matters). This is a superset of the paper's
//     candidates at the same O(|L|+|R|) merge cost.
//   - Pruning uses three-dimensional dominance (current, noise slack, and
//     buffer count) rather than the paper's two-dimensional rule, so a
//     candidate that is electrically worse but cheaper in buffers is never
//     discarded. This can only improve the buffer-count optimality the
//     paper proves.
//
// As with Algorithm1, a multi-buffer library reduces to its smallest-
// resistance buffer. The tree must be binary (call Tree.Binarize first).
func Algorithm2(t *rctree.Tree, lib *buffers.Library, p noise.Params) (*Solution, error) {
	return Algorithm2Budget(t, lib, p, nil)
}

// Algorithm2Budget is Algorithm2 under a resource budget: the bottom-up
// walk checks the budget at every node, inside every wire propagation,
// and caps the candidate lists, returning an error wrapping
// guard.ErrCanceled or guard.ErrBudgetExceeded when it trips. A nil
// budget imposes no limits.
func Algorithm2Budget(t *rctree.Tree, lib *buffers.Library, p noise.Params, b *guard.Budget) (*Solution, error) {
	if err := t.Validate(); err != nil {
		return nil, invalid(err)
	}
	if !t.IsBinary() {
		return nil, invalid(fmt.Errorf("core: Algorithm2 requires a binary tree; call Binarize first"))
	}
	if err := lib.Validate(); err != nil {
		return nil, invalid(err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := b.CheckTreeNodes(t.Len()); err != nil {
		return nil, err
	}
	buf, err := lib.MinResistance()
	if err != nil {
		return nil, err
	}

	st := &alg2Stats{}
	inserted := 0
	defer func() { st.flush(inserted) }()

	cands := make([][]nCand, t.Len())
	for _, v := range t.Postorder() {
		if err := b.Check(); err != nil {
			return nil, err
		}
		node := t.Node(v)
		var list []nCand
		switch {
		case node.Kind == rctree.Sink:
			list = []nCand{{down: 0, ns: node.NoiseMargin}}
		case len(node.Children) == 1:
			c := node.Children[0]
			up, err := propagateAll(cands[c], c, t.Node(c).Wire, buf, p, b, st)
			if err != nil {
				return nil, err
			}
			list = up
		case len(node.Children) == 2:
			cl, cr := node.Children[0], node.Children[1]
			left, err := propagateAll(cands[cl], cl, t.Node(cl).Wire, buf, p, b, st)
			if err != nil {
				return nil, err
			}
			right, err := propagateAll(cands[cr], cr, t.Node(cr).Wire, buf, p, b, st)
			if err != nil {
				return nil, err
			}
			list = mergeBranches(left, right, cl, cr, buf, st)
		default:
			return nil, fmt.Errorf("core: internal node %d has no children", v)
		}
		list = pruneNoise(list)
		if len(list) == 0 {
			return nil, fmt.Errorf("core: no viable candidates at node %d: %w", v, ErrNoiseUnfixable)
		}
		if err := b.CheckCandidates(len(list)); err != nil {
			return nil, err
		}
		cands[v] = list
	}

	// Select the cheapest root candidate, adding a buffer right after the
	// source when the driver alone would violate the remaining slack.
	best := -1
	bestCost := math.MaxInt
	bestNeedsSourceBuffer := false
	root := cands[t.Root()]
	for i, c := range root {
		cost := c.nbuf
		needs := t.DriverResistance*c.down > c.ns
		if needs {
			if buf.R*c.down > c.ns {
				continue // not even a source buffer can save this candidate
			}
			cost++
		}
		if cost < bestCost || (cost == bestCost && needs == false && bestNeedsSourceBuffer) {
			best, bestCost, bestNeedsSourceBuffer = i, cost, needs
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("core: no noise-feasible candidate at the source: %w", ErrNoiseUnfixable)
	}

	work := t.Clone()
	assign, err := applyPlacements(work, root[best].sol)
	if err != nil {
		return nil, err
	}
	if bestNeedsSourceBuffer {
		at, err := work.InsertBelow(work.Root())
		if err != nil {
			return nil, err
		}
		assign[at] = buf
	}
	inserted = len(assign)
	return &Solution{Tree: work, Buffers: assign}, nil
}

// propagateAll pushes every candidate through a wire, inserting maximal-
// distance buffers as needed. Candidates that cannot survive the wire are
// dropped; if none survive, the error explains why.
func propagateAll(list []nCand, child rctree.NodeID, w rctree.Wire, buf buffers.Buffer, p noise.Params, b *guard.Budget, st *alg2Stats) ([]nCand, error) {
	out := make([]nCand, 0, len(list))
	var lastErr error
	for _, c := range list {
		up, err := propagateWire(c, child, w, buf, p, b, st)
		if err != nil {
			if errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrBudgetExceeded) {
				return nil, err
			}
			lastErr = err
			continue
		}
		out = append(out, up)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: wire above node %d kills all candidates: %w", child, lastErr)
	}
	return out, nil
}

// propagateWire advances one candidate from the bottom to the top of a
// wire, inserting buffers at Theorem 1 maximal distances (Steps 2–4 of
// Algorithm 1, reused per candidate here).
func propagateWire(c nCand, child rctree.NodeID, w rctree.Wire, buf buffers.Buffer, p noise.Params, b *guard.Budget, st *alg2Stats) (nCand, error) {
	iwTotal := p.WireCurrent(w)
	length := w.Length
	pos := 0.0
	pacer := b.Pacer(64)
	for {
		// A long wire places one buffer per iteration; the count is only
		// bounded by length over the Theorem 1 spacing, so the loop is
		// budget-gated.
		if err := pacer.Tick(); err != nil {
			return c, err
		}
		remFrac := 1.0
		if length > 0 {
			remFrac = (length - pos) / length
		}
		remR := w.R * remFrac
		remI := iwTotal * remFrac
		if WireTopNoise(buf.R, remR, remI, c.down) <= c.ns {
			c.ns -= remR * (c.down + remI/2)
			c.down += remI
			return c, nil
		}
		if length <= 0 {
			return c, fmt.Errorf("core: zero-length wire above node %d violates noise: %w", child, ErrNoiseUnfixable)
		}
		r := w.R / length
		iu := iwTotal / length
		st.lmax++
		l, err := MaxSafeLength(buf.R, r, iu, c.down, c.ns)
		if err != nil {
			return c, err
		}
		l *= placementBackoff
		if l <= 0 && c.down == 0 {
			return c, fmt.Errorf("core: buffer margin %g V cannot cover wire above node %d: %w",
				buf.NoiseMargin, child, ErrNoiseUnfixable)
		}
		if l >= length-pos {
			// Floating-point guard: the top test said infeasible but the
			// quadratic disagrees by epsilon; accept the wire as-is.
			c.ns -= remR * (c.down + remI/2)
			c.down += remI
			return c, nil
		}
		pos += l
		c.sol = &placement{child: child, dist: pos, buf: buf, prev: [2]*placement{c.sol, nil}}
		c.nbuf++
		st.placements++
		c.down = 0
		c.ns = buf.NoiseMargin
	}
}

// mergeBranches combines the candidate lists of two sibling branches that
// have already been propagated to their common parent. All pairwise
// unbuffered merges are considered (the pruned frontiers are small, so the
// cross product is cheap and avoids the monotonicity assumption the linear
// merge needs), plus the decoupling alternatives with a buffer immediately
// below the branch point on the left, the right, or both branches.
//
// Every emitted candidate satisfies the invariant R_b·I ≤ NS, i.e. a
// buffer placed directly above it would be noise-clean; candidates that
// cannot satisfy it are useless upstream under the footnote-8 assumption
// that the driver is no stronger than the strongest buffer.
func mergeBranches(left, right []nCand, leftChild, rightChild rctree.NodeID, buf buffers.Buffer, st *alg2Stats) []nCand {
	left = pruneNoise(left)
	right = pruneNoise(right)

	var out []nCand
	emit := func(c nCand) {
		if buf.R*c.down <= c.ns {
			out = append(out, c)
		}
	}

	for _, a := range left {
		for _, b := range right {
			emit(nCand{
				down: a.down + b.down,
				ns:   math.Min(a.ns, b.ns),
				nbuf: a.nbuf + b.nbuf,
				sol:  mergeSolutions(a.sol, b.sol),
			})
		}
	}

	// Decoupling alternatives: a buffer immediately below the parent on
	// one branch kills that branch's electrical state, so only its
	// cheapest (fewest-buffer) candidate matters. The buffer itself must
	// be clean driving the decoupled branch: R_b·I ≤ NS, which every
	// surviving candidate satisfies by the invariant above.
	minLeft := cheapest(left)
	minRight := cheapest(right)
	leftBuf := &placement{child: leftChild, atTop: true, buf: buf, prev: [2]*placement{minLeft.sol, nil}}
	rightBuf := &placement{child: rightChild, atTop: true, buf: buf, prev: [2]*placement{minRight.sol, nil}}
	for _, b := range right {
		emit(nCand{
			down: b.down,
			ns:   math.Min(buf.NoiseMargin, b.ns),
			nbuf: minLeft.nbuf + b.nbuf + 1,
			sol:  mergeSolutions(leftBuf, b.sol),
		})
	}
	for _, a := range left {
		emit(nCand{
			down: a.down,
			ns:   math.Min(buf.NoiseMargin, a.ns),
			nbuf: a.nbuf + minRight.nbuf + 1,
			sol:  mergeSolutions(a.sol, rightBuf),
		})
	}
	emit(nCand{
		down: 0,
		ns:   buf.NoiseMargin,
		nbuf: minLeft.nbuf + minRight.nbuf + 2,
		sol:  mergeSolutions(leftBuf, rightBuf),
	})
	st.merged += int64(len(out))
	return out
}

// mergeSolutions joins two placement histories without adding a buffer.
func mergeSolutions(a, b *placement) *placement {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &placement{junction: true, prev: [2]*placement{a, b}}
}

// cheapest returns the candidate with the fewest buffers (ties: smaller
// current).
func cheapest(list []nCand) nCand {
	best := list[0]
	for _, c := range list[1:] {
		if c.nbuf < best.nbuf || (c.nbuf == best.nbuf && c.down < best.down) {
			best = c
		}
	}
	return best
}

// pruneNoise removes dominated candidates: c is dominated when another
// candidate has no more current, no less noise slack, and no more buffers.
// The survivors are returned sorted by ascending current.
func pruneNoise(list []nCand) []nCand {
	if len(list) <= 1 {
		return list
	}
	slices.SortFunc(list, func(a, b nCand) int {
		if a.down != b.down {
			return firstIf(a.down < b.down)
		}
		if a.ns != b.ns {
			return firstIf(a.ns > b.ns)
		}
		return cmp.Compare(a.nbuf, b.nbuf)
	})
	out := list[:0]
	for _, c := range list {
		dominated := false
		for _, k := range out {
			if k.down <= c.down && k.ns >= c.ns && k.nbuf <= c.nbuf {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}
