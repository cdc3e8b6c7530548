// Package segment implements the wire-segmenting preprocessing of Alpert
// and Devgan (DAC 1997, reference [1] of the paper).
//
// Van Ginneken-style dynamic programs insert at most one buffer per wire,
// so long wires must first be divided into shorter segments to create
// enough candidate buffer sites. Segmenting trades solution quality for
// run time: more segments, better solutions, longer candidate lists. The
// paper's Algorithms 1 and 2 do not strictly need segmenting (they place
// buffers at continuous positions via Theorem 1), but Algorithm 3 and the
// DelayOpt baseline do.
//
// The package also provides the Fig. 2 transformation: splitting a wire at
// aggressor-overlap boundaries so each resulting segment couples to a
// fixed set of aggressors.
package segment

import (
	"fmt"
	"math"
	"sort"

	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// MaxNodes caps the tree ByLength builds. It equals the net format's
// default node limit (netfmt.Limits), so segmenting never grows a net past
// what a net file may carry, and a tiny max length is refused before it
// allocates anything.
const MaxNodes = 1 << 20

// Size returns the node count t would have after ByLength(t, maxLen). It
// counts in float64, so a max length far below the wire lengths gives a
// huge or infinite count rather than an overflowed int.
func Size(t *rctree.Tree, maxLen float64) float64 {
	n := float64(t.Len())
	for id := 0; id < t.Len(); id++ {
		if v := rctree.NodeID(id); v != t.Root() {
			n += pieces(t.Node(v).Wire.Length, maxLen) - 1
		}
	}
	return n
}

// pieces is the number of equal pieces, none longer than maxLen, that a
// wire of length l splits into.
func pieces(l, maxLen float64) float64 {
	if l <= maxLen {
		return 1
	}
	return math.Ceil(l / maxLen)
}

// ByLength splits, in place, every wire of t longer than maxLen into equal
// pieces no longer than maxLen. New internal nodes are legal buffer sites.
// It returns the number of nodes added. A split that would grow t past
// MaxNodes is refused with an error wrapping guard.ErrBudgetExceeded, and
// t is left as it was.
func ByLength(t *rctree.Tree, maxLen float64) (int, error) {
	if maxLen <= 0 || math.IsNaN(maxLen) {
		return 0, fmt.Errorf("segment: max length %g must be positive", maxLen)
	}
	if n := Size(t, maxLen); n > MaxNodes {
		return 0, fmt.Errorf("segment: max length %g would grow the tree to %g nodes (cap %d): %w",
			maxLen, n, MaxNodes, guard.ErrBudgetExceeded)
	}
	added := 0
	// Only iterate the original nodes: splitting v's wire produces pieces
	// already at or under maxLen, and new nodes are appended after the
	// originals.
	orig := t.Len()
	for id := 0; id < orig; id++ {
		v := rctree.NodeID(id)
		if v == t.Root() {
			continue
		}
		k := int(pieces(t.Node(v).Wire.Length, maxLen))
		if k == 1 {
			continue
		}
		n, err := chain(t, v, k)
		if err != nil {
			return added, err
		}
		added += n
	}
	return added, nil
}

// ByCount splits, in place, every nonzero-length wire of t into exactly k
// equal pieces. It returns the number of nodes added.
func ByCount(t *rctree.Tree, k int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("segment: piece count %d must be at least 1", k)
	}
	added := 0
	orig := t.Len()
	for id := 0; id < orig; id++ {
		v := rctree.NodeID(id)
		if v == t.Root() || t.Node(v).Wire.Length == 0 {
			continue
		}
		n, err := chain(t, v, k)
		if err != nil {
			return added, err
		}
		added += n
	}
	return added, nil
}

// chain splits v's parent wire into k equal pieces, adding k-1 nodes.
func chain(t *rctree.Tree, v rctree.NodeID, k int) (int, error) {
	added := 0
	cur := v
	remaining := k
	for remaining > 1 {
		// Cut the current bottom piece (1/remaining of what is left) off;
		// the new node carries the rest upward.
		n, err := t.SplitWire(cur, 1/float64(remaining))
		if err != nil {
			return added, err
		}
		added++
		cur = n
		remaining--
	}
	return added, nil
}

// Span describes one aggressor running alongside part of a wire, for the
// Fig. 2 transformation. From and To are distances along the wire measured
// from the upstream (parent) end, with 0 ≤ From < To ≤ wire length.
type Span struct {
	From, To float64 // coupled interval, m, from the upstream end
	Ratio    float64 // coupling-to-wire-capacitance ratio over the interval
	Slope    float64 // aggressor slope μ, V/s
}

// ApplyAggressors splits v's parent wire at every span boundary and
// attaches explicit aggressor couplings to each resulting piece, so that
// each piece is coupled to either zero, one, or more aggressors uniformly
// along its length — the wire-segmenting scheme of Fig. 2. Pieces outside
// every span receive an explicit empty aggressor list (zero coupling
// current). It returns the IDs of the resulting chain from the upstream
// end down to v.
func ApplyAggressors(t *rctree.Tree, v rctree.NodeID, spans []Span) ([]rctree.NodeID, error) {
	if v == t.Root() {
		return nil, fmt.Errorf("segment: the source has no parent wire")
	}
	length := t.Node(v).Wire.Length
	if length <= 0 {
		return nil, fmt.Errorf("segment: wire above node %d has zero length", v)
	}
	for _, s := range spans {
		if s.From < 0 || s.To > length+1e-12 || s.From >= s.To {
			return nil, fmt.Errorf("segment: span [%g, %g] outside wire of length %g", s.From, s.To, length)
		}
	}

	// Collect unique interior breakpoints, measured from the upstream end.
	cuts := map[float64]bool{}
	for _, s := range spans {
		if s.From > 0 && s.From < length {
			cuts[s.From] = true
		}
		if s.To > 0 && s.To < length {
			cuts[s.To] = true
		}
	}
	points := make([]float64, 0, len(cuts))
	for p := range cuts {
		points = append(points, p)
	}
	sort.Float64s(points)

	// Split bottom-up: a breakpoint at distance p from the upstream end is
	// length−p above the child; each split is taken relative to the
	// remaining (not yet split) upper portion.
	chainIDs := []rctree.NodeID{v}
	cur := v
	curLen := length // length of cur's parent wire (the unsplit remainder)
	consumed := 0.0  // distance from the original child already realized
	for i := len(points) - 1; i >= 0; i-- {
		fromChild := length - points[i]
		rel := fromChild - consumed
		n, err := t.SplitWire(cur, rel/curLen)
		if err != nil {
			return nil, err
		}
		chainIDs = append(chainIDs, n)
		consumed = fromChild
		curLen -= rel
		cur = n
	}

	// Reverse so the chain runs upstream → downstream: every split created
	// its new node above the previous one, so chainIDs is child → parent.
	for i, j := 0, len(chainIDs)-1; i < j; i, j = i+1, j-1 {
		chainIDs[i], chainIDs[j] = chainIDs[j], chainIDs[i]
	}

	// Walk top-down, accumulating each piece's interval from the upstream
	// end, and attach the aggressors whose span covers it (tested at the
	// piece midpoint; pieces never straddle a span boundary by
	// construction).
	pos := 0.0
	for _, id := range chainIDs {
		w := t.Node(id).Wire
		mid := pos + w.Length/2
		ag := []rctree.Coupling{}
		for _, s := range spans {
			if s.From <= mid && mid <= s.To {
				ag = append(ag, rctree.Coupling{Ratio: s.Ratio, Slope: s.Slope})
			}
		}
		w.Aggressors = ag
		t.Node(id).Wire = w
		pos += w.Length
	}
	return chainIDs, nil
}
