package core

import (
	"fmt"
	"sort"

	"buffopt/internal/buffers"
	"buffopt/internal/rctree"
)

// Solution is the output of every insertion algorithm: a tree and the
// buffer assignment on it. The tree is a private copy of the input
// (possibly augmented with wire-split nodes where buffers were placed
// mid-wire), except in a Delta answer that sized no wire, where it is the
// session's tree snapshot itself. Feed Tree and Buffers straight into
// elmore.Analyze and noise.Analyze.
//
// A Solution is read-only once the answer gate returns it: caches,
// coalesced waiters, peers, snapshots and a session's later answers all
// share what it holds, so no holder may write to Tree, Buffers or Widths.
// Clone the tree to edit it.
type Solution struct {
	Tree    *rctree.Tree
	Buffers map[rctree.NodeID]buffers.Buffer
	// Widths holds the chosen wire width multiplier for each resized
	// wire, keyed by the wire's child node, when the optimizer ran with
	// Options.Sizing (Lillis-style simultaneous wire sizing). The widths
	// are already applied to Tree's wire parasitics; this map exists for
	// reporting. Nil or empty when sizing was off or chose minimum width
	// everywhere.
	Widths map[rctree.NodeID]float64
}

// NumBuffers returns the number of inserted buffers, |M| in the paper.
func (s *Solution) NumBuffers() int { return len(s.Buffers) }

// placement records one buffer to be realized on the ORIGINAL tree: the
// buffer sits on the parent wire of node child, at distance dist above the
// child end. dist == 0 places it electrically at the child end; atTop
// places it immediately below the parent (the "buffer immediately
// following a branch point" of Algorithm 2). Placements form a persistent
// DAG so dynamic-programming candidates can share history without copying.
type placement struct {
	child    rctree.NodeID
	dist     float64
	buf      buffers.Buffer
	atTop    bool
	junction bool // pure merge point carrying no buffer of its own
	prev     [2]*placement
}

// collect flattens the placement DAG into a slice. A visited set keeps
// pathological sharing safe; the walk is iterative so arbitrarily long
// single-wire chains (finely buffered lines) cannot overflow the stack.
func (p *placement) collect() []*placement {
	var out []*placement
	seen := map[*placement]bool{}
	stack := []*placement{p}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if q == nil || seen[q] {
			continue
		}
		seen[q] = true
		if !q.junction {
			out = append(out, q)
		}
		stack = append(stack, q.prev[0], q.prev[1])
	}
	return out
}

// applyPlacements realizes a placement DAG on tree t (already a private
// clone), splitting wires as needed, and returns the assignment map.
func applyPlacements(t *rctree.Tree, last *placement) (map[rctree.NodeID]buffers.Buffer, error) {
	assign := make(map[rctree.NodeID]buffers.Buffer)
	if last == nil {
		return assign, nil
	}
	all := last.collect()

	// Group placements by the wire they live on, then realize each wire's
	// placements bottom-up by distance from the child end.
	byWire := map[rctree.NodeID][]*placement{}
	for _, p := range all {
		byWire[p.child] = append(byWire[p.child], p)
	}
	// Deterministic iteration order for reproducible node IDs.
	wires := make([]rctree.NodeID, 0, len(byWire))
	for w := range byWire {
		wires = append(wires, w)
	}
	sort.Slice(wires, func(i, j int) bool { return wires[i] < wires[j] })

	for _, child := range wires {
		ps := byWire[child]
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].atTop != ps[j].atTop {
				return !ps[i].atTop // top placements realize last
			}
			return ps[i].dist < ps[j].dist
		})
		total := t.Node(child).Wire.Length
		bottom := child // node whose parent wire is the unsplit remainder
		consumed := 0.0 // wire length already realized below `bottom`'s wire
		for _, p := range ps {
			var f float64
			switch {
			case p.atTop:
				f = 1
			case total-consumed <= 0:
				f = 1 // remainder has zero length; every point coincides
			default:
				f = (p.dist - consumed) / (total - consumed)
				if f < 0 {
					f = 0
				}
				if f > 1 {
					f = 1
				}
			}
			at, err := t.SplitWire(bottom, f)
			if err != nil {
				return nil, err
			}
			if prev, dup := assign[at]; dup {
				return nil, fmt.Errorf("core: two buffers (%s, %s) assigned to node %d", prev.Name, p.buf.Name, at)
			}
			assign[at] = p.buf
			if !p.atTop && p.dist > consumed {
				consumed = p.dist
			}
			bottom = at
		}
	}
	return assign, nil
}
