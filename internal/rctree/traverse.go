package rctree

// Preorder returns all node IDs in a parent-before-children order, starting
// at the root. The traversal is iterative, so arbitrarily deep trees (for
// example, finely segmented two-pin nets) are safe. The pending stack
// (the unvisited right siblings along the current path) starts in a local
// array, so while it stays under 64 entries the order is the walk's one
// allocation.
func (t *Tree) Preorder() []NodeID {
	order := make([]NodeID, 0, len(t.nodes))
	var local [64]NodeID
	stack := append(local[:0], t.Root())
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		ch := t.nodes[v].Children
		// Push in reverse so children come out left-to-right.
		for i := len(ch) - 1; i >= 0; i-- {
			stack = append(stack, ch[i])
		}
	}
	return order
}

// Postorder returns all node IDs in a children-before-parent order, ending
// at the root. Bottom-up dynamic programs iterate this slice directly
// instead of recursing.
func (t *Tree) Postorder() []NodeID {
	order := make([]NodeID, 0, len(t.nodes))
	type frame struct {
		id   NodeID
		next int // next child index to visit
	}
	stack := []frame{{id: t.Root()}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.nodes[f.id].Children
		if f.next < len(ch) {
			f.next++
			stack = append(stack, frame{id: ch[f.next-1]})
			continue
		}
		order = append(order, f.id)
		stack = stack[:len(stack)-1]
	}
	return order
}

// Subtree returns the IDs of all nodes in the subtree rooted at v
// (including v itself), in preorder.
func (t *Tree) Subtree(v NodeID) []NodeID {
	var order []NodeID
	stack := []NodeID{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		ch := t.nodes[u].Children
		for i := len(ch) - 1; i >= 0; i-- {
			stack = append(stack, ch[i])
		}
	}
	return order
}

// DownstreamSinks returns the sinks in the subtree rooted at v (the set
// SI(v) of the paper).
func (t *Tree) DownstreamSinks(v NodeID) []NodeID {
	var sinks []NodeID
	for _, u := range t.Subtree(v) {
		if t.nodes[u].Kind == Sink {
			sinks = append(sinks, u)
		}
	}
	return sinks
}

// Marked returns a per-node table of t that is true at every node m has
// a key for; keys naming no node of t are ignored. Per-node passes test
// the table instead of hashing every node into m, and read m only where
// it is true.
func Marked[V any](t *Tree, m map[NodeID]V) []bool {
	marks := make([]bool, len(t.nodes))
	for v := range m {
		if t.valid(v) {
			marks[v] = true
		}
	}
	return marks
}
