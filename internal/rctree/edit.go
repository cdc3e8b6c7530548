package rctree

import (
	"errors"
	"fmt"
)

// Graft deep-copies the tree sub below parent, connected through a copy
// of wire w: sub's source becomes an Internal node (a legal buffer site,
// like the nodes SplitWire and InsertBelow create) and every descendant
// keeps its kind and electricals. Grafted nodes receive fresh IDs in
// preorder of sub, appended after the existing nodes, so existing IDs —
// and the memo entries keyed under them — are untouched. Returns the
// grafted root's new ID.
//
// Graft preserves Validate-cleanliness of the host but not binariness:
// callers feeding the dynamic program keep parent's child count ≤ 2
// themselves (or re-Binarize).
func (t *Tree) Graft(parent NodeID, sub *Tree, w Wire) (NodeID, error) {
	if !t.valid(parent) {
		return None, fmt.Errorf("rctree: graft parent %d does not exist", parent)
	}
	if t.nodes[parent].Kind == Sink {
		return None, fmt.Errorf("rctree: cannot graft below sink %d", parent)
	}
	if sub == nil || len(sub.nodes) == 0 {
		return None, errors.New("rctree: graft of an empty tree")
	}
	if w.R < 0 || w.C < 0 || w.Length < 0 {
		return None, fmt.Errorf("rctree: negative graft wire parameters %+v", w)
	}
	base := NodeID(len(t.nodes))
	// Old-sub-ID → new-host-ID; sub IDs are dense, so a slice suffices.
	remap := make([]NodeID, len(sub.nodes))
	for i, v := range sub.Preorder() {
		remap[v] = base + NodeID(i)
	}
	for _, v := range sub.Preorder() {
		n := sub.nodes[v] // copy
		n.ID = remap[v]
		if ch := n.Children; ch != nil {
			n.Children = make([]NodeID, len(ch))
			for i, c := range ch {
				n.Children[i] = remap[c]
			}
		}
		if ag := n.Wire.Aggressors; ag != nil {
			n.Wire.Aggressors = append([]Coupling(nil), ag...)
		}
		if v == sub.Root() {
			n.Kind = Internal
			n.BufferOK = true
			n.Parent = parent
			n.Wire = w
			if w.Aggressors != nil {
				n.Wire.Aggressors = append([]Coupling(nil), w.Aggressors...)
			}
		} else {
			n.Parent = remap[n.Parent]
		}
		t.nodes = append(t.nodes, n)
	}
	t.nodes[parent].Children = append(t.nodes[parent].Children, base)
	return base, nil
}

// Prune removes the subtree rooted at v and renumbers the survivors:
// node order is preserved and the slice compacted, so IDs stay dense and
// Validate's ID-equals-index invariant holds. Returns remap, indexed by
// old ID: remap[old] is the node's new ID, or None for removed nodes —
// callers holding per-node state (subtree hashes, memo entries, solution
// maps) relocate through it.
//
// The root cannot be pruned, and neither can a node whose removal leaves
// its parent a childless non-sink (the dynamic program has no value for
// such a node); prune the parent instead.
func (t *Tree) Prune(v NodeID) ([]NodeID, error) {
	if !t.valid(v) {
		return nil, fmt.Errorf("rctree: prune target %d does not exist", v)
	}
	if v == t.Root() {
		return nil, errors.New("rctree: cannot prune the source")
	}
	parent := t.nodes[v].Parent
	if len(t.nodes[parent].Children) == 1 {
		return nil, fmt.Errorf("rctree: pruning %d would leave %d a childless non-sink; prune %d instead",
			v, parent, parent)
	}

	doomed := make([]bool, len(t.nodes))
	for _, u := range t.Subtree(v) {
		doomed[u] = true
	}

	// Detach v from its parent, then compact in place.
	pc := t.nodes[parent].Children
	for i, c := range pc {
		if c == v {
			t.nodes[parent].Children = append(pc[:i], pc[i+1:]...)
			break
		}
	}
	remap := make([]NodeID, len(t.nodes))
	next := NodeID(0)
	for i := range t.nodes {
		if doomed[i] {
			remap[i] = None
			continue
		}
		remap[i] = next
		next++
	}
	kept := t.nodes[:0]
	for i := range t.nodes {
		if doomed[i] {
			continue
		}
		n := t.nodes[i]
		n.ID = remap[n.ID]
		if n.Parent != None {
			n.Parent = remap[n.Parent]
		}
		for j, c := range n.Children {
			n.Children[j] = remap[c]
		}
		kept = append(kept, n)
	}
	t.nodes = kept
	return remap, nil
}
