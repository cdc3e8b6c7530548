package rctree

import (
	"fmt"
	"math"
	"slices"
)

// Validate checks the structural and electrical sanity of the tree and
// returns the first problem found, or nil. Algorithms in package core call
// this on their inputs; it catches the malformed-tree failure modes the
// test suite injects (orphans, cycles via corrupt parent pointers,
// non-leaf sinks, NaN parameters, negative RC).
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("rctree: empty tree")
	}
	if t.nodes[0].Kind != Source {
		return fmt.Errorf("rctree: node 0 is %v, want source", t.nodes[0].Kind)
	}
	if t.DriverResistance < 0 || !finite(t.DriverResistance) {
		return fmt.Errorf("rctree: driver resistance %g invalid", t.DriverResistance)
	}
	if t.DriverDelay < 0 || !finite(t.DriverDelay) {
		return fmt.Errorf("rctree: driver delay %g invalid", t.DriverDelay)
	}

	seen := make([]bool, len(t.nodes))
	reached := 0
	for _, v := range t.Preorder() {
		if seen[v] {
			return fmt.Errorf("rctree: node %d reached twice (cycle or shared child)", v)
		}
		seen[v] = true
		reached++
	}
	if reached != len(t.nodes) {
		return fmt.Errorf("rctree: %d of %d nodes unreachable from the source",
			len(t.nodes)-reached, len(t.nodes))
	}

	sinks := 0
	for i := range t.nodes {
		if err := t.CheckNode(NodeID(i)); err != nil {
			return err
		}
		if t.nodes[i].Kind == Sink {
			sinks++
		}
	}
	if sinks == 0 {
		return fmt.Errorf("rctree: tree has no sinks")
	}
	return nil
}

// CheckNode runs Validate's checks of node v alone: its ID and kind, its
// sink electricals, its parent link and parent wire. Validate is exactly
// CheckNode on every node plus the tree-wide checks (driver, source at 0,
// reachability, at least one sink), so an edit that changes one node's
// values on a valid tree keeps it valid iff CheckNode passes on that node.
func (t *Tree) CheckNode(v NodeID) error {
	if !t.valid(v) {
		return fmt.Errorf("rctree: node %d does not exist", v)
	}
	i := int(v)
	n := &t.nodes[i]
	if n.ID != v {
		return fmt.Errorf("rctree: node at index %d has ID %d", i, n.ID)
	}
	switch n.Kind {
	case Source:
		if i != 0 {
			return fmt.Errorf("rctree: extra source at node %d", i)
		}
		if n.Parent != None {
			return fmt.Errorf("rctree: source has parent %d", n.Parent)
		}
	case Sink:
		if !n.IsLeaf() {
			return fmt.Errorf("rctree: sink %d has children", i)
		}
		if n.Cap < 0 || !finite(n.Cap) {
			return fmt.Errorf("rctree: sink %d capacitance %g invalid", i, n.Cap)
		}
		if n.NoiseMargin < 0 || !finite(n.NoiseMargin) {
			return fmt.Errorf("rctree: sink %d noise margin %g invalid", i, n.NoiseMargin)
		}
		if !finite(n.RAT) {
			return fmt.Errorf("rctree: sink %d RAT %g invalid", i, n.RAT)
		}
	case Internal:
		if n.BufferOK && n.IsLeaf() {
			return fmt.Errorf("rctree: internal node %d is a dangling leaf", i)
		}
	default:
		return fmt.Errorf("rctree: node %d has unknown kind %d", i, n.Kind)
	}
	if i == 0 {
		return nil
	}
	if !t.valid(n.Parent) {
		return fmt.Errorf("rctree: node %d has invalid parent %d", i, n.Parent)
	}
	w := n.Wire
	if w.R < 0 || w.C < 0 || w.Length < 0 ||
		!finite(w.R) || !finite(w.C) || !finite(w.Length) {
		return fmt.Errorf("rctree: node %d has invalid parent wire %+v", i, w)
	}
	for _, a := range w.Aggressors {
		if a.Ratio < 0 || a.Ratio > 1 || !finite(a.Ratio) {
			return fmt.Errorf("rctree: node %d coupling ratio %g invalid", i, a.Ratio)
		}
		if a.Slope < 0 || !finite(a.Slope) {
			return fmt.Errorf("rctree: node %d aggressor slope %g invalid", i, a.Slope)
		}
	}
	if !slices.Contains(t.nodes[n.Parent].Children, v) {
		return fmt.Errorf("rctree: node %d missing from children of parent %d", i, n.Parent)
	}
	return nil
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
