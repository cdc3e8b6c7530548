package rctree

import (
	"errors"
	"fmt"
	"math"
)

// Tree is a routed net: a source-rooted RC tree plus the driving gate's
// linear model (intrinsic resistance and delay, eq. 3 of the paper).
//
// The zero value is not usable; construct trees with New.
type Tree struct {
	// DriverResistance is the output resistance R(so) of the gate driving
	// the source, Ω. It appears both in the source gate delay
	// (T + R·C(root)) and in the root noise term (R·I(root), eq. 9).
	DriverResistance float64
	// DriverDelay is the intrinsic delay T(so) of the driving gate, s.
	DriverDelay float64

	nodes []Node
}

// New creates a tree containing only a source node with the given name and
// driver model.
func New(name string, driverR, driverT float64) *Tree {
	t := &Tree{DriverResistance: driverR, DriverDelay: driverT}
	t.nodes = append(t.nodes, Node{
		ID:     0,
		Kind:   Source,
		Name:   name,
		Parent: None,
	})
	return t
}

// Root returns the source node's ID (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// Node returns the node with the given ID. The pointer stays valid until
// the next topology edit (AddSink, AddInternal, SplitWire, Binarize).
func (t *Tree) Node(id NodeID) *Node {
	return &t.nodes[id]
}

// valid reports whether id names an existing node.
func (t *Tree) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(t.nodes)
}

// addNode appends a fully-formed node (except ID) as a child of parent.
func (t *Tree) addNode(parent NodeID, n Node) (NodeID, error) {
	if !t.valid(parent) {
		return None, fmt.Errorf("rctree: parent %d does not exist", parent)
	}
	if t.nodes[parent].Kind == Sink {
		return None, fmt.Errorf("rctree: cannot attach a child to sink %d", parent)
	}
	if n.Wire.R < 0 || n.Wire.C < 0 || n.Wire.Length < 0 {
		return None, fmt.Errorf("rctree: negative wire parameters %+v", n.Wire)
	}
	id := NodeID(len(t.nodes))
	n.ID = id
	n.Parent = parent
	t.nodes = append(t.nodes, n)
	t.nodes[parent].Children = append(t.nodes[parent].Children, id)
	return id, nil
}

// AddSink attaches a new sink below parent through wire w.
func (t *Tree) AddSink(parent NodeID, w Wire, name string, cap, rat, noiseMargin float64) (NodeID, error) {
	if cap < 0 {
		return None, fmt.Errorf("rctree: sink %q has negative capacitance %g", name, cap)
	}
	return t.addNode(parent, Node{
		Kind:        Sink,
		Name:        name,
		Wire:        w,
		Cap:         cap,
		RAT:         rat,
		NoiseMargin: noiseMargin,
	})
}

// AddInternal attaches a new internal node below parent through wire w.
// bufferOK marks the node as a legal buffer site.
func (t *Tree) AddInternal(parent NodeID, w Wire, bufferOK bool) (NodeID, error) {
	return t.addNode(parent, Node{Kind: Internal, Wire: w, BufferOK: bufferOK})
}

// SplitWire cuts the parent wire of node v at fraction f (0 ≤ f ≤ 1,
// measured from v toward its parent) and inserts a new internal node n
// there, so that parent(v) → n → v. The new node is a legal buffer site.
// It returns the new node's ID.
//
// The boundary fractions produce zero-length, zero-RC pieces: f = 0 places
// n electrically at v (the new node takes the whole wire and v hangs below
// it on a zero wire), and f = 1 places n electrically at v's parent (the
// paper's "buffer immediately following" a branch point).
//
// This is the edit Algorithms 1 and 2 apply when Theorem 1 places a buffer
// at its maximal distance up a wire.
func (t *Tree) SplitWire(v NodeID, f float64) (NodeID, error) {
	if !t.valid(v) {
		return None, fmt.Errorf("rctree: node %d does not exist", v)
	}
	if v == t.Root() {
		return None, errors.New("rctree: the source has no parent wire to split")
	}
	if f < 0 || f > 1 || math.IsNaN(f) {
		return None, fmt.Errorf("rctree: split fraction %g outside [0, 1]", f)
	}
	node := &t.nodes[v]
	parent := node.Parent
	lower, upper := node.Wire.split(f)

	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{
		ID:       id,
		Kind:     Internal,
		BufferOK: true,
		// Interpolate the placement along the wire for reporting.
		X:        t.nodes[v].X + (t.nodes[parent].X-t.nodes[v].X)*f,
		Y:        t.nodes[v].Y + (t.nodes[parent].Y-t.nodes[v].Y)*f,
		Wire:     upper,
		Parent:   parent,
		Children: []NodeID{v},
	})
	// Re-take pointers: the append above may have moved the backing array.
	node = &t.nodes[v]
	node.Parent = id
	node.Wire = lower

	pc := t.nodes[parent].Children
	for i, c := range pc {
		if c == v {
			pc[i] = id
			return id, nil
		}
	}
	return None, fmt.Errorf("rctree: corrupt tree, %d missing from children of %d", v, parent)
}

// InsertBelow inserts a new internal node n directly below u, connected by
// a zero-length, zero-RC wire, and moves all of u's children under n. The
// new node is a legal buffer site; electrically it sits at the same point
// as u. This realizes "insert a buffer right after the source" (Step 5 of
// Algorithm 1) and buffer placement at the very top of a branch.
func (t *Tree) InsertBelow(u NodeID) (NodeID, error) {
	if !t.valid(u) {
		return None, fmt.Errorf("rctree: node %d does not exist", u)
	}
	if t.nodes[u].Kind == Sink {
		return None, fmt.Errorf("rctree: cannot insert below sink %d", u)
	}
	id := NodeID(len(t.nodes))
	children := t.nodes[u].Children
	t.nodes = append(t.nodes, Node{
		ID:       id,
		Kind:     Internal,
		BufferOK: true,
		X:        t.nodes[u].X,
		Y:        t.nodes[u].Y,
		Parent:   u,
		Children: children,
	})
	for _, c := range children {
		t.nodes[c].Parent = id
	}
	t.nodes[u].Children = []NodeID{id}
	return id, nil
}

// Clone returns a deep copy of the tree. Mutating the copy never affects
// the original. It allocates the same four blocks whatever the tree's
// size: the tree, its nodes, and one backing array each for every child
// list and every aggressor list. Each list is a capacity-limited window
// of its array, so an append to one (addNode, an edit's graft) moves it
// rather than writing over the next node's list.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		DriverResistance: t.DriverResistance,
		DriverDelay:      t.DriverDelay,
		nodes:            make([]Node, len(t.nodes)),
	}
	copy(c.nodes, t.nodes)
	nch, nag := 0, 0
	for i := range t.nodes {
		nch += len(t.nodes[i].Children)
		nag += len(t.nodes[i].Wire.Aggressors)
	}
	chs, ags := make([]NodeID, 0, nch), make([]Coupling, 0, nag)
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.Children != nil {
			a := len(chs)
			chs = append(chs, n.Children...)
			n.Children = chs[a:len(chs):len(chs)]
		}
		if n.Wire.Aggressors != nil {
			a := len(ags)
			ags = append(ags, n.Wire.Aggressors...)
			n.Wire.Aggressors = ags[a:len(ags):len(ags)]
		}
	}
	return c
}

// Sinks returns the IDs of all sink nodes, in ID order.
func (t *Tree) Sinks() []NodeID {
	var s []NodeID
	for i := range t.nodes {
		if t.nodes[i].Kind == Sink {
			s = append(s, t.nodes[i].ID)
		}
	}
	return s
}

// NumSinks returns the number of sink nodes.
func (t *Tree) NumSinks() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].Kind == Sink {
			n++
		}
	}
	return n
}

// TotalWireCap returns the sum of all wire capacitances (excluding sink
// pin capacitance), F.
func (t *Tree) TotalWireCap() float64 {
	c := 0.0
	for i := range t.nodes {
		c += t.nodes[i].Wire.C
	}
	return c
}

// TotalCap returns all wire capacitance plus all sink pin capacitance, F.
// This is the "total capacitance" used in Section V to select the 500 test
// nets.
func (t *Tree) TotalCap() float64 {
	c := 0.0
	for i := range t.nodes {
		c += t.nodes[i].Wire.C + t.nodes[i].Cap
	}
	return c
}

// TotalWireLength returns the total routed length of the tree, m.
func (t *Tree) TotalWireLength() float64 {
	l := 0.0
	for i := range t.nodes {
		l += t.nodes[i].Wire.Length
	}
	return l
}

// IsBinary reports whether every node has at most two children, the form
// required by the dynamic-programming algorithms.
func (t *Tree) IsBinary() bool {
	for i := range t.nodes {
		if len(t.nodes[i].Children) > 2 {
			return false
		}
	}
	return true
}

// Left returns v's first child, or None.
func (t *Tree) Left(v NodeID) NodeID {
	ch := t.nodes[v].Children
	if len(ch) == 0 {
		return None
	}
	return ch[0]
}

// Right returns v's second child, or None.
func (t *Tree) Right(v NodeID) NodeID {
	ch := t.nodes[v].Children
	if len(ch) < 2 {
		return None
	}
	return ch[1]
}

// Binarize converts the tree in place to binary form. Each node with d > 2
// children is expanded with d-2 dummy internal nodes connected by
// zero-length, zero-RC wires, following footnote 1 of the paper. Dummy
// nodes are not legal buffer sites. The choice of which children are
// grouped does not affect any algorithm's result (the dummy wires are
// electrically invisible).
func (t *Tree) Binarize() {
	// Iterate by index; new nodes are appended and themselves get ≤ 2
	// children, so a single pass over a growing slice terminates.
	for i := 0; i < len(t.nodes); i++ {
		for len(t.nodes[i].Children) > 2 {
			ch := t.nodes[i].Children
			// Keep the first child in place; move the rest under a dummy.
			id := NodeID(len(t.nodes))
			dummy := Node{
				ID:       id,
				Kind:     Internal,
				Name:     "",
				X:        t.nodes[i].X,
				Y:        t.nodes[i].Y,
				Parent:   t.nodes[i].ID,
				Children: append([]NodeID(nil), ch[1:]...),
				// Wire is zero-valued: zero length, zero RC.
			}
			t.nodes = append(t.nodes, dummy)
			for _, c := range ch[1:] {
				t.nodes[c].Parent = id
			}
			t.nodes[i].Children = []NodeID{ch[0], id}
		}
	}
}

// PathToRoot returns the node IDs from v up to (and including) the root.
func (t *Tree) PathToRoot(v NodeID) []NodeID {
	var p []NodeID
	for v != None {
		p = append(p, v)
		v = t.nodes[v].Parent
	}
	return p
}

// Depth returns the maximum number of edges on any root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int, len(t.nodes))
	max := 0
	for _, v := range t.Preorder() {
		if v == t.Root() {
			continue
		}
		d := depth[t.nodes[v].Parent] + 1
		depth[v] = d
		if d > max {
			max = d
		}
	}
	return max
}
