package steiner

import (
	"fmt"

	"buffopt/internal/guard"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Tech holds the per-unit-length interconnect parasitics used to convert
// geometric wire lengths into RC values.
type Tech struct {
	RPerLen float64 // Ω/m
	CPerLen float64 // F/m
}

// Wire converts a length into an rctree.Wire under this technology.
func (t Tech) Wire(length float64) rctree.Wire {
	return rctree.Wire{R: t.RPerLen * length, C: t.CPerLen * length, Length: length}
}

// Sink is one net terminal to route to.
type Sink struct {
	Name        string
	At          Point
	Cap         float64 // pin capacitance, F
	RAT         float64 // required arrival time, s
	NoiseMargin float64 // V
}

// Net describes an unrouted net: driver placement and model plus sinks.
type Net struct {
	Name    string
	Driver  Point
	DriverR float64 // driver output resistance, Ω
	DriverT float64 // driver intrinsic delay, s
	Sinks   []Sink
}

// Algorithm selects the topology generator.
type Algorithm int

const (
	// RectilinearMST embeds a Prim rectilinear MST with L-shaped edges.
	RectilinearMST Algorithm = iota
	// OneSteiner embeds the iterated 1-Steiner tree (shorter, slower).
	OneSteiner
)

// Route builds an rctree.Tree estimate for the net: topology from the
// selected heuristic, L-shaped edge embedding (a corner Steiner node per
// bent edge), and RC parasitics from tech. Corner and Steiner nodes are
// legal buffer sites. The resulting tree is binarized.
func Route(net Net, tech Tech, alg Algorithm) (*rctree.Tree, error) {
	return RouteBudget(net, tech, alg, nil)
}

// RouteBudget is Route under a resource budget: the tree-node cap is
// checked against the terminal count up front, and the 1-Steiner search is
// polled for cancellation. A nil budget imposes no limits.
func RouteBudget(net Net, tech Tech, alg Algorithm, b *guard.Budget) (*rctree.Tree, error) {
	defer obs.Timer("steiner.route").End()
	if len(net.Sinks) == 0 {
		return nil, fmt.Errorf("steiner: net %q has no sinks: %w", net.Name, guard.ErrInvalidInput)
	}
	if tech.RPerLen < 0 || tech.CPerLen < 0 {
		return nil, fmt.Errorf("steiner: negative technology parasitics %+v: %w", tech, guard.ErrInvalidInput)
	}
	if err := b.CheckTreeNodes(len(net.Sinks) + 1); err != nil {
		return nil, err
	}

	// Terminal 0 is the driver; terminals 1..len(Sinks) are sinks.
	terms := make([]Point, 0, len(net.Sinks)+1)
	terms = append(terms, net.Driver)
	for _, s := range net.Sinks {
		terms = append(terms, s.At)
	}
	pts := terms
	if alg == OneSteiner {
		var err error
		if pts, err = IteratedOneSteinerBudget(terms, b); err != nil {
			return nil, err
		}
	}
	return buildTree(net, tech, pts, mstParents(pts))
}

// buildTree orients a spanning tree (parent array over pts, rooted at
// index 0 = the driver) from the driver and converts it into a binarized,
// validated rctree with L-shaped edge embedding.
func buildTree(net Net, tech Tech, pts []Point, parents []int) (*rctree.Tree, error) {
	children := make([][]int, len(pts))
	for i, p := range parents {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}

	tr := rctree.New(net.Name, net.DriverR, net.DriverT)
	tr.Node(tr.Root()).X = net.Driver.X
	tr.Node(tr.Root()).Y = net.Driver.Y

	ids := make([]rctree.NodeID, len(pts))
	ids[0] = tr.Root()
	stack := []int{0}
	for len(stack) > 0 {
		pi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ci := range children[pi] {
			id, err := attach(tr, ids[pi], pts[pi], pts[ci], net, ci, len(children[ci]) > 0, tech)
			if err != nil {
				return nil, err
			}
			ids[ci] = id
			stack = append(stack, ci)
		}
	}
	tr.Binarize()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("steiner: built an invalid tree for %q: %w", net.Name, err)
	}
	return tr, nil
}

// attach adds the tree node for point index ci (with an L-shaped corner
// node when the edge bends). Point indices above the terminal count are
// Steiner points and become internal nodes. A sink that the spanning tree
// routes through (hasChildren) becomes an internal tap node with the sink
// pin hanging off it on a zero-length wire, since sinks must be leaves.
// The returned ID is the node downstream wires should attach to.
func attach(tr *rctree.Tree, parent rctree.NodeID, from, to Point, net Net, ci int, hasChildren bool, tech Tech) (rctree.NodeID, error) {
	at := parent
	// L-shape: horizontal first, then vertical, via corner (to.X, from.Y).
	if to.X != from.X && to.Y != from.Y {
		corner := Point{to.X, from.Y}
		id, err := tr.AddInternal(at, tech.Wire(Dist(from, corner)), true)
		if err != nil {
			return rctree.None, err
		}
		tr.Node(id).X, tr.Node(id).Y = corner.X, corner.Y
		at = id
		from = corner
	}
	w := tech.Wire(Dist(from, to))
	isSink := ci >= 1 && ci <= len(net.Sinks)
	if isSink && !hasChildren {
		s := net.Sinks[ci-1]
		id, err := tr.AddSink(at, w, s.Name, s.Cap, s.RAT, s.NoiseMargin)
		if err != nil {
			return rctree.None, err
		}
		tr.Node(id).X, tr.Node(id).Y = to.X, to.Y
		return id, nil
	}
	id, err := tr.AddInternal(at, w, true)
	if err != nil {
		return rctree.None, err
	}
	tr.Node(id).X, tr.Node(id).Y = to.X, to.Y
	if isSink {
		s := net.Sinks[ci-1]
		pin, err := tr.AddSink(id, rctree.Wire{}, s.Name, s.Cap, s.RAT, s.NoiseMargin)
		if err != nil {
			return rctree.None, err
		}
		tr.Node(pin).X, tr.Node(pin).Y = to.X, to.Y
	}
	return id, nil
}
