// Package elmore computes Elmore delays, loads, arrival times, and timing
// slacks on (possibly buffered) RC routing trees, following Section II-A of
// the paper.
//
// Wires use the π-model: the delay of wire w = (u, v) is
//
//	Delay(w) = R_w · (C_w/2 + C(v))     (eq. 2)
//
// where C(v) is the downstream capacitance seen at v (eq. 1). Gates use the
// linear model Delay = T + R·load (eq. 3). A buffer inserted at a node
// decouples its entire subtree: upstream the node presents only the
// buffer's input capacitance, and the buffer's own gate delay is added on
// every source-to-sink path through it.
package elmore

import (
	"math"

	"buffopt/internal/buffers"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Assignment maps tree nodes to inserted buffers. A nil map means the
// unbuffered tree.
type Assignment = map[rctree.NodeID]buffers.Buffer

// Result holds the full timing analysis of one buffered tree.
type Result struct {
	// Cap[v] is the capacitance the parent wire of v sees looking into v:
	// the buffer input capacitance if v is buffered, otherwise v's pin
	// capacitance plus all downstream wire and subtree capacitance.
	Cap []float64
	// Drive[v] is the load driven at v's output side: the sum over v's
	// children of (child wire C + Cap[child]), plus v's own pin cap when v
	// is a sink. For a buffered node this is the load the buffer drives.
	Drive []float64
	// Arrival[v] is the signal arrival time at v's input, with the source
	// driver's gate delay included (the input signal arrives at the source
	// at time zero, eq. 4/5).
	Arrival []float64
	// SinkSlack[v] = RAT(v) − Arrival[v] for sinks; +Inf elsewhere.
	SinkSlack []float64
	// WorstSlack is the minimum sink slack (the slack at the source in the
	// paper's formulation, once the driver delay is folded in).
	WorstSlack float64
	// WorstSink is a sink achieving WorstSlack.
	WorstSink rctree.NodeID
	// MaxDelay is the maximum source-to-sink delay.
	MaxDelay float64
}

// Analyze runs a full timing analysis of tree t with the given buffer
// assignment (nil for the unbuffered tree). It walks one preorder twice:
// reversed for the bottom-up loads (each node's children are summed in
// order, as in any postorder), then forward for the arrival times. The
// assignment is read only at buffered nodes, through a per-node table.
func Analyze(t *rctree.Tree, assign Assignment) *Result {
	defer obs.Timer("elmore.analyze").End()
	n := t.Len()
	r := &Result{
		Cap:        make([]float64, n),
		Drive:      make([]float64, n),
		Arrival:    make([]float64, n),
		SinkSlack:  make([]float64, n),
		WorstSlack: math.Inf(1),
		WorstSink:  rctree.None,
	}
	buffered := rctree.Marked(t, assign)
	root := t.Root()

	pre := t.Preorder()
	for i := len(pre) - 1; i >= 0; i-- {
		v := pre[i]
		node := t.Node(v)
		drive := 0.0
		if node.Kind == rctree.Sink {
			drive = node.Cap
		}
		for _, c := range node.Children {
			drive += t.Node(c).Wire.C + r.Cap[c]
		}
		r.Drive[v] = drive
		if buffered[v] {
			r.Cap[v] = assign[v].Cin
		} else {
			r.Cap[v] = drive
		}
	}

	for _, v := range pre {
		node := t.Node(v)
		if v == root {
			r.Arrival[v] = 0
		} else {
			w := &node.Wire
			u := node.Parent
			// Arrival at v's input: the parent's output-side arrival plus
			// the wire delay. The parent's output-side time is its stored
			// input arrival plus its gate delay (a buffer if one is
			// assigned there, else the driver at the root, nothing
			// otherwise).
			parentOut := r.Arrival[u]
			if buffered[u] {
				parentOut += assign[u].Delay(r.Drive[u])
			} else if u == root {
				parentOut += t.DriverDelay + t.DriverResistance*r.Drive[u]
			}
			r.Arrival[v] = parentOut + w.R*(w.C/2+r.Cap[v])
		}

		if node.Kind == rctree.Sink {
			r.SinkSlack[v] = node.RAT - r.Arrival[v]
			if r.SinkSlack[v] < r.WorstSlack {
				r.WorstSlack = r.SinkSlack[v]
				r.WorstSink = v
			}
			if r.Arrival[v] > r.MaxDelay {
				r.MaxDelay = r.Arrival[v]
			}
		} else {
			r.SinkSlack[v] = math.Inf(1)
		}
	}
	return r
}

// WireDelay returns the Elmore delay of a single wire driving load, eq. 2.
func WireDelay(w rctree.Wire, load float64) float64 {
	return w.R * (w.C/2 + load)
}

// Loads returns the unbuffered downstream capacitance C(v) for every node
// (eq. 1).
func Loads(t *rctree.Tree) []float64 {
	caps := make([]float64, t.Len())
	for _, v := range t.Postorder() {
		node := t.Node(v)
		c := 0.0
		if node.Kind == rctree.Sink {
			c = node.Cap
		}
		for _, ch := range node.Children {
			c += t.Node(ch).Wire.C + caps[ch]
		}
		caps[v] = c
	}
	return caps
}

// SinkDelay returns the Elmore delay from the source to one sink of the
// unbuffered tree, computed independently by walking the path (eq. 4).
// This O(n) per-sink form exists as a cross-check for Analyze; production
// code uses Analyze.
func SinkDelay(t *rctree.Tree, sink rctree.NodeID) float64 {
	caps := Loads(t)
	d := t.DriverDelay + t.DriverResistance*caps[t.Root()]
	path := t.PathToRoot(sink)
	for _, v := range path {
		if v == t.Root() {
			continue
		}
		w := t.Node(v).Wire
		d += w.R * (w.C/2 + caps[v])
	}
	return d
}

// WorstSlack is a convenience wrapper returning the minimum sink slack of
// the tree under the given assignment.
func WorstSlack(t *rctree.Tree, assign Assignment) float64 {
	return Analyze(t, assign).WorstSlack
}
