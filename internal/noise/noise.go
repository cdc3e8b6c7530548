// Package noise implements the Devgan coupled-noise metric (ICCAD 1997) on
// RC routing trees, as used throughout Section II-B of the paper.
//
// The metric has the same additive, bottom-up structure as the Elmore delay
// metric and is a provable upper bound on the coupled noise of RC (and
// overdamped RLC) circuits:
//
//	I_w    = Σ_k λ_k · μ_k · C_w                       (eq. 6)  current a
//	         wire's aggressors inject, A
//	I(v)   = Σ_{w ∈ subtree(v)} I_w                    (eq. 7)  downstream
//	         current
//	N(w)   = R_w · (I(v) + I_w/2)                      (eq. 8)  noise a wire
//	         adds on the way to v (π-model: half the wire's own current
//	         traverses its full resistance)
//	N(si)  = R_gate · I(root) + Σ_{w ∈ path} N(w)      (eq. 9)  noise at a
//	         sink, accumulated from the nearest upstream restoring stage
//
// Buffers are restoring stages: currents injected below a buffer do not
// propagate noise above it, and the noise accumulation restarts at each
// buffer output. The noise constraint (eq. 11) is N(si) ≤ NM(si) at every
// sink and N(input) ≤ NM(buffer) at every buffer input.
//
// In estimation mode (buffer insertion before routing, Section II-B), every
// wire is assumed coupled to a single aggressor with slope μ over a fixed
// fraction λ of its capacitance, so I_w = λ·μ·C_w. Wires that carry
// explicit aggressor lists (post-routing mode, Fig. 2) override the
// estimate.
package noise

import (
	"fmt"
	"math"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Params configures estimation mode.
type Params struct {
	// CouplingRatio λ: fraction of each wire's capacitance assumed to be
	// coupling capacitance (0.7 in Section V).
	CouplingRatio float64
	// Slope μ = Vdd / t_rise of the assumed aggressor, V/s
	// (1.8 V / 0.25 ns = 7.2e9 V/s in Section V).
	Slope float64
}

// Validate reports whether the parameters are usable for noise-aware
// optimization. Errors wrap guard.ErrInvalidInput.
func (p Params) Validate() error {
	if math.IsNaN(p.CouplingRatio) || p.CouplingRatio < 0 || p.CouplingRatio > 1 {
		return fmt.Errorf("noise: coupling ratio λ = %g must lie in [0, 1]: %w",
			p.CouplingRatio, guard.ErrInvalidInput)
	}
	if math.IsNaN(p.Slope) || math.IsInf(p.Slope, 0) || p.Slope <= 0 {
		return fmt.Errorf("noise: aggressor slope μ = %g V/s must be positive and finite: %w",
			p.Slope, guard.ErrInvalidInput)
	}
	return nil
}

// SectionV returns the experimental parameters of the paper: λ = 0.7,
// μ = 1.8 V / 0.25 ns.
func SectionV() Params {
	return Params{CouplingRatio: 0.7, Slope: 1.8 / 0.25e-9}
}

// PerCap returns the injected current per farad of wire capacitance, λ·μ.
func (p Params) PerCap() float64 { return p.CouplingRatio * p.Slope }

// WireCurrent returns the total current I_w the wire's aggressors inject
// (eq. 6): the explicit aggressor list if present, the single-aggressor
// estimate otherwise.
func (p Params) WireCurrent(w rctree.Wire) float64 {
	if w.Aggressors != nil {
		i := 0.0
		for _, a := range w.Aggressors {
			i += a.Ratio * a.Slope * w.C
		}
		return i
	}
	return p.PerCap() * w.C
}

// Assignment maps tree nodes to inserted buffers; nil means unbuffered.
type Assignment = map[rctree.NodeID]buffers.Buffer

// Violation records one node whose accumulated noise exceeds its margin.
type Violation struct {
	Node   rctree.NodeID
	Noise  float64 // accumulated peak noise bound at the node's input, V
	Margin float64 // the node's tolerable noise margin, V
}

// Result holds a full noise analysis of one buffered tree.
type Result struct {
	// WireCurrent[v] is I_w of v's parent wire (eq. 6); zero at the root.
	WireCurrent []float64
	// Downstream[v] is the coupling current that flows through v's parent
	// wire from strictly below v, with restoring cuts applied: currents
	// below a buffered node stop at the buffer.
	Downstream []float64
	// Noise[v] is the Devgan bound on peak noise at v's input, accumulated
	// from the nearest upstream restoring stage (eq. 9).
	Noise []float64
	// Violations lists every sink or buffer input over its margin, in
	// preorder.
	Violations []Violation
	// MaxNoise is the largest sink or buffer-input noise in the tree.
	MaxNoise float64
}

// Clean reports whether the tree satisfies all noise constraints.
func (r *Result) Clean() bool { return len(r.Violations) == 0 }

// Analyze runs a full noise analysis of tree t with the given buffer
// assignment (nil for the unbuffered tree) under estimation parameters p.
// It walks one preorder twice: reversed for the bottom-up currents (each
// node's children are summed in order, as in any postorder), then forward
// for the noise. The assignment is read only at buffered nodes, through a
// per-node table.
func Analyze(t *rctree.Tree, assign Assignment, p Params) *Result {
	defer obs.Timer("noise.analyze")()
	n := t.Len()
	r := &Result{
		WireCurrent: make([]float64, n),
		Downstream:  make([]float64, n),
		Noise:       make([]float64, n),
	}
	buffered := rctree.Marked(t, assign)
	root := t.Root()

	pre := t.Preorder()
	for i := len(pre) - 1; i >= 0; i-- {
		v := pre[i]
		node := t.Node(v)
		if v != root {
			r.WireCurrent[v] = p.WireCurrent(node.Wire)
		}
		sum := 0.0
		for _, c := range node.Children {
			if buffered[c] {
				// The child's parent wire still injects upstream of the
				// buffer input, but the buffer stops everything below it.
				sum += r.WireCurrent[c]
			} else {
				sum += r.WireCurrent[c] + r.Downstream[c]
			}
		}
		r.Downstream[v] = sum
	}

	// Top-down accumulation. out[v] is the noise at v's output side: zero
	// right after any restoring stage, pass-through otherwise.
	out := make([]float64, n)
	for _, v := range pre {
		node := t.Node(v)
		if v == root {
			r.Noise[v] = 0
			out[v] = t.DriverResistance * r.Downstream[v]
		} else {
			through := r.WireCurrent[v] / 2
			if !buffered[v] {
				through += r.Downstream[v]
			}
			r.Noise[v] = out[node.Parent] + node.Wire.R*through
			if buffered[v] {
				b := assign[v]
				if r.Noise[v] > b.NoiseMargin {
					r.Violations = append(r.Violations, Violation{Node: v, Noise: r.Noise[v], Margin: b.NoiseMargin})
				}
				out[v] = b.R * r.Downstream[v]
			} else {
				out[v] = r.Noise[v]
			}
		}
		if node.Kind == rctree.Sink {
			if r.Noise[v] > node.NoiseMargin {
				r.Violations = append(r.Violations, Violation{Node: v, Noise: r.Noise[v], Margin: node.NoiseMargin})
			}
		}
		if (node.Kind == rctree.Sink || buffered[v]) && r.Noise[v] > r.MaxNoise {
			r.MaxNoise = r.Noise[v]
		}
	}
	return r
}

// Slacks returns the noise slack NS(v) of every node of the *unbuffered*
// tree (eq. 12): the largest driver-side noise budget available at v such
// that every downstream sink still meets its margin.
//
//	NS(si) = NM(si)
//	NS(u)  = min over children v of NS(v) − R_w·(I(v) + I_w/2)
//
// The tree, driven by a gate with output resistance R at node v, is
// noise-clean below v iff R·I(v) ≤ NS(v).
func Slacks(t *rctree.Tree, p Params) []float64 {
	n := t.Len()
	ns := make([]float64, n)
	down := make([]float64, n)
	for _, v := range t.Postorder() {
		node := t.Node(v)
		if node.Kind == rctree.Sink {
			ns[v] = node.NoiseMargin
			down[v] = 0
			continue
		}
		ns[v] = math.Inf(1)
		sum := 0.0
		for _, c := range node.Children {
			w := t.Node(c).Wire
			iw := p.WireCurrent(w)
			s := ns[c] - w.R*(down[c]+iw/2)
			if s < ns[v] {
				ns[v] = s
			}
			sum += down[c] + iw
		}
		down[v] = sum
	}
	return ns
}

// DownstreamCurrents returns I(v) (eq. 7) for every node of the unbuffered
// tree: the total aggressor current injected strictly below v.
func DownstreamCurrents(t *rctree.Tree, p Params) []float64 {
	down := make([]float64, t.Len())
	for _, v := range t.Postorder() {
		node := t.Node(v)
		sum := 0.0
		for _, c := range node.Children {
			sum += p.WireCurrent(t.Node(c).Wire) + down[c]
		}
		down[v] = sum
	}
	return down
}

// CleanUnbuffered reports whether the unbuffered tree, driven by its
// source gate, meets all noise constraints: DriverResistance·I(root) ≤
// NS(root) (eq. 11 via eq. 12).
func CleanUnbuffered(t *rctree.Tree, p Params) bool {
	ns := Slacks(t, p)
	down := DownstreamCurrents(t, p)
	return t.DriverResistance*down[t.Root()] <= ns[t.Root()]
}
