package circuit

import (
	"fmt"
	"math"

	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

// Method selects the time-integration scheme.
type Method int

const (
	// Trapezoidal is second-order accurate and A-stable; the default.
	Trapezoidal Method = iota
	// BackwardEuler is first-order and L-stable; used as a cross-check in
	// the test suite.
	BackwardEuler
)

// TranOptions configures a transient run.
type TranOptions struct {
	Step     float64 // fixed time step, s (required, > 0)
	Duration float64 // total simulated time, s (required, > 0)
	Method   Method
	// Probes lists nodes whose full waveforms are recorded. Peak values
	// are tracked for every node regardless.
	Probes []int
	// Budget bounds the run: its MaxSimSteps cap is checked against the
	// total step count before simulating, and its context is polled
	// periodically inside the step loop. Nil means unlimited.
	Budget *guard.Budget
}

// TranResult is the outcome of a transient simulation.
type TranResult struct {
	Times []float64
	// Waves holds the recorded waveform of each probed node.
	Waves map[int][]float64
	// PeakAbs[node] is the maximum |V| over the run, for every node.
	PeakAbs []float64
	// PeakTime[node] is the time at which PeakAbs was reached.
	PeakTime []float64
	// Final[node] is the voltage at the end of the run.
	Final []float64
}

// gmin is a tiny leak conductance from every node to ground that keeps the
// DC initialization matrix non-singular when nodes connect only through
// capacitors. It is small enough (1 TΩ) not to disturb the results.
const gmin = 1e-12

// Transient simulates the netlist from a DC initial condition (sources at
// their t=0 values) for opts.Duration seconds.
func Transient(n *Netlist, opts TranOptions) (*TranResult, error) {
	if opts.Step <= 0 || math.IsNaN(opts.Step) {
		return nil, fmt.Errorf("circuit: step %g must be positive", opts.Step)
	}
	if opts.Duration <= 0 || math.IsNaN(opts.Duration) {
		return nil, fmt.Errorf("circuit: duration %g must be positive", opts.Duration)
	}
	nv := n.nodes - 1 // unknown node voltages (ground excluded)
	m := nv + len(n.sources)
	if m == 0 {
		return nil, fmt.Errorf("circuit: empty netlist")
	}
	h := opts.Step

	// idx maps a node to its matrix row, or -1 for ground.
	idx := func(node int) int { return node - 1 }

	stampG := func(a []float64, i, j int, g float64) {
		ii, jj := idx(i), idx(j)
		if ii >= 0 {
			a[ii*m+ii] += g
		}
		if jj >= 0 {
			a[jj*m+jj] += g
		}
		if ii >= 0 && jj >= 0 {
			a[ii*m+jj] -= g
			a[jj*m+ii] -= g
		}
	}

	// Inductor companion conductance: trapezoidal h/2L, backward Euler
	// h/L; at DC an inductor is a short, modeled as a large conductance.
	const gshort = 1e6
	indG := func(l float64) float64 {
		if opts.Method == Trapezoidal {
			return h / (2 * l)
		}
		return h / l
	}

	build := func(withCaps bool) []float64 {
		a := make([]float64, m*m)
		for _, r := range n.resistors {
			stampG(a, r.a, r.b, r.g)
		}
		for i := 0; i < nv; i++ {
			a[i*m+i] += gmin
		}
		if withCaps {
			for _, c := range n.caps {
				geq := c.c / h
				if opts.Method == Trapezoidal {
					geq = 2 * c.c / h
				}
				stampG(a, c.a, c.b, geq)
			}
			for _, l := range n.inductors {
				stampG(a, l.a, l.b, indG(l.l))
			}
		} else {
			for _, l := range n.inductors {
				stampG(a, l.a, l.b, gshort)
			}
		}
		for k, s := range n.sources {
			r := nv + k
			if i := idx(s.pos); i >= 0 {
				a[r*m+i] += 1
				a[i*m+r] += 1
			}
			if i := idx(s.neg); i >= 0 {
				a[r*m+i] -= 1
				a[i*m+r] -= 1
			}
		}
		return a
	}

	// DC initialization: capacitors open, sources at t=0.
	dcLU, err := factor(build(false), m)
	if err != nil {
		return nil, fmt.Errorf("circuit: DC init failed: %w", err)
	}
	rhs := make([]float64, m)
	x := make([]float64, m)
	for k, s := range n.sources {
		rhs[nv+k] = s.wave.V(0)
	}
	dcLU.solve(rhs, x)

	// Node voltages, ground included at index 0.
	v := make([]float64, n.nodes)
	for node := 1; node < n.nodes; node++ {
		v[node] = x[idx(node)]
	}

	// Transient matrix: factored once, reused each step.
	trLU, err := factor(build(true), m)
	if err != nil {
		return nil, fmt.Errorf("circuit: transient matrix singular: %w", err)
	}

	steps := int(math.Ceil(opts.Duration / h))
	if err := opts.Budget.CheckSimSteps(steps); err != nil {
		return nil, err
	}
	defer obs.Timer("circuit.transient").End()
	obs.Add("circuit.transient.steps", int64(steps))
	obs.ObserveSize("circuit.transient.matrix_dim", int64(m))
	res := &TranResult{
		Times:    make([]float64, 0, steps+1),
		Waves:    map[int][]float64{},
		PeakAbs:  make([]float64, n.nodes),
		PeakTime: make([]float64, n.nodes),
		Final:    make([]float64, n.nodes),
	}
	probe := map[int]bool{}
	for _, p := range opts.Probes {
		if err := n.checkNode(p); err != nil {
			return nil, err
		}
		probe[p] = true
	}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for node := 0; node < n.nodes; node++ {
			av := math.Abs(v[node])
			if av > res.PeakAbs[node] {
				res.PeakAbs[node] = av
				res.PeakTime[node] = t
			}
			if probe[node] {
				res.Waves[node] = append(res.Waves[node], v[node])
			}
		}
	}
	record(0)

	// Capacitor branch currents (a→b), needed by the trapezoidal
	// companion model, and inductor branch currents (a→b), needed by both
	// integrators.
	icap := make([]float64, len(n.caps))
	iind := make([]float64, len(n.inductors))

	vd := func(a, b int) float64 { return v[a] - v[b] }
	for li, l := range n.inductors {
		// DC initial condition: the short's current.
		iind[li] = gshort * vd(l.a, l.b)
	}

	pacer := opts.Budget.Pacer(256)
	for s := 1; s <= steps; s++ {
		if err := pacer.Tick(); err != nil {
			return nil, err
		}
		t := float64(s) * h
		for i := range rhs {
			rhs[i] = 0
		}
		for ci, c := range n.caps {
			var ieq float64
			if opts.Method == Trapezoidal {
				geq := 2 * c.c / h
				ieq = geq*vd(c.a, c.b) + icap[ci]
			} else {
				geq := c.c / h
				ieq = geq * vd(c.a, c.b)
			}
			if i := idx(c.a); i >= 0 {
				rhs[i] += ieq
			}
			if i := idx(c.b); i >= 0 {
				rhs[i] -= ieq
			}
		}
		for li, l := range n.inductors {
			// i_{n+1} = geq·v_{n+1} + (i_n + geq·v_n) for trapezoidal,
			// i_{n+1} = geq·v_{n+1} + i_n for backward Euler; the history
			// term is a current source from a into b.
			ihist := iind[li]
			if opts.Method == Trapezoidal {
				ihist += indG(l.l) * vd(l.a, l.b)
			}
			if i := idx(l.a); i >= 0 {
				rhs[i] -= ihist
			}
			if i := idx(l.b); i >= 0 {
				rhs[i] += ihist
			}
		}
		for k, src := range n.sources {
			rhs[nv+k] = src.wave.V(t)
		}
		trLU.solve(rhs, x)
		// Update capacitor and inductor currents before overwriting v.
		for ci, c := range n.caps {
			newVd := get(x, idx(c.a)) - get(x, idx(c.b))
			if opts.Method == Trapezoidal {
				geq := 2 * c.c / h
				ieq := geq*vd(c.a, c.b) + icap[ci]
				icap[ci] = geq*newVd - ieq
			}
		}
		for li, l := range n.inductors {
			newVd := get(x, idx(l.a)) - get(x, idx(l.b))
			ihist := iind[li]
			if opts.Method == Trapezoidal {
				ihist += indG(l.l) * vd(l.a, l.b)
			}
			iind[li] = indG(l.l)*newVd + ihist
		}
		for node := 1; node < n.nodes; node++ {
			v[node] = x[idx(node)]
		}
		record(t)
	}
	copy(res.Final, v)
	return res, nil
}

func get(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}
