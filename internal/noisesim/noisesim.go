// Package noisesim is the repository's stand-in for "3dnoise", the
// detailed simulation-based noise analysis tool the paper uses to
// independently verify BuffOpt (Section V).
//
// Given a (possibly buffered) routing tree it constructs the full coupled
// linear circuit — victim wires as RC π-segments, coupling capacitance to
// ideal aggressor ramps, the victim driver and every inserted buffer
// holding their subnets low through their output resistances, sink and
// buffer input pin capacitance — simulates the aggressors switching
// simultaneously at t = 0, and reports the peak noise voltage at every
// gate input.
//
// Because the Devgan metric is a provable upper bound for RC circuits, the
// simulated peaks must never exceed the metric's prediction; the test
// suite asserts this, mirroring the paper's observation that the metric is
// conservative (it flags 423 nets where the detailed tool flags 386,
// Table II).
package noisesim

import (
	"fmt"
	"math"
	"sort"

	"buffopt/internal/buffers"
	"buffopt/internal/circuit"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// Assignment maps tree nodes to inserted buffers; nil means unbuffered.
type Assignment = map[rctree.NodeID]buffers.Buffer

// Options configures a simulation.
type Options struct {
	// Vdd is the aggressor swing, V. Combined with a slope μ it yields
	// the aggressor rise time Vdd/μ. Default 1.8 (the Section V supply).
	Vdd float64
	// Params supplies the estimation-mode coupling (λ, μ) for wires
	// without explicit aggressor lists.
	Params noise.Params
	// StepsPerRise controls the time step: rise/StepsPerRise. Default 100.
	StepsPerRise int
	// SettleFactor extends the simulation past the aggressor transition
	// by this multiple of the victim's crude RC time constant. Default 6.
	SettleFactor float64
	// MaxSteps caps the total step count; the step is coarsened when the
	// settle window would exceed it. Default 20000.
	MaxSteps int
	// Budget bounds the run: the transient verifier forwards it to the
	// circuit simulator (deadline polling plus the MaxSimSteps cap), and
	// the AWE verifier polls it across its per-gate grid scans. Nil means
	// unlimited.
	Budget *guard.Budget
}

func (o Options) withDefaults() Options {
	if o.Vdd == 0 {
		o.Vdd = 1.8
	}
	if o.StepsPerRise == 0 {
		o.StepsPerRise = 100
	}
	if o.SettleFactor == 0 {
		o.SettleFactor = 6
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 20000
	}
	return o
}

// Violation is a gate input whose simulated peak noise exceeds its margin.
type Violation struct {
	Node   rctree.NodeID
	Peak   float64
	Margin float64
}

// Result holds the simulated peaks.
type Result struct {
	// Peak[v] is the simulated peak |V| at the input of gate v (sinks and
	// buffer inputs only; other nodes are absent).
	Peak map[rctree.NodeID]float64
	// Violations lists gates over margin, sorted by node ID.
	Violations []Violation
	// MaxNoise is the largest observed gate-input peak.
	MaxNoise float64
	// Fallbacks counts gate inputs where SimulateAWE could not build a
	// stable reduced model and substituted the (conservative) Devgan
	// bound instead. Always zero for the transient Simulate.
	Fallbacks int
}

// Clean reports whether the simulation found no violations.
func (r *Result) Clean() bool { return len(r.Violations) == 0 }

// minR substitutes for zero-resistance wires and ideal drivers: 1 mΩ.
const minR = 1e-3

// built is the shared coupled-circuit construction consumed by both the
// transient verifier (Simulate) and the moment-matching one (SimulateAWE).
type built struct {
	nl    *circuit.Netlist
	in    []int             // circuit node of each tree node's input side
	rails map[float64]*rail // per-slope ideal aggressor rails
}

type rail struct {
	node   int
	source int     // index into the netlist's sources, AddV order
	rise   float64 // o.Vdd / slope
}

// buildCircuit assembles the coupled victim/aggressor netlist.
func buildCircuit(t *rctree.Tree, assign Assignment, o Options) (*built, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if o.Params.Slope <= 0 {
		return nil, fmt.Errorf("noisesim: aggressor slope must be positive, got %g", o.Params.Slope)
	}

	nl := circuit.New()
	b := &built{nl: nl, rails: map[float64]*rail{}}

	sources := 0
	railFor := func(slope float64) (int, error) {
		if r, ok := b.rails[slope]; ok {
			return r.node, nil
		}
		n := nl.Node(fmt.Sprintf("agg_%g", slope))
		rise := o.Vdd / slope
		if err := nl.AddV(n, circuit.Ground, circuit.Ramp{V1: o.Vdd, Rise: rise}); err != nil {
			return 0, err
		}
		b.rails[slope] = &rail{node: n, source: sources, rise: rise}
		sources++
		return n, nil
	}

	// in[v]: circuit node of v (the gate-input side when v is buffered);
	// out[v]: the node that drives v's children (a fresh node behind the
	// buffer's output resistance when v is buffered).
	in := make([]int, t.Len())
	out := make([]int, t.Len())
	b.in = in
	for _, v := range t.Preorder() {
		node := t.Node(v)
		if v == t.Root() {
			n := nl.Node("src")
			r := t.DriverResistance
			if r <= 0 {
				r = minR
			}
			if err := nl.AddR(n, circuit.Ground, r); err != nil {
				return nil, err
			}
			in[v], out[v] = n, n
			continue
		}
		n := nl.Node(fmt.Sprintf("n%d", v))
		in[v] = n
		out[v] = n
		if b, ok := assign[v]; ok {
			// Buffer input pin load on the upstream net.
			if err := nl.AddC(n, circuit.Ground, b.Cin); err != nil {
				return nil, err
			}
			// Buffer output holds the downstream subnet low.
			bo := nl.Node(fmt.Sprintf("buf%d", v))
			r := b.R
			if r <= 0 {
				r = minR
			}
			if err := nl.AddR(bo, circuit.Ground, r); err != nil {
				return nil, err
			}
			out[v] = bo
		}
		if node.Kind == rctree.Sink {
			if err := nl.AddC(n, circuit.Ground, node.Cap); err != nil {
				return nil, err
			}
		}

		// The parent wire: series R, π-model caps split between ground
		// and the aggressor rails.
		w := node.Wire
		up := out[node.Parent]
		r := w.R
		if r <= 0 {
			r = minR
		}
		if err := nl.AddR(up, n, r); err != nil {
			return nil, err
		}
		couplings := w.Aggressors
		if couplings == nil {
			couplings = []rctree.Coupling{{Ratio: o.Params.CouplingRatio, Slope: o.Params.Slope}}
		}
		coupled := 0.0
		for _, a := range couplings {
			if a.Ratio == 0 || a.Slope == 0 {
				continue
			}
			cc := a.Ratio * w.C
			coupled += cc
			rn, err := railFor(a.Slope)
			if err != nil {
				return nil, err
			}
			if err := nl.AddC(up, rn, cc/2); err != nil {
				return nil, err
			}
			if err := nl.AddC(n, rn, cc/2); err != nil {
				return nil, err
			}
		}
		if ground := w.C - coupled; ground > 0 {
			if err := nl.AddC(up, circuit.Ground, ground/2); err != nil {
				return nil, err
			}
			if err := nl.AddC(n, circuit.Ground, ground/2); err != nil {
				return nil, err
			}
		}
	}

	return b, nil
}

// timeScales returns the slowest aggressor rise and a crude victim RC
// settle constant. maxRise is zero when nothing couples.
func timeScales(t *rctree.Tree, b *built) (maxRise, tau float64) {
	for _, r := range b.rails {
		if r.rise > maxRise {
			maxRise = r.rise
		}
	}
	totalC := t.TotalCap()
	totalR := t.DriverResistance
	for _, v := range t.Preorder() {
		totalR += t.Node(v).Wire.R
	}
	return maxRise, totalR * totalC
}

// Simulate builds and runs the coupled noise circuit for tree t under the
// given buffer assignment, using full transient simulation.
func Simulate(t *rctree.Tree, assign Assignment, opts Options) (*Result, error) {
	defer obs.Timer("sim.transient").End()
	o := opts.withDefaults()
	b, err := buildCircuit(t, assign, o)
	if err != nil {
		return nil, err
	}
	maxRise, tau := timeScales(t, b)
	if maxRise == 0 {
		// No coupling anywhere: trivially clean.
		return gatherPeaks(t, assign, nil, nil), nil
	}
	duration := maxRise + o.SettleFactor*tau
	step := maxRise / float64(o.StepsPerRise)
	if duration/step > float64(o.MaxSteps) {
		step = duration / float64(o.MaxSteps)
	}

	res, err := circuit.Transient(b.nl, circuit.TranOptions{Step: step, Duration: duration, Budget: o.Budget})
	if err != nil {
		return nil, err
	}
	return gatherPeaks(t, assign, res.PeakAbs, b.in), nil
}

// SimulateAWE estimates the same peaks with two-pole asymptotic waveform
// evaluation instead of transient simulation — the RICE-style
// moment-matching approach the paper attributes to 3dnoise. Each
// aggressor rail's transfer to each gate input is reduced to two poles;
// the rails' ramp responses superpose (the system is linear), and the
// combined waveform's peak is scanned on a time grid. Orders of magnitude
// faster than Simulate on large nets, at a few percent of accuracy.
func SimulateAWE(t *rctree.Tree, assign Assignment, opts Options) (*Result, error) {
	defer obs.Timer("sim.awe").End()
	o := opts.withDefaults()
	b, err := buildCircuit(t, assign, o)
	if err != nil {
		return nil, err
	}
	maxRise, tau := timeScales(t, b)
	if maxRise == 0 {
		return gatherPeaks(t, assign, nil, nil), nil
	}

	// Per-rail moments (one factorization + a few solves each).
	type railModel struct {
		rise   float64
		redAll [][]float64 // moments for this source
	}
	models := make([]railModel, 0, len(b.rails))
	for _, r := range b.rails {
		// Each rail costs a full matrix factorization; poll between rails.
		if err := o.Budget.Check(); err != nil {
			return nil, err
		}
		mom, err := b.nl.Moments(r.source, 4)
		if err != nil {
			return nil, fmt.Errorf("noisesim: AWE moments: %w", err)
		}
		models = append(models, railModel{rise: r.rise, redAll: mom})
	}

	// Scan the combined response at every gate input. When a node's
	// reduction is unstable (AWE's classic fragility on higher-order
	// responses), substitute the Devgan bound — conservative, never
	// blocking.
	var metric *noise.Result
	horizon := maxRise + o.SettleFactor*tau
	const gridSteps = 2000
	peaks := make([]float64, b.nl.NumNodes())
	fallbacks := 0
	pacer := o.Budget.Pacer(4)
	for _, v := range t.Preorder() {
		// Each gate input costs a full grid scan; poll every few gates.
		if err := pacer.Tick(); err != nil {
			return nil, err
		}
		node := t.Node(v)
		_, buffered := assign[v]
		if node.Kind != rctree.Sink && !buffered {
			continue
		}
		cn := b.in[v]
		reds := make([]circuit.Reduced, 0, len(models))
		rises := make([]float64, 0, len(models))
		usable := true
		for _, mo := range models {
			red, err := circuit.ReduceTransfer(mo.redAll, cn)
			if err != nil || !red.Stable {
				usable = false
				break
			}
			reds = append(reds, red)
			rises = append(rises, mo.rise)
		}
		if !usable {
			if metric == nil {
				metric = noise.Analyze(t, assign, o.Params)
			}
			peaks[cn] = metric.Noise[v]
			fallbacks++
			continue
		}
		peak := 0.0
		for i := 0; i <= gridSteps; i++ {
			tm := horizon * float64(i) / gridSteps
			sum := 0.0
			for j, red := range reds {
				sum += red.Ramp(tm, rises[j]) * o.Vdd
			}
			if a := math.Abs(sum); a > peak {
				peak = a
			}
		}
		peaks[cn] = peak
	}
	res := gatherPeaks(t, assign, peaks, b.in)
	res.Fallbacks = fallbacks
	// Rejected reductions: gate inputs whose two-pole model was unstable
	// and fell back to the conservative Devgan bound.
	obs.Add("sim.awe.rejected", int64(fallbacks))
	obs.Add("sim.awe.rails", int64(len(b.rails)))
	return res, nil
}

// gatherPeaks extracts gate-input peaks and violations. peaks may be nil
// (trivially quiet circuit).
func gatherPeaks(t *rctree.Tree, assign Assignment, peaks []float64, in []int) *Result {
	out := &Result{Peak: map[rctree.NodeID]float64{}}
	for _, v := range t.Preorder() {
		node := t.Node(v)
		margin := math.Inf(1)
		isGate := false
		if node.Kind == rctree.Sink {
			isGate = true
			margin = node.NoiseMargin
		}
		if b, ok := assign[v]; ok {
			isGate = true
			margin = math.Min(margin, b.NoiseMargin)
		}
		if !isGate {
			continue
		}
		p := 0.0
		if peaks != nil {
			p = peaks[in[v]]
		}
		out.Peak[v] = p
		if p > out.MaxNoise {
			out.MaxNoise = p
		}
		if p > margin {
			out.Violations = append(out.Violations, Violation{Node: v, Peak: p, Margin: margin})
		}
	}
	sort.Slice(out.Violations, func(i, j int) bool { return out.Violations[i].Node < out.Violations[j].Node })
	return out
}
