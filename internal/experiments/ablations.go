package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// SizingAblation compares buffer insertion alone against simultaneous
// buffer insertion and wire sizing (the Lillis [18] extension the paper
// builds on) across the benchmark suite.
type SizingAblation struct {
	Nets int
	// BuffersPlain/BuffersSized are total buffers inserted by
	// BuffOptMinBuffers without and with sizing.
	BuffersPlain, BuffersSized int
	// WidenedWires counts wires assigned a non-minimum width.
	WidenedWires int
	// SlackGainAvg is the mean slack change from sizing, seconds. It can
	// be slightly negative: sizing often satisfies noise with fewer
	// buffers, and the min-buffer primary objective then accepts a
	// smaller (still non-negative) slack.
	SlackGainAvg float64
	// NetsImproved counts nets where sizing improved slack or saved
	// buffers.
	NetsImproved int
	Failures     int
}

// RunSizingAblation runs the comparison over the suite.
func (s *Suite) RunSizingAblation() SizingAblation {
	out := SizingAblation{Nets: len(s.Nets)}
	sizing := &core.Sizing{Widths: []float64{1, 2, 4}}
	type per struct {
		plainB, sizedB, widened int
		gain                    float64
		improved                bool
		failed                  bool
	}
	rows := make([]per, len(s.Nets))
	s.forEachNet(func(i int) {
		plain, err1 := core.Optimize(context.Background(), core.Problem{
			Tree: s.Segmented[i], Library: s.Library, Params: s.Tech.Noise, Objective: core.MinBuffersNoise,
		}, core.Options{})
		sized, err2 := core.Optimize(context.Background(), core.Problem{
			Tree: s.Segmented[i], Library: s.Library, Params: s.Tech.Noise, Objective: core.MinBuffersNoise,
		}, core.Options{Sizing: sizing})
		if err1 != nil || err2 != nil {
			rows[i].failed = true
			return
		}
		rows[i] = per{
			plainB:   plain.NumBuffers(),
			sizedB:   sized.NumBuffers(),
			widened:  len(sized.Widths),
			gain:     sized.Slack - plain.Slack,
			improved: sized.Slack > plain.Slack+1e-15 || sized.NumBuffers() < plain.NumBuffers(),
		}
	})
	n := 0
	for _, r := range rows {
		if r.failed {
			out.Failures++
			continue
		}
		out.BuffersPlain += r.plainB
		out.BuffersSized += r.sizedB
		out.WidenedWires += r.widened
		out.SlackGainAvg += r.gain
		if r.improved {
			out.NetsImproved++
		}
		n++
	}
	if n > 0 {
		out.SlackGainAvg /= float64(n)
	}
	return out
}

// Format renders the ablation.
func (a SizingAblation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: buffer insertion alone vs + wire sizing (%d nets)\n", a.Nets)
	fmt.Fprintf(&b, "buffers: %d plain → %d with sizing; %d wires widened\n",
		a.BuffersPlain, a.BuffersSized, a.WidenedWires)
	fmt.Fprintf(&b, "avg slack change %.1f ps; %d nets improved (slack or buffers); %d failures\n",
		a.SlackGainAvg*1e12, a.NetsImproved, a.Failures)
	return b.String()
}

// GreedyAblation compares the iterative single-buffer heuristic of the
// paper's related work ([14], [20]) against the BuffOpt dynamic program.
type GreedyAblation struct {
	Nets int
	// GreedyFixed/DPFixed count nets each method left noise-clean.
	GreedyFixed, DPFixed int
	// GreedyBuffers/DPBuffers are total insertions (over nets both fixed).
	GreedyBuffers, DPBuffers int
	// SlackGapAvg is the mean DP-minus-greedy slack over nets both fixed,
	// seconds (>= 0: the DP is optimal).
	SlackGapAvg float64
	// GreedyCPU and DPCPU are wall-clock totals.
	GreedyCPU, DPCPU time.Duration
}

// RunGreedyAblation runs both methods over the suite. The greedy baseline
// maximizes slack subject to noise like BuffOpt (Problem 2), so the DP
// side uses core.BuffOpt for an apples-to-apples slack comparison.
func (s *Suite) RunGreedyAblation() GreedyAblation {
	out := GreedyAblation{Nets: len(s.Nets)}
	type per struct {
		gFixed, dFixed bool
		gBuf, dBuf     int
		gap            float64
		gCPU, dCPU     time.Duration
	}
	rows := make([]per, len(s.Nets))
	s.forEachNet(func(i int) {
		r := &rows[i]
		start := time.Now()
		g, gerr := core.GreedyIterative(s.Segmented[i], s.Library,
			core.GreedyOptions{Noise: true, Params: s.Tech.Noise})
		r.gCPU = time.Since(start)
		start = time.Now()
		d, derr := core.Optimize(context.Background(), core.Problem{
			Tree: s.Segmented[i], Library: s.Library, Params: s.Tech.Noise, Objective: core.MaxSlackNoise,
		}, core.Options{})
		r.dCPU = time.Since(start)
		if gerr == nil {
			r.gFixed = true
			r.gBuf = g.NumBuffers()
		}
		if derr == nil {
			r.dFixed = true
			r.dBuf = d.NumBuffers()
		}
		if gerr == nil && derr == nil {
			r.gap = d.Slack - g.Slack
		}
	})
	n := 0
	for _, r := range rows {
		if r.gFixed {
			out.GreedyFixed++
		}
		if r.dFixed {
			out.DPFixed++
		}
		out.GreedyCPU += r.gCPU
		out.DPCPU += r.dCPU
		if r.gFixed && r.dFixed {
			out.GreedyBuffers += r.gBuf
			out.DPBuffers += r.dBuf
			out.SlackGapAvg += r.gap
			n++
		}
	}
	if n > 0 {
		out.SlackGapAvg /= float64(n)
	}
	obs.Set("experiments.greedy.cpu_ns", int64(out.GreedyCPU))
	obs.Set("experiments.dp.cpu_ns", int64(out.DPCPU))
	return out
}

// Format renders the ablation.
func (a GreedyAblation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: iterative greedy ([14],[20]) vs BuffOpt DP (%d nets)\n", a.Nets)
	fmt.Fprintf(&b, "nets fixed: greedy %d, DP %d\n", a.GreedyFixed, a.DPFixed)
	fmt.Fprintf(&b, "buffers (both-fixed nets): greedy %d, DP %d\n", a.GreedyBuffers, a.DPBuffers)
	fmt.Fprintf(&b, "avg slack left on the table by greedy: %.1f ps\n", a.SlackGapAvg*1e12)
	fmt.Fprintf(&b, "cpu: greedy %.2fs, DP %.2fs\n", a.GreedyCPU.Seconds(), a.DPCPU.Seconds())
	return b.String()
}

// CurvePoint is one sample of the delay-vs-buffer-count curve.
type CurvePoint struct {
	Buffers int
	DelayPS float64
}

// BufferCountCurve is the classic Van Ginneken picture the paper's
// introduction paints: inserting buffers turns the quadratic interconnect
// delay nearly linear, with diminishing returns — delay falls steeply for
// the first buffers and flattens (eventually buffer delays dominate).
type BufferCountCurve struct {
	LineMM float64
	Points []CurvePoint
}

// RunBufferCountCurve sweeps DelayOpt(k) on a Section V line.
func RunBufferCountCurve() (BufferCountCurve, error) {
	const mm = 10.0
	tr := rctree.New("curve", 300, 50e-12)
	if _, err := tr.AddSink(tr.Root(),
		rctree.Wire{R: 80 * mm, C: 200e-15 * mm, Length: mm * 1e-3}, "s", 30e-15, 0, 0.8); err != nil {
		return BufferCountCurve{}, err
	}
	if _, err := segment.ByLength(tr, 0.25e-3); err != nil {
		return BufferCountCurve{}, err
	}
	lib := buffers.DefaultLibrary(0.8)
	out := BufferCountCurve{LineMM: mm}
	for k := 0; k <= 10; k++ {
		res, err := core.Optimize(context.Background(), core.Problem{
			Tree: tr, Library: lib, Objective: core.MaxSlack, MaxBuffers: &k,
		}, core.Options{})
		if err != nil {
			return out, err
		}
		d := elmore.Analyze(res.Tree, res.Buffers).MaxDelay
		out.Points = append(out.Points, CurvePoint{Buffers: k, DelayPS: d * 1e12})
	}
	return out, nil
}

// Format renders the curve.
func (c BufferCountCurve) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Delay vs buffer count on a %.0f mm line (the intro's quadratic-to-linear picture)\n", c.LineMM)
	fmt.Fprintf(&b, "%-10s %s\n", "buffers", "max delay (ps)")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "%-10d %.1f\n", p.Buffers, p.DelayPS)
	}
	return b.String()
}

// TradeoffPoint is one row of the Problem 3 buffers/slack trade-off.
type TradeoffPoint struct {
	Buffers int
	SlackPS float64
	Clean   bool
}

// Problem3Tradeoff is the "six additional buffers might be inserted to
// squeeze out an extra 25 ps" discussion of Section IV-C made concrete:
// for one net, the best noise-feasible slack at every buffer budget.
type Problem3Tradeoff struct {
	Points []TradeoffPoint
}

// RunProblem3Tradeoff sweeps BuffOpt(k) on a Section V-style 8 mm line.
func RunProblem3Tradeoff() (Problem3Tradeoff, error) {
	tech := noise.SectionV()
	const mm = 8.0
	tr := rctree.New("tradeoff", 300, 50e-12)
	if _, err := tr.AddSink(tr.Root(),
		rctree.Wire{R: 80 * mm, C: 200e-15 * mm, Length: mm * 1e-3}, "s", 30e-15, 2e-9, 0.8); err != nil {
		return Problem3Tradeoff{}, err
	}
	if _, err := segment.ByLength(tr, 0.25e-3); err != nil {
		return Problem3Tradeoff{}, err
	}
	if _, err := tr.InsertBelow(tr.Root()); err != nil {
		return Problem3Tradeoff{}, err
	}
	lib := buffers.DefaultLibrary(0.8)
	var out Problem3Tradeoff
	for k := 0; k <= 8; k++ {
		res, err := core.Optimize(context.Background(), core.Problem{
			Tree: tr, Library: lib, Params: tech, Objective: core.MaxSlackNoise, MaxBuffers: &k,
		}, core.Options{})
		if err != nil {
			out.Points = append(out.Points, TradeoffPoint{Buffers: k, Clean: false})
			continue
		}
		out.Points = append(out.Points, TradeoffPoint{
			Buffers: res.NumBuffers(),
			SlackPS: res.Slack * 1e12,
			Clean:   true,
		})
	}
	return out, nil
}

// Format renders the trade-off curve.
func (p Problem3Tradeoff) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Problem 3 trade-off: best noise-clean slack per buffer budget\n")
	fmt.Fprintf(&b, "%-10s %-12s %s\n", "budget", "slack (ps)", "noise clean")
	for _, pt := range p.Points {
		if !pt.Clean {
			fmt.Fprintf(&b, "%-10d %-12s %v\n", pt.Buffers, "—", false)
			continue
		}
		fmt.Fprintf(&b, "%-10d %-12.1f %v\n", pt.Buffers, pt.SlackPS, true)
	}
	return b.String()
}
