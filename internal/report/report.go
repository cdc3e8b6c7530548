// Package report renders human-readable timing and noise reports for
// (possibly buffered) nets — the signoff-style output a designer reads
// after optimization. It layers on the elmore and noise analyzers and is
// shared by cmd/buffopt and the examples.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"buffopt/internal/buffers"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
)

// Options controls report contents.
type Options struct {
	// Params are the estimation-mode noise parameters.
	Params noise.Params
	// Sinks limits the per-sink table to the N worst-slack sinks
	// (0 = all).
	Sinks int
	// ShowBuffers lists every inserted buffer with its location.
	ShowBuffers bool
}

// Write renders a full report for the net under the given assignment.
func Write(w io.Writer, t *rctree.Tree, assign map[rctree.NodeID]buffers.Buffer, opts Options) error {
	if err := t.Validate(); err != nil {
		return err
	}
	timing := elmore.Analyze(t, assign)
	nz := noise.Analyze(t, assign, opts.Params)

	fmt.Fprintf(w, "net %s: %d sinks, %d buffers, %.3f mm, %.1f fF\n",
		t.Node(t.Root()).Name, t.NumSinks(), len(assign),
		t.TotalWireLength()*1e3, t.TotalCap()*1e15)
	fmt.Fprintf(w, "driver: R=%.0f Ω, T=%.1f ps\n", t.DriverResistance, t.DriverDelay*1e12)
	fmt.Fprintf(w, "worst slack %.1f ps (sink %s), max delay %.1f ps\n",
		timing.WorstSlack*1e12, sinkName(t, timing.WorstSink), timing.MaxDelay*1e12)
	if nz.Clean() {
		fmt.Fprintf(w, "noise: clean, worst bound %.3f V\n", nz.MaxNoise)
	} else {
		fmt.Fprintf(w, "noise: %d VIOLATIONS, worst bound %.3f V\n", len(nz.Violations), nz.MaxNoise)
	}

	// Per-sink table, worst slack first.
	sinks := append([]rctree.NodeID(nil), t.Sinks()...)
	sort.Slice(sinks, func(i, j int) bool {
		return timing.SinkSlack[sinks[i]] < timing.SinkSlack[sinks[j]]
	})
	if opts.Sinks > 0 && len(sinks) > opts.Sinks {
		sinks = sinks[:opts.Sinks]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "sink\tarrival (ps)\tRAT (ps)\tslack (ps)\tnoise (V)\tmargin (V)\tstatus")
	for _, s := range sinks {
		node := t.Node(s)
		status := "ok"
		if timing.SinkSlack[s] < 0 {
			status = "LATE"
		}
		if nz.Noise[s] > node.NoiseMargin {
			if status == "ok" {
				status = "NOISY"
			} else {
				status = "LATE+NOISY"
			}
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.3f\t%.3f\t%s\n",
			sinkName(t, s), timing.Arrival[s]*1e12, node.RAT*1e12,
			timing.SinkSlack[s]*1e12, nz.Noise[s], node.NoiseMargin, status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if opts.ShowBuffers && len(assign) > 0 {
		ids := make([]rctree.NodeID, 0, len(assign))
		for v := range assign {
			ids = append(ids, v)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		bw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(bw, "buffer\tnode\tx (mm)\ty (mm)\tinput noise (V)\tmargin (V)")
		for _, v := range ids {
			b := assign[v]
			n := t.Node(v)
			fmt.Fprintf(bw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\n",
				b.Name, v, n.X*1e3, n.Y*1e3, nz.Noise[v], b.NoiseMargin)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Summary is a compact one-line description of an analysis, for batch
// flows.
func Summary(t *rctree.Tree, assign map[rctree.NodeID]buffers.Buffer, p noise.Params) string {
	timing := elmore.Analyze(t, assign)
	nz := noise.Analyze(t, assign, p)
	return fmt.Sprintf("%s: slack %.1f ps, delay %.1f ps, buffers %d, noise %.3f V, violations %d",
		t.Node(t.Root()).Name, timing.WorstSlack*1e12, timing.MaxDelay*1e12,
		len(assign), nz.MaxNoise, len(nz.Violations))
}

func sinkName(t *rctree.Tree, s rctree.NodeID) string {
	if s == rctree.None {
		return "-"
	}
	if n := t.Node(s).Name; n != "" {
		return n
	}
	return fmt.Sprintf("node%d", s)
}

// Compare renders a before/after pair for one net, the shape used by
// cmd/buffopt.
func Compare(w io.Writer, before, after *rctree.Tree,
	assign map[rctree.NodeID]buffers.Buffer, p noise.Params) error {
	bt := elmore.Analyze(before, nil)
	bn := noise.Analyze(before, nil, p)
	at := elmore.Analyze(after, assign)
	an := noise.Analyze(after, assign, p)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tbefore\tafter\tchange")
	fmt.Fprintf(tw, "max delay (ps)\t%.1f\t%.1f\t%+.1f%%\n",
		bt.MaxDelay*1e12, at.MaxDelay*1e12, pct(at.MaxDelay, bt.MaxDelay))
	fmt.Fprintf(tw, "worst slack (ps)\t%.1f\t%.1f\t\n", bt.WorstSlack*1e12, at.WorstSlack*1e12)
	fmt.Fprintf(tw, "peak noise bound (V)\t%.3f\t%.3f\t%+.1f%%\n", bn.MaxNoise, an.MaxNoise, pct(an.MaxNoise, bn.MaxNoise))
	fmt.Fprintf(tw, "violations\t%d\t%d\t\n", len(bn.Violations), len(an.Violations))
	fmt.Fprintf(tw, "buffers\t0\t%d\t\n", len(assign))
	return tw.Flush()
}

func pct(after, before float64) float64 {
	if before == 0 || math.IsNaN(before) {
		return 0
	}
	return 100 * (after - before) / before
}
