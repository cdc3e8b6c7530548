package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/noisesim"
	"buffopt/internal/obs"
)

// --------------------------------------------------------------- Table II

// TableII reproduces the before/after verification: the Devgan metric
// (BuffOpt's view) versus the detailed simulator (the 3dnoise stand-in).
type TableII struct {
	Nets int
	// MetricBefore counts nets the metric flags unbuffered (423 in the
	// paper); SimBefore counts nets the transient simulator flags (386);
	// AWEBefore is the RICE-style moment-matching verifier's count.
	MetricBefore, SimBefore, AWEBefore int
	// MetricAfter/SimAfter/AWEAfter count nets still flagged after
	// BuffOpt (all 0 expected).
	MetricAfter, SimAfter, AWEAfter int
	// Unfixable counts nets where BuffOpt failed outright (0 expected).
	Unfixable int
}

// RunTableII runs BuffOpt everywhere and verifies with the simulator.
func (s *Suite) RunTableII() TableII {
	results := s.runBuffOpt()
	t := TableII{Nets: len(s.Nets)}

	type flags struct {
		metricBefore, simBefore, aweBefore bool
		metricAfter, simAfter, aweAfter    bool
		unfixable                          bool
	}
	per := make([]flags, len(s.Nets))
	simOpts := noisesim.Options{Vdd: s.Tech.Vdd, Params: s.Tech.Noise}
	s.forEachNet(func(i int) {
		f := &per[i]
		f.metricBefore = !noise.Analyze(s.Nets[i], nil, s.Tech.Noise).Clean()
		if simB, err := noisesim.Simulate(s.Nets[i], nil, simOpts); err == nil {
			f.simBefore = !simB.Clean()
		}
		if aweB, err := noisesim.SimulateAWE(s.Nets[i], nil, simOpts); err == nil {
			f.aweBefore = !aweB.Clean()
		}
		r := results[i]
		if r.err != nil {
			f.unfixable = true
			f.metricAfter = f.metricBefore
			f.simAfter = f.simBefore
			f.aweAfter = f.aweBefore
			return
		}
		f.metricAfter = !noise.Analyze(r.sol.Tree, r.sol.Buffers, s.Tech.Noise).Clean()
		if simA, err := noisesim.Simulate(r.sol.Tree, r.sol.Buffers, simOpts); err == nil {
			f.simAfter = !simA.Clean()
		}
		if aweA, err := noisesim.SimulateAWE(r.sol.Tree, r.sol.Buffers, simOpts); err == nil {
			f.aweAfter = !aweA.Clean()
		}
	})
	for _, f := range per {
		if f.metricBefore {
			t.MetricBefore++
		}
		if f.simBefore {
			t.SimBefore++
		}
		if f.aweBefore {
			t.AWEBefore++
		}
		if f.metricAfter {
			t.MetricAfter++
		}
		if f.simAfter {
			t.SimAfter++
		}
		if f.aweAfter {
			t.AWEAfter++
		}
		if f.unfixable {
			t.Unfixable++
		}
	}
	return t
}

// Format renders the table.
func (t TableII) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: noise violations before and after BuffOpt (%d nets)\n", t.Nets)
	fmt.Fprintf(&b, "%-28s %-10s %s\n", "", "before", "after")
	fmt.Fprintf(&b, "%-28s %-10d %d\n", "Devgan metric (BuffOpt)", t.MetricBefore, t.MetricAfter)
	fmt.Fprintf(&b, "%-28s %-10d %d\n", "AWE / moment matching", t.AWEBefore, t.AWEAfter)
	fmt.Fprintf(&b, "%-28s %-10d %d\n", "transient simulation", t.SimBefore, t.SimAfter)
	fmt.Fprintf(&b, "metric conservatism: %d extra nets flagged; unfixable nets: %d\n",
		t.MetricBefore-t.SimBefore, t.Unfixable)
	return b.String()
}

// -------------------------------------------------------------- Table III

// TableIIIRow is one optimizer's noise-avoidance summary.
type TableIIIRow struct {
	Name string
	// ViolationsRemaining counts nets the metric still flags after the
	// optimizer ran.
	ViolationsRemaining int
	// NetsByBuffers[k] counts nets on which exactly k buffers were used.
	NetsByBuffers map[int]int
	TotalBuffers  int
	CPU           time.Duration
}

// TableIII compares BuffOpt against DelayOpt(k) for k = 1..K.
type TableIII struct {
	Nets int
	Rows []TableIIIRow
}

// RunTableIII reproduces the Table III comparison.
func (s *Suite) RunTableIII() TableIII {
	t := TableIII{Nets: len(s.Nets)}

	buffOpt := s.runBuffOpt()

	row := TableIIIRow{Name: "BuffOpt", NetsByBuffers: map[int]int{}, CPU: s.buffOptCPU}
	maxK := 0
	for i, r := range buffOpt {
		if r.err != nil {
			row.ViolationsRemaining++
			continue
		}
		row.NetsByBuffers[r.numBuffers]++
		row.TotalBuffers += r.numBuffers
		if r.numBuffers > maxK {
			maxK = r.numBuffers
		}
		if !noise.Analyze(r.sol.Tree, r.sol.Buffers, s.Tech.Noise).Clean() {
			row.ViolationsRemaining++
		}
		_ = i
	}
	t.Rows = append(t.Rows, row)

	limit := s.Config.MaxDelayOptK
	if limit == 0 {
		limit = maxK
	}
	for k := 1; k <= limit; k++ {
		start := time.Now()
		rows := make([]struct {
			nbuf  int
			clean bool
			ok    bool
		}, len(s.Nets))
		s.forEachNet(func(i int) {
			r, err := core.Optimize(context.Background(), core.Problem{
				Tree: s.Segmented[i], Library: s.Library, Objective: core.MaxSlack, MaxBuffers: &k,
			}, s.Config.coreOptions())
			if err != nil {
				return
			}
			rows[i].ok = true
			rows[i].nbuf = r.NumBuffers()
			rows[i].clean = noise.Analyze(r.Tree, r.Buffers, s.Tech.Noise).Clean()
		})
		drow := TableIIIRow{Name: fmt.Sprintf("DelayOpt(%d)", k), NetsByBuffers: map[int]int{}, CPU: time.Since(start)}
		obs.Set(fmt.Sprintf("experiments.delayopt.%d.cpu_ns", k), int64(drow.CPU))
		for _, r := range rows {
			if !r.ok {
				drow.ViolationsRemaining++
				continue
			}
			drow.NetsByBuffers[r.nbuf]++
			drow.TotalBuffers += r.nbuf
			if !r.clean {
				drow.ViolationsRemaining++
			}
		}
		t.Rows = append(t.Rows, drow)
	}
	return t
}

// Format renders the table.
func (t TableIII) Format() string {
	maxK := 0
	for _, r := range t.Rows {
		for k := range r.NetsByBuffers {
			if k > maxK {
				maxK = k
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: noise avoidance, BuffOpt vs DelayOpt(k) (%d nets)\n", t.Nets)
	fmt.Fprintf(&b, "%-14s %-8s", "", "viol.")
	for k := 0; k <= maxK; k++ {
		fmt.Fprintf(&b, " %6s", fmt.Sprintf("=%db", k))
	}
	fmt.Fprintf(&b, " %8s %9s\n", "total", "cpu")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %-8d", r.Name, r.ViolationsRemaining)
		for k := 0; k <= maxK; k++ {
			fmt.Fprintf(&b, " %6d", r.NetsByBuffers[k])
		}
		fmt.Fprintf(&b, " %8d %8.2fs\n", r.TotalBuffers, r.CPU.Seconds())
	}
	return b.String()
}

// --------------------------------------------------------------- Table IV

// TableIVRow aggregates delay reduction for nets on which BuffOpt used
// exactly Buffers buffers.
type TableIVRow struct {
	Buffers int
	Nets    int
	// Avg maximum source-sink delay reduction versus the unbuffered net,
	// seconds.
	BuffOptReduction, DelayOptReduction float64
}

// TableIV is the delay-penalty comparison.
type TableIV struct {
	Rows []TableIVRow
	// Weighted averages over all buffered nets, seconds, and the relative
	// penalty of adding noise constraints (paper: < 2%).
	AvgBuffOpt, AvgDelayOpt, PenaltyPercent float64
}

// RunTableIV reproduces Table IV: DelayOpt is re-run per net with the same
// buffer budget BuffOpt used, and delay reductions are averaged per count.
func (s *Suite) RunTableIV() TableIV {
	buffOpt := s.runBuffOpt()

	type per struct {
		k        int
		bRed     float64
		dRed     float64
		buffered bool
	}
	rows := make([]per, len(s.Nets))
	s.forEachNet(func(i int) {
		r := buffOpt[i]
		if r.err != nil || r.numBuffers == 0 {
			return
		}
		base := elmore.Analyze(s.Segmented[i], nil).MaxDelay
		bDelay := elmore.Analyze(r.sol.Tree, r.sol.Buffers).MaxDelay
		d, err := core.Optimize(context.Background(), core.Problem{
			Tree: s.Segmented[i], Library: s.Library, Objective: core.MaxSlack, MaxBuffers: &r.numBuffers,
		}, s.Config.coreOptions())
		if err != nil {
			return
		}
		dDelay := elmore.Analyze(d.Tree, d.Buffers).MaxDelay
		rows[i] = per{k: r.numBuffers, bRed: base - bDelay, dRed: base - dDelay, buffered: true}
	})

	byK := map[int]*TableIVRow{}
	totalB, totalD, n := 0.0, 0.0, 0
	maxK := 0
	for _, p := range rows {
		if !p.buffered {
			continue
		}
		row := byK[p.k]
		if row == nil {
			row = &TableIVRow{Buffers: p.k}
			byK[p.k] = row
			if p.k > maxK {
				maxK = p.k
			}
		}
		row.Nets++
		row.BuffOptReduction += p.bRed
		row.DelayOptReduction += p.dRed
		totalB += p.bRed
		totalD += p.dRed
		n++
	}
	t := TableIV{}
	for k := 1; k <= maxK; k++ {
		if row, ok := byK[k]; ok {
			row.BuffOptReduction /= float64(row.Nets)
			row.DelayOptReduction /= float64(row.Nets)
			t.Rows = append(t.Rows, *row)
		}
	}
	if n > 0 {
		t.AvgBuffOpt = totalB / float64(n)
		t.AvgDelayOpt = totalD / float64(n)
		if t.AvgDelayOpt != 0 {
			t.PenaltyPercent = 100 * (t.AvgDelayOpt - t.AvgBuffOpt) / math.Abs(t.AvgDelayOpt)
		}
	}
	return t
}

// Format renders the table with picosecond entries, as in the paper.
func (t TableIV) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: average delay reduction from buffer insertion (ps)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-12s %-12s\n", "#buffers", "nets", "BuffOpt", "DelayOpt")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10d %-8d %-12.1f %-12.1f\n",
			r.Buffers, r.Nets, r.BuffOptReduction*1e12, r.DelayOptReduction*1e12)
	}
	fmt.Fprintf(&b, "weighted avg: BuffOpt %.1f ps, DelayOpt %.1f ps, penalty %.2f%%\n",
		t.AvgBuffOpt*1e12, t.AvgDelayOpt*1e12, t.PenaltyPercent)
	return b.String()
}
