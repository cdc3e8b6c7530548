package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Comparator verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) pair across two sets of runs: A,
// the parent, and B, the change.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	// wins is the share of pairs (A[i], B[i]) in which B reads better;
	// ties count for neither side.
	wins    float64
	pairs   int
	verdict string
}

// compareMetric applies the benchmark's rules to one metric:
//
//   - unresolved, when either side's run-to-run spread (interquartile
//     distance over median) exceeds the metric's bound, unless every run
//     of B reads better than every run of A — or when the metric is a
//     percentile without enough samples beyond it (tailless);
//   - worse, when B's median is worse than A's by more than the bound;
//   - better, when B wins at least nine tenths of the pairs and the
//     medians differ, in B's favour, by more than A's interquartile
//     distance;
//   - same otherwise.
//
// Per-layer metrics have no bound: for them, worse mirrors better.
func compareMetric(def metricDef, a, b []float64, tailless bool) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	better := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(a), len(b))
	won, lost := 0, 0
	for i := 0; i < c.pairs; i++ {
		switch {
		case better(b[i], a[i]):
			won++
		case better(a[i], b[i]):
			lost++
		}
	}
	if c.pairs > 0 {
		c.wins = float64(won) / float64(c.pairs)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	iqrA := c.q3A - c.q1A
	decisive := func(wonShare float64, favoursB bool) bool {
		return wonShare >= 0.9 && favoursB && math.Abs(c.medB-c.medA) > iqrA
	}
	switch {
	case tailless:
		c.verdict = verdictUnresolved
	case def.Bound > 0 && math.Max(spread(a), spread(b)) > def.Bound && !allBetter:
		c.verdict = verdictUnresolved
	case def.Bound > 0 && worseBy(def, c.medA, c.medB) > def.Bound:
		c.verdict = verdictWorse
	case decisive(c.wins, better(c.medB, c.medA)):
		c.verdict = verdictBetter
	case def.Bound == 0 && c.pairs > 0 && decisive(float64(lost)/float64(c.pairs), better(c.medA, c.medB)):
		c.verdict = verdictWorse
	default:
		c.verdict = verdictSame
	}
	return c
}

// worseBy is how much worse b is than a, as a share of a (negative when
// b is better).
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// runSet is one side's records for one workload and trace mode.
type runSet []*Result

func (s runSet) values(name string) []float64 {
	var v []float64
	for _, r := range s {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func (s runSet) unresolved(name string) bool {
	for _, r := range s {
		if slices.Contains(r.Unresolved, name) {
			return true
		}
	}
	return false
}

func (s runSet) errorShare() (failed, attempted int) {
	for _, r := range s {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// runCompare is "compare <A files> -- <B files>": for every workload
// and metric both sides measured, each side's median and quartiles, the
// share of pairs B won, and a verdict. It exits 1 when any end-to-end
// metric is worse beyond its bound or B fails more operations.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: benchmark compare <result files A> -- <result files B>")
		return 2
	}
	load := func(paths []string) (map[string]runSet, error) {
		sets := map[string]runSet{}
		for _, p := range paths {
			var r Result
			if err := readJSON(p, &r); err != nil {
				return nil, err
			}
			k := setKey(r.Workload, r.Traced)
			sets[k] = append(sets[k], &r)
		}
		return sets, nil
	}
	a, err := load(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := load(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-28s %-6s %26s %26s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "B won", "verdict")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			sa, sb := a[setKey(w.Name, traced)], b[setKey(w.Name, traced)]
			if sa == nil || sb == nil {
				continue
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, def := range defs {
				va, vb := sa.values(def.Name), sb.values(def.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				c := compareMetric(def, va, vb, sa.unresolved(def.Name) || sb.unresolved(def.Name))
				fmt.Fprintf(stdout, "%-12s %-28s %-6s %26s %26s %+7.1f%% %3d/%-2d  %s\n",
					w.Name, def.Name, def.Unit,
					fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", c.medA, c.q1A, c.q3A, len(va)),
					fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", c.medB, c.q1B, c.q3B, len(vb)),
					100*(c.medB-c.medA)/nonzero(c.medA), int(math.Round(c.wins*float64(c.pairs))), c.pairs, c.verdict)
				if !traced && c.verdict == verdictWorse {
					code = 1
				}
			}
			fa, aa := sa.errorShare()
			fb, ab := sb.errorShare()
			fmt.Fprintf(stdout, "%-12s %-28s %-6s %26s %26s\n", w.Name, "failed/attempted", "",
				fmt.Sprintf("%d/%d", fa, aa), fmt.Sprintf("%d/%d", fb, ab))
			if fb > 0 && float64(fb)/float64(max(ab, 1)) > float64(fa)/float64(max(aa, 1)) {
				code = 1
			}
		}
	}
	return code
}

func setKey(workload string, traced bool) string {
	return fmt.Sprintf("%s/%v", workload, traced)
}

func nonzero(x float64) float64 {
	if x == 0 {
		return math.NaN()
	}
	return x
}
