package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	latency := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	throughput := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	layer := metricDef{Name: "core.solve_ms_p50", Better: "lower"}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		def      metricDef
		a, b     []float64
		tailless bool
		want     string
	}{
		{"identical runs", latency, steady, steady, false, verdictSame},
		{"small drift within the bound", latency, steady, scale(steady, 1.03), false, verdictSame},
		{"slower beyond the bound", latency, steady, scale(steady, 1.2), false, verdictWorse},
		{"faster, every pair won", latency, steady, scale(steady, 0.8), false, verdictBetter},
		{"higher is better: lost throughput", throughput, steady, scale(steady, 0.85), false, verdictWorse},
		{"higher is better: gained throughput", throughput, steady, scale(steady, 1.2), false, verdictBetter},
		{"spread wider than the bound", latency,
			[]float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, []float64{6, 14, 9, 12, 10, 7, 13, 8, 11, 10}, false, verdictUnresolved},
		{"wide spread but every B run better", latency,
			[]float64{20, 30, 25, 22, 28, 21, 29, 24, 26, 23}, []float64{5, 8, 6, 7, 9, 5, 6, 7, 8, 9}, false, verdictBetter},
		{"a percentile without a tail", latency, steady, scale(steady, 0.8), true, verdictUnresolved},
		{"per-layer metric moved worse", layer, steady, scale(steady, 1.5), false, verdictWorse},
		{"per-layer metric moved better", layer, steady, scale(steady, 0.5), false, verdictBetter},
	} {
		if got := compareMetric(tc.def, tc.a, tc.b, tc.tailless).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestComparePairWins checks the nine-tenths rule: a gain needs B to win
// at least 9 of 10 pairs, ties counting for neither side.
func TestComparePairWins(t *testing.T) {
	latency := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	a := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	b := []float64{9, 9, 9, 9, 9, 9, 9, 9, 10, 10} // 8 wins, 2 ties
	c := compareMetric(latency, a, b, false)
	if c.pairs != 10 || c.wins != 0.8 {
		t.Fatalf("pairs %d wins %g, want 10 and 0.8", c.pairs, c.wins)
	}
	if c.verdict != verdictSame {
		t.Errorf("8 of 10 pairs won: verdict %q, want %q", c.verdict, verdictSame)
	}
	b[8] = 9
	if c := compareMetric(latency, a, b, false); c.verdict != verdictBetter {
		t.Errorf("9 of 10 pairs won: verdict %q, want %q", c.verdict, verdictBetter)
	}
}
