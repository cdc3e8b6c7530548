package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileQuantileRule pins the quantile rule: a percentile is
// resolved only when at least ten samples lie beyond it.
func TestPercentileQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{n: 21, q: 0.50, want: 11, wantOK: true},  // 10 above
		{n: 20, q: 0.50, want: 10, wantOK: true},  // 10 above
		{n: 19, q: 0.50, want: 10, wantOK: false}, // 9 above
		{n: 1000, q: 0.99, want: 990, wantOK: true},
		{n: 999, q: 0.99, want: 990, wantOK: false},
		{n: 30, q: 0.95, want: 29, wantOK: false}, // a run of ~30 huge_net solves has no p95
		{n: 1, q: 0.50, want: 1, wantOK: false},
	} {
		got, ok := percentile(ramp(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as resolved")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which is how spreads are checked from
// result files; the expected values were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
		med    float64
	}{
		{ramp(10), 2.75, 8.25, 5.5},
		{ramp(5), 1.5, 4.5, 3},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{7, 9}, 6.5, 9.5, 8}, // the exclusive method extrapolates
		{[]float64{10, 10.5, 9.8, 10.2, 11, 9.9, 10.1, 10.4, 10.3, 10}, 9.975, 10.425, 10.15},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if m := median(tc.xs); math.Abs(m-tc.med) > 1e-12 {
			t.Errorf("median(%v) = %g, want %g", tc.xs, m, tc.med)
		}
	}
	if s := spread(ramp(10)); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g", s)
	}
}
