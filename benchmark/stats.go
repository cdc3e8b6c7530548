package main

import (
	"math"
	"sort"
)

// minBeyond is the quantile rule: a tail percentile counts only when at
// least this many samples lie above it, so a tail is never read off a
// handful of observations. Medians are always reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// and whether it is resolved under the quantile rule.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i], n-1-i >= minBeyond
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// so spreads computed here match spreads computed from result files with
// Python. Fewer than two values give that value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}
