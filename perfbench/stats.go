package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles op_tail_ms may report, lowest first.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// slowRank is the percentile of repeated measurements of the same work
// that the speed metrics and setup_s report (README.md, "Steadiness").
const slowRank = 0.9

// slowQuantile returns the nearest-rank slowRank-th percentile of xs.
func slowQuantile(xs []float64) float64 {
	return percentile(sortedCopy(xs), slowRank)
}

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n))) - 1
	return max(0, min(k, n-1))
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples above it.
func tailPercentile(n int) (float64, error) {
	best := -1.0
	for _, p := range tailLadder {
		if n-1-rank(p, n) >= minBeyond {
			best = p
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%d samples leave fewer than %d beyond the median", n, minBeyond)
	}
	return best, nil
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(p, len(sorted))]
}

// sortedCopy returns the samples in ascending order, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1, q2 and q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged. xs needs two values.
func quartiles(xs []float64) (q [3]float64) {
	s := sortedCopy(xs)
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
