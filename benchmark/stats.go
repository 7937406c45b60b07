package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample, and how many samples lie beyond it. The second
// value is what the "ten samples beyond" rule looks at: a percentile with
// fewer than ten samples past it is one outlier away from a different
// number, so it is not worth reporting.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := nearestRank(n, p)
	return sorted[rank-1], n - rank
}

// nearestRank is the 1-based nearest-rank position of the p-th percentile
// in a sample of n >= 1.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000002
	return min(max(rank, 1), n)
}

// minBeyond is the number of samples that must lie past a reported tail
// percentile.
const minBeyond = 10

// highestPercentile returns the highest of the usual tail percentiles that
// a sample of n supports under the ten-samples-beyond rule (0 when even the
// median is not supported).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		if n >= 1 && n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median returns the median of an unsorted sample (0 for an empty one).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean (0 for an empty sample).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), so
// -repeat reports the same spread the acceptance driver does. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // quartile i of 4
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
