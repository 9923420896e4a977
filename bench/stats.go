package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank q-quantile (0 < q ≤ 1) of the
// raw samples: the smallest sample such that at least q·n samples are ≤ it.
// It sorts a copy, so callers keep their slice in arrival order. An empty
// input yields NaN, which the report refuses to print as a metric.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two central samples for an
// even count), used where a handful of repetitions are summarized.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is a/b with 0 for an empty denominator: the per-layer ratios are
// counts over counts, and "nothing happened" reads as 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
