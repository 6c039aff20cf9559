package main

import (
	"math"
	"sort"
	"time"
)

// geomean returns the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule, and how many samples lie beyond it.
func nearestRank(sorted []int64, p float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps a percentile such as 99.9, which has no exact
	// binary form, from rounding up past an exact rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentiles are the percentiles tried, highest first, when a tail
// latency is reported.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles that has at least
// ten samples beyond it, with its value; ok is false when even the median
// has fewer than ten samples beyond it.
func tail(sorted []int64) (p float64, v int64, ok bool) {
	for _, p := range tailPercentiles {
		if v, beyond := nearestRank(sorted, p); beyond >= 10 {
			return p, v, true
		}
	}
	return 0, 0, false
}

// paperGap is the geometric mean over kernels of |ln(sim/paper)|: how far,
// in log space, the simulated speedups sit from the paper's.
func paperGap(sim, paper []float64) float64 {
	gaps := make([]float64, len(sim))
	for i := range sim {
		gaps[i] = math.Abs(math.Log(sim[i] / paper[i]))
	}
	return geomean(gaps)
}

// failFrac is operations failed over operations attempted.
func failFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio divides, reading 0 when the denominator is 0 (a layer that did no
// work reports 0 rather than NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
