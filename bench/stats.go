package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest value with at least p% of the sample at
// or below it. An empty sample yields 0.
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	return asc[rankOf(n, p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99, 95, 90, 75}

// topPercentile picks the highest candidate percentile that still has at
// least ten samples beyond its rank, so that a reported tail is never a
// handful of outliers. With fewer samples than that it falls back to the
// median.
func topPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rankOf(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// reportPercentiles sets prefix_p50_ms and one prefix_pNN_ms for every
// tail percentile the sample supports, and returns the median.
func reportPercentiles(out metricSet, prefix string, ms []float64) float64 {
	asc := sorted(ms)
	top := topPercentile(len(asc))
	for _, p := range tailCandidates {
		if p <= top {
			out.setN(fmt.Sprintf("%s_p%g_ms", prefix, p), percentile(asc, p), "ms", len(asc))
		}
	}
	p50 := percentile(asc, 50)
	out.setN(prefix+"_p50_ms", p50, "ms", len(asc))
	return p50
}

// median is the mean of the middle pair for even samples, matching
// Python's statistics.median, which run-to-run spreads are stated in.
// (Latency percentiles inside one run use nearest rank instead.)
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (exclusive method) computes them,
// including its extrapolation on tiny samples, because the acceptance
// rule for run-to-run spread is stated in those terms.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		if n == 1 {
			return asc[0], asc[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
