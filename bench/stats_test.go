package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %g", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %g", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond its rank.
func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50},    // too few for any tail
		{40, 75},   // rank 30, ten beyond
		{39, 50},   // rank 30, nine beyond
		{100, 90},  // rank 90, ten beyond
		{200, 95},  // rank 190
		{1000, 99}, // rank 990
		{999, 95},  // p99 has rank 990, nine beyond
		{100000, 99},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestReportPercentilesKeepsSupportedTailsOnly(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // unsorted on purpose
	}
	out := metricSet{}
	if p50 := reportPercentiles(out, "x", ms); p50 != 50 {
		t.Errorf("median %g", p50)
	}
	want := map[string]float64{"x_p50_ms": 50, "x_p75_ms": 75, "x_p90_ms": 90}
	if len(out) != len(want) {
		t.Errorf("reported %v", out)
	}
	for name, v := range want {
		if m := out[name]; m.Value != v || m.N != 100 || m.Unit != "ms" {
			t.Errorf("%s = %+v, want %g over 100 samples", name, m, v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	xs := []float64{10, 7, 3, 9, 1, 4, 8, 2, 6, 5}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) || !near(median(xs), 5.5) {
		t.Errorf("ten values: q1 %g q3 %g median %g, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread %g, want 1", got)
	}
	ys := []float64{1, 2, 4}
	q1, q3 = quartiles(ys)
	if !near(q1, 1) || !near(q3, 4) || median(ys) != 2 {
		t.Errorf("three values: q1 %g q3 %g median %g, want 1 4 2", q1, q3, median(ys))
	}
	zs := []float64{3, 5}
	q1, q3 = quartiles(zs)
	if !near(q1, 2.5) || !near(q3, 5.5) {
		t.Errorf("two values: q1 %g q3 %g, want 2.5 5.5 (Python extrapolates)", q1, q3)
	}
}
