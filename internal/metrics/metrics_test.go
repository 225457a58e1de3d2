package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "total requests")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	// Same name returns the same underlying counter.
	if again := r.Counter("requests_total", "total requests"); again.Value() != 42 {
		t.Errorf("re-fetched counter = %d, want 42", again.Value())
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temperature", "current temp")
	g.Set(2.5)
	g.Add(1.25)
	g.Add(-0.75)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %g, want 3", got)
	}
}

// TestHistogramBuckets pins the bucket assignment rule: a value lands in
// the first bucket whose upper bound is >= the value (inclusive upper
// bounds, Prometheus semantics), with +Inf catching the rest.
func TestHistogramBuckets(t *testing.T) {
	bounds := []float64{0.1, 0.5, 1, 5}
	cases := []struct {
		value  float64
		bucket int // index into counts; len(bounds) = +Inf
	}{
		{-1, 0},          // below every bound
		{0, 0},           // zero
		{0.05, 0},        // inside first
		{0.1, 0},         // exactly on a bound is inclusive
		{0.1000001, 1},   // just past a bound
		{0.5, 1},         // on the second bound
		{0.75, 2},        // between bounds
		{1, 2},           // on the third bound
		{4.999, 3},       // inside last finite
		{5, 3},           // on the last finite bound
		{5.001, 4},       // +Inf
		{math.Inf(1), 4}, // +Inf itself
	}
	for _, tc := range cases {
		h := newHistogram(bounds)
		h.Observe(tc.value)
		counts := h.BucketCounts()
		for i, n := range counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%g): bucket[%d] = %d, want %d", tc.value, i, n, want)
			}
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%g): count = %d, want 1", tc.value, h.Count())
		}
	}
}

func TestHistogramSumCount(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 8 {
		t.Errorf("sum = %g, want 8", h.Sum())
	}
	if got := h.BucketCounts(); got[0] != 1 || got[1] != 1 || got[2] != 2 {
		t.Errorf("buckets = %v, want [1 1 2]", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(DefBuckets)
	h.ObserveDuration(250 * time.Millisecond)
	if h.Sum() != 0.25 {
		t.Errorf("sum = %g, want 0.25", h.Sum())
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]float64{5, 1, 3})
	if b := h.Bounds(); b[0] != 1 || b[1] != 3 || b[2] != 5 {
		t.Errorf("bounds = %v, want sorted", b)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := LinearBuckets(1, 2, 3); got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("LinearBuckets = %v", got)
	}
	if got := ExponentialBuckets(1, 10, 3); got[0] != 1 || got[1] != 10 || got[2] != 100 {
		t.Errorf("ExponentialBuckets = %v", got)
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("http_requests_total", "requests", "method", "code")
	vec.With("GET", "200").Add(3)
	vec.With("GET", "500").Inc()
	if got := vec.With("GET", "200").Value(); got != 3 {
		t.Errorf(`With("GET","200") = %d, want 3`, got)
	}
	if got := vec.With("GET", "500").Value(); got != 1 {
		t.Errorf(`With("GET","500") = %d, want 1`, got)
	}
	// Label tuples must not collide even with awkward values.
	a := vec.With(`x"1`, "y")
	b := vec.With("x", `1"y`)
	a.Inc()
	if b.Value() != 0 {
		t.Error("distinct label tuples collided")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("thing", "")
}

// TestCounterFunc checks that a callback counter is exposed as a counter
// with the callback's value at scrape time, and that registering the name
// again replaces the callback.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := uint64(3)
	r.CounterFunc("batches_total", "Batches applied.", func() uint64 { return n })
	scrape := func() string {
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := "# HELP batches_total Batches applied.\n# TYPE batches_total counter\nbatches_total 3\n"
	if got := scrape(); got != want {
		t.Errorf("exposition =\n%s\nwant\n%s", got, want)
	}
	n = 1 << 40
	if got := scrape(); !strings.Contains(got, "batches_total 1099511627776\n") {
		t.Errorf("callback not read at scrape:\n%s", got)
	}
	r.CounterFunc("batches_total", "Batches applied.", func() uint64 { return 9 })
	if got := scrape(); !strings.HasSuffix(got, "batches_total 9\n") {
		t.Errorf("re-registration did not replace the callback:\n%s", got)
	}
}

// TestCallbackSeriesMixPanics checks that one name cannot hold both a
// callback and a plain series, whichever is registered first.
func TestCallbackSeriesMixPanics(t *testing.T) {
	cases := map[string][2]func(r *Registry){
		"counter then callback": {
			func(r *Registry) { r.Counter("x", "") },
			func(r *Registry) { r.CounterFunc("x", "", func() uint64 { return 0 }) },
		},
		"callback then counter": {
			func(r *Registry) { r.CounterFunc("x", "", func() uint64 { return 0 }) },
			func(r *Registry) { r.Counter("x", "") },
		},
		"gauge then callback": {
			func(r *Registry) { r.Gauge("x", "") },
			func(r *Registry) { r.GaugeFunc("x", "", func() float64 { return 0 }) },
		},
		"callback then gauge": {
			func(r *Registry) { r.GaugeFunc("x", "", func() float64 { return 0 }) },
			func(r *Registry) { r.Gauge("x", "") },
		},
		"counter callback then gauge callback": {
			func(r *Registry) { r.CounterFunc("x", "", func() uint64 { return 0 }) },
			func(r *Registry) { r.GaugeFunc("x", "", func() float64 { return 0 }) },
		},
	}
	for name, steps := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			steps[0](r)
			defer func() {
				if recover() == nil {
					t.Error("second registration did not panic")
				}
			}()
			steps[1](r)
		})
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", nil).Observe(1)
	r.CounterVec("d", "", "l").With("v").Inc()
	r.GaugeFunc("e", "", func() float64 { return 1 })
	r.CounterFunc("f", "", func() uint64 { return 1 })
	if n, err := r.WriteTo(nil); n != 0 || err != nil {
		t.Errorf("nil WriteTo = (%d, %v)", n, err)
	}
}

// TestCounterContention hammers one counter from many goroutines and
// checks that no increment is lost — the atomic-hot-path guarantee.
func TestCounterContention(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("contended_total", "")
	const workers, perWorker = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramContention checks count, sum and per-bucket totals under
// concurrent observation, including concurrent lazy series creation
// through a vec.
func TestHistogramContention(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("latency_seconds", "", []float64{1, 2, 4}, "route")
	const workers, perWorker = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := vec.With("/recommend")
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i % 5)) // 0..4 → buckets 1,1,2,4,4
			}
			_ = w
		}(w)
	}
	wg.Wait()
	h := vec.With("/recommend")
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * perWorker / 5 * (0 + 1 + 2 + 3 + 4)
	if got := h.Sum(); got != wantSum {
		t.Errorf("sum = %g, want %g", got, wantSum)
	}
	counts := h.BucketCounts()
	per := uint64(workers * perWorker / 5)
	want := []uint64{2 * per, per, 2 * per, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

// TestGaugeAddContention checks the CAS loop loses no additions.
func TestGaugeAddContention(t *testing.T) {
	var g Gauge
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != workers*perWorker/2 {
		t.Errorf("gauge = %g, want %d", got, workers*perWorker/2)
	}
}
