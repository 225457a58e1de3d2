// Package metrics is a small, dependency-free, concurrency-safe metric
// registry for the serving path: counters, gauges and fixed-bucket
// latency histograms with Prometheus-style text exposition.
//
// The hot path is lock-free: incrementing a Counter, setting a Gauge or
// observing into a Histogram touches only atomics. Locks appear only when
// a labeled series is first materialized (a short critical section on the
// family's map) and during exposition. Callers on genuinely hot paths
// should resolve their series once (`vec.With(...)` at setup time) and
// hold on to the returned handle. A value its owner already counts is
// exported with CounterFunc or GaugeFunc instead: the callback reads it
// at exposition, outside the registry's locks.
//
// The exposition format is the Prometheus text format (version 0.0.4):
// families sorted by name, series sorted by label values, histograms
// rendered as cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. Output is fully deterministic, which the golden tests rely
// on.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use; all methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits in one
// atomic word. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are defined
// by their inclusive upper bounds; an implicit +Inf bucket catches the
// rest. Observe is lock-free: one atomic add on the bucket, one on the
// total count and a CAS loop on the float sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative
	count  atomic.Uint64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; len(bounds) is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in seconds, the exposition unit for
// every latency series.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns the bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the non-cumulative per-bucket counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DefBuckets are the default latency buckets in seconds, spanning 0.1 ms
// to 10 s — wide enough for both cached landmark lookups and exact-Tr
// explorations.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// LinearBuckets returns count buckets starting at start, width apart.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count buckets starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// kind is the metric family type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label schema and any number of
// series (one per distinct label-value tuple).
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
	// fn renders the value of an unlabeled family exported by callback
	// (CounterFunc, GaugeFunc); such a family holds no series.
	fn func() string
}

// series is one label-value tuple of a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is accepted by all instrumentation sites
// in this repository (they skip recording), so metrics stay optional.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns the named family, creating it on first use. A name
// re-registered with a different kind or label schema panics: that is a
// programming error, not a runtime condition.
func (r *Registry) familyFor(name, help string, k kind, bounds []float64, labels []string) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{
				name: name, help: help, kind: k,
				labels: append([]string(nil), labels...),
				bounds: append([]float64(nil), bounds...),
				series: make(map[string]*series),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", name, k, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %s re-registered with %d labels, was %d", name, len(labels), len(f.labels)))
	}
	return f
}

// seriesKey joins label values; \x1f cannot appear in sane label values
// and keeps distinct tuples distinct.
func seriesKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x1f"
		}
		key += v
	}
	return key
}

// seriesFor returns the family's series for the given label values,
// creating it on first use.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	if f.fn != nil {
		panic(fmt.Sprintf("metrics: %s re-registered as a series, was a callback", f.name))
	}
	s = &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// Counter returns the unlabeled counter of the named family, creating it
// on first use. Safe to call on a nil registry (returns a detached
// counter that is never exported).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.familyFor(name, help, kindCounter, nil, nil).seriesFor(nil).counter
}

// Gauge returns the unlabeled gauge of the named family.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.familyFor(name, help, kindGauge, nil, nil).seriesFor(nil).gauge
}

// Histogram returns the unlabeled histogram of the named family. bounds
// are the bucket upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	if r == nil {
		return newHistogram(bounds)
	}
	return r.familyFor(name, help, kindHistogram, bounds, nil).seriesFor(nil).hist
}

// CounterFunc registers a counter whose value fn returns at exposition
// time, for counts the owner already keeps (its Stats). Re-registering
// the same name replaces the callback; a name that already has a plain
// series panics, as a kind mismatch does. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.setFunc(name, help, kindCounter, func() string { return strconv.FormatUint(fn(), 10) })
}

// GaugeFunc registers a callback evaluated at exposition time; useful for
// values already maintained elsewhere (cache sizes, stale-landmark
// counts). Re-registering the same name replaces the callback; a name
// that already has a plain series panics. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.setFunc(name, help, kindGauge, func() string { return formatFloat(fn()) })
}

func (r *Registry) setFunc(name, help string, k kind, fn func() string) {
	if r == nil {
		return
	}
	f := r.familyFor(name, help, k, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.series) > 0 {
		panic(fmt.Sprintf("metrics: %s re-registered as a callback, was a series", name))
	}
	f.fn = fn
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns (creating on first use) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return &CounterVec{f: &family{kind: kindCounter, labels: labels, series: make(map[string]*series)}}
	}
	return &CounterVec{f: r.familyFor(name, help, kindCounter, nil, labels)}
}

// With returns the counter for one label-value tuple.
func (v *CounterVec) With(values ...string) *Counter { return v.f.seriesFor(values).counter }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns (creating on first use) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return &GaugeVec{f: &family{kind: kindGauge, labels: labels, series: make(map[string]*series)}}
	}
	return &GaugeVec{f: r.familyFor(name, help, kindGauge, nil, labels)}
}

// With returns the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.seriesFor(values).gauge }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns (creating on first use) a labeled histogram
// family with the given bucket bounds (DefBuckets when nil).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	if r == nil {
		return &HistogramVec{f: &family{kind: kindHistogram, bounds: bounds, labels: labels, series: make(map[string]*series)}}
	}
	return &HistogramVec{f: r.familyFor(name, help, kindHistogram, bounds, labels)}
}

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.seriesFor(values).hist }
