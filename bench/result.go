package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/metrics"
)

// End-to-end metrics. BENCHMARK.json lists exactly these, and every
// workload reports every one of them; what each stands for on a workload
// is in the workload's file and in README.md.
const (
	mSetup       = "setup_s"
	mLatP50      = "latency_p50_ms"
	mThroughput  = "throughput_ops_s"
	mWithinLimit = "within_limit_share"
	mHeap        = "heap_live_mb"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile.
	N int `json:"n,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
func (m metricSet) setN(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// runResult is one run of one workload.
type runResult struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// LimitMs is the latency limit within_limit_share is counted against.
	LimitMs float64      `json:"limit_ms"`
	Seed    uint64       `json:"seed"`
	Traced  bool         `json:"traced"`
	Graph   graphShape   `json:"graph"`
	Phases  []phaseStats `json:"phases"`
	// EndToEnd holds the gated metrics under their BENCHMARK.json names;
	// Named holds the same measurements (and the ungated diagnostics)
	// under the names that say what was measured on this workload.
	EndToEnd metricSet `json:"end_to_end"`
	Named    metricSet `json:"named"`
	// Layers holds the per-layer metrics: counter deltas in every run,
	// span timings in traced runs.
	Layers    metricSet `json:"layers"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	Failures  []string  `json:"failures,omitempty"`
}

// tally counts operations and keeps the first few failure messages.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) ok() { t.mu.Lock(); t.attempted++; t.mu.Unlock() }

// fail counts one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.flawLocked(format, args...)
	t.mu.Unlock()
}

// flaw counts a failed check that is not an operation of its own.
func (t *tally) flaw(format string, args ...any) {
	t.mu.Lock()
	t.flawLocked(format, args...)
	t.mu.Unlock()
}

func (t *tally) flawLocked(format string, args ...any) {
	t.failed++
	if len(t.msgs) < 8 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) into(r *runResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Attempted, r.Failed, r.Failures = max(t.attempted, 1), t.failed, t.msgs
	r.Correct = t.failed == 0
	r.Named.set("error_share", float64(t.failed)/float64(r.Attempted), "ratio")
}

// counters reads monotonic counters of the program's metrics registry by
// name, so that a phase can report deltas.
type counters struct {
	reg  *metrics.Registry
	base map[string]float64
}

var liveCounters = []string{
	"cache_hits_total", "cache_misses_total", "coalesce_hits_total", "requests_shed_total",
	"requests_degraded_total", "cache_invalidations_total",
}

func readCounters(reg *metrics.Registry) counters {
	c := counters{reg: reg, base: make(map[string]float64)}
	for _, n := range liveCounters {
		c.base[n] = float64(reg.Counter(n, "").Value())
	}
	return c
}

func (c counters) delta(name string) float64 {
	return float64(c.reg.Counter(name, "").Value()) - c.base[name]
}

// serverShares reports how the server answered the recommendation
// requests since c was read.
func (c counters) serverShares(out metricSet) {
	hits, misses, joined := c.delta("cache_hits_total"), c.delta("cache_misses_total"), c.delta("coalesce_hits_total")
	shed := c.delta("requests_shed_total")
	total := hits + misses + joined + shed
	share := func(x float64) float64 {
		if total == 0 {
			return 0
		}
		return x / total
	}
	out.set("server.cache_hit_share", share(hits), "ratio")
	out.set("server.coalesced_share", share(joined), "ratio")
	out.set("server.shed_share", share(shed), "ratio")
	out.set("server.degraded_share", share(c.delta("requests_degraded_total")), "ratio")
	out.set("server.cache_invalidations", c.delta("cache_invalidations_total"), "count")
}

// liveLayerCounts reports what the ingest, dynamic, store and subscribe
// layers counted while the workload's traffic ran. A layer the workload
// leaves idle reports zeros, which is the point of having it listed.
func liveLayerCounts(s *stack, out metricSet) error {
	var ist ingest.Stats
	if s.pipe != nil {
		ist = s.pipe.Stats()
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out.set("ingest.batch_mean", ratio(float64(ist.Applied), float64(ist.Batches)), "count")
	out.set("ingest.rejected", float64(ist.Rejected), "count")
	if _, ok := out["ingest.queue_depth_max"]; !ok {
		out.set("ingest.queue_depth_max", 0, "count")
	}

	ms := s.mgr.Stats()
	out.set("dynamic.refreshes", float64(ms.Refreshes), "count")
	out.set("dynamic.refreshes_per_batch", ratio(float64(ms.Refreshes), float64(ms.Batches)), "count")
	out.set("dynamic.compactions", float64(ms.Compactions), "count")
	out.set("dynamic.stale_landmarks_end", float64(ms.StaleNow), "count")

	stats, err := s.cli.Stats(context.Background())
	if err != nil {
		return err
	}
	hub := stats.Subscriptions
	out.set("subscribe.rescores", float64(hub.Rescores), "count")
	out.set("subscribe.rescore_marks", float64(hub.RescoreMarks), "count")
	out.set("subscribe.coalesce_ratio", ratio(float64(hub.RescoresCoalesced), float64(hub.RescoreMarks)), "ratio")
	out.set("subscribe.pushes_suppressed", float64(hub.PushesSuppressed), "count")
	out.set("subscribe.events_pushed", float64(hub.EventsPushed), "count")
	out.set("subscribe.useful_ratio", ratio(float64(hub.EventsPushed), float64(hub.Rescores)), "ratio")
	out.set("subscribe.dropped", float64(hub.DroppedSlowConsumers), "count")
	if _, ok := out["subscribe.seq_gaps"]; !ok {
		out.set("subscribe.seq_gaps", 0, "count")
	}
	return nil
}

// procUsage is the process's resource use at one instant.
type procUsage struct {
	cpu     time.Duration
	gcPause time.Duration
	alloc   uint64
}

func readProc() procUsage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause: time.Duration(ms.PauseTotalNs),
		alloc:   ms.TotalAlloc,
	}
}

// since reports the process metrics accumulated after p was read.
func (p procUsage) since(out metricSet) {
	now := readProc()
	out.set("proc.cpu_s", (now.cpu - p.cpu).Seconds(), "s")
	out.set("proc.gc_pause_ms", msOf((now.gcPause - p.gcPause).Nanoseconds()), "ms")
	out.set("proc.alloc_mb", float64(now.alloc-p.alloc)/(1<<20), "MB")
}

// heapLiveMB is the live heap after two full collections: what a
// sync.Pool held survives the first in the pool's victim cache, and how
// many scratch buffers the pools happened to hold is not what this
// measures.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// driverMetrics reports how well the generator kept its own schedule:
// the worst open-loop phase decides.
func driverMetrics(phases []phaseStats, out metricSet, t *tally) {
	share, late := 1.0, 0.0
	for _, p := range phases {
		if p.Loop != "open" {
			continue
		}
		share, late = min(share, p.AchievedShare), max(late, p.LatenessP99Ms)
		if p.Saturated {
			t.flaw("phase %s saturated: sent %d of %d scheduled", p.Name, p.Sent, p.Scheduled)
		}
	}
	out.set("driver.achieved_share", share, "ratio")
	out.set("driver.lateness_p99_ms", late, "ms")
}
