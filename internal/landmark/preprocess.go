package landmark

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// PreprocessConfig controls the preprocessing step.
type PreprocessConfig struct {
	// TopN is the list length kept per topic per landmark (the paper
	// evaluates 10, 100 and 1000).
	TopN int
	// Workers bounds the parallelism across landmarks; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives the preprocessing-cost series —
	// Table 5's quantities live: a per-landmark compute-time histogram, a
	// layout-build histogram, a processed-landmark counter and a
	// worker-utilization gauge.
	Metrics *metrics.Registry
	// Pool, when non-nil, lends each worker its exploration buffers
	// instead of allocating fresh ones — repeated refresh runs (the
	// dynamic manager) reuse the kernel's tiles and result arrays.
	Pool *core.ScratchPool
}

// PreprocessStats reports the preprocessing cost, the quantities of
// Table 5.
type PreprocessStats struct {
	// SelectionTime is filled by the caller (selection happens before
	// preprocessing); kept here so reports carry both columns.
	SelectionTime time.Duration
	// LayoutTime is the single-threaded build of the run's kernel layout;
	// zero when the engine brought its own.
	LayoutTime time.Duration
	// ComputeTime is the summed per-landmark exploration time (i.e. the
	// sequential cost; wall-clock is lower with Workers > 1). It excludes
	// LayoutTime.
	ComputeTime time.Duration
	// WallTime is the elapsed wall-clock time of the whole step, layout
	// build included.
	WallTime time.Duration
	// Landmarks is the number of landmarks processed.
	Landmarks int
}

// PerLandmark returns the average per-landmark computation time (Table 5's
// "comput." column).
func (s PreprocessStats) PerLandmark() time.Duration {
	if s.Landmarks == 0 {
		return 0
	}
	return s.ComputeTime / time.Duration(s.Landmarks)
}

// Preprocess runs Algorithm 1 to convergence from every landmark (all
// topics, engine MaxDepth as the large maxk) and stores the per-topic
// top-n lists and the top-n topological list.
//
// Every exploration runs the blocked float32 kernel. An engine that
// carries an optimized layout lends it; for any other — a plain engine,
// or one derived over an overlay or re-weighted since its last relayout —
// one degree-ordered layout is built for the call, shared read-only by
// the workers and dropped on return: eng itself never gains one. Stored
// scores therefore carry float32 accumulation error (≈1e-7 relative);
// list membership and order match the float64 recurrence up to exact ties
// (see TestPreprocessMatchesFloat64Reference for the bounds). The result
// is a pure function of the engine's view, weights and parameters: an
// overlay stack and its compacted rebuild produce bit-identical stores.
func Preprocess(eng *core.Engine, landmarks []graph.NodeID, cfg PreprocessConfig) (*Store, PreprocessStats) {
	return preprocess(eng, landmarks, cfg, core.KernelMode)
}

// preprocess is Preprocess with the exploration mode exposed: tests pass
// core.DenseMode to obtain the exact float64 reference store.
func preprocess(eng *core.Engine, landmarks []graph.NodeID, cfg PreprocessConfig, mode core.Mode) (*Store, PreprocessStats) {
	vocabLen := eng.Graph().Vocabulary().Len()
	store := NewStore(vocabLen, cfg.TopN)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(landmarks) {
		workers = len(landmarks)
	}
	if workers < 1 {
		workers = 1
	}

	start := time.Now()
	stats := PreprocessStats{}
	if mode == core.KernelMode && len(landmarks) > 0 && !eng.HasOptimizedLayout() {
		eng = eng.Optimized(graph.DegreeOrder)
		stats.LayoutTime = time.Since(start)
	}
	type result struct {
		data *Data
		cost time.Duration
	}
	jobs := make(chan graph.NodeID)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch per worker, borrowed from the pool when one is
			// supplied.
			var scratch *core.Scratch
			if cfg.Pool != nil {
				scratch = cfg.Pool.Get()
				defer cfg.Pool.Put(scratch)
			} else {
				scratch = core.NewScratch(eng)
			}
			lists := newListBuilder(vocabLen, cfg.TopN)
			for l := range jobs {
				t0 := time.Now()
				x := eng.ExploreOpts(l, nil, core.ExploreOptions{
					Mode:        mode,
					Scratch:     scratch,
					DenseResult: true,
				})
				d := lists.build(l, x)
				results <- result{data: d, cost: time.Since(t0)}
			}
		}()
	}
	go func() {
		for _, l := range landmarks {
			jobs <- l
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	var computeHist *metrics.Histogram
	if cfg.Metrics != nil {
		computeHist = cfg.Metrics.Histogram("landmark_preprocess_seconds",
			"Per-landmark exploration time in seconds (Table 5's comput. column, live).",
			nil)
	}
	for r := range results {
		store.Put(r.data) //nolint:errcheck // vocabLen matches by construction
		stats.ComputeTime += r.cost
		stats.Landmarks++
		if computeHist != nil {
			computeHist.ObserveDuration(r.cost)
		}
	}
	stats.WallTime = time.Since(start)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("landmark_preprocessed_total",
			"Landmarks processed across all preprocessing and refresh runs.").
			Add(uint64(stats.Landmarks))
		cfg.Metrics.Histogram("landmark_preprocess_wall_seconds",
			"Wall-clock time of whole preprocessing runs in seconds.",
			nil).ObserveDuration(stats.WallTime)
		if stats.LayoutTime > 0 {
			cfg.Metrics.Histogram("landmark_preprocess_layout_seconds",
				"Time to build the kernel layout of one preprocessing run, in seconds (runs on an already optimized engine record nothing).",
				nil).ObserveDuration(stats.LayoutTime)
		}
		if exploring := stats.WallTime - stats.LayoutTime; exploring > 0 {
			// ComputeTime / (exploring wall time × workers) ∈ (0, 1]: how
			// busy the worker pool was kept on average. The layout build
			// runs before any worker starts and is not idle time.
			cfg.Metrics.Gauge("landmark_preprocess_worker_utilization",
				"Fraction of worker-seconds spent exploring during the last preprocessing run.").
				Set(stats.ComputeTime.Seconds() / (exploring.Seconds() * float64(workers)))
		}
	}
	return store, stats
}
