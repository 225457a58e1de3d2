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
	// Table 5's quantities live: a per-landmark compute-time histogram, an
	// in-adjacency build histogram, a processed-landmark counter, a
	// fallback counter and a worker-utilization gauge.
	Metrics *metrics.Registry
}

// PreprocessStats reports the preprocessing cost, the quantities of
// Table 5.
type PreprocessStats struct {
	// SelectionTime is filled by the caller (selection happens before
	// preprocessing); kept here so reports carry both columns.
	SelectionTime time.Duration
	// LayoutTime is the single-threaded build of the run's in-adjacency.
	// Zero on the float64 reference path.
	LayoutTime time.Duration
	// ComputeTime is the summed per-landmark exploration time (i.e. the
	// sequential cost; wall-clock is lower with Workers > 1). It excludes
	// LayoutTime.
	ComputeTime time.Duration
	// WallTime is the elapsed wall-clock time of the whole step,
	// in-adjacency build included.
	WallTime time.Duration
	// Landmarks is the number of landmarks processed.
	Landmarks int
	// Fallbacks counts the explorations whose factored form did not
	// converge within MaxDepth (β near 1/σ_max) and that ran the float64
	// hop recurrence instead.
	Fallbacks int
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
// Every exploration runs in factored form (core.InAdjacency.Explore,
// Proposition 2): one in-adjacency is built for the call, shared
// read-only by the workers and dropped on return — eng itself never gains
// one. An exploration whose factored form does not converge within
// MaxDepth (β near 1/σ_max) falls back to the float64 hop recurrence
// (core.Engine.ExploreOpts), the same code that builds the reference
// store. Every worker explores in a scratch borrowed from the engine's
// pool, so repeated refresh runs reuse the hop and result arrays.
// Factored scores hold paths longer than the hop recurrence's cut-off, so
// list membership and order match the hop recurrence up to ties within
// 1e-5 and every stored value to 1e-5 (see
// TestPreprocessMatchesFloat64Reference for the bounds). The result is a
// pure function of the engine's view, weights and parameters: an overlay
// stack and its compacted rebuild produce bit-identical stores.
func Preprocess(eng *core.Engine, landmarks []graph.NodeID, cfg PreprocessConfig) (*Store, PreprocessStats) {
	return preprocess(eng, landmarks, cfg, true)
}

// preprocess is Preprocess with the factored form optional: tests pass
// factored = false to run the hop recurrence for every landmark, the
// float64 reference store.
func preprocess(eng *core.Engine, landmarks []graph.NodeID, cfg PreprocessConfig, factored bool) (*Store, PreprocessStats) {
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
	var in *core.InAdjacency
	if factored && len(landmarks) > 0 {
		in = eng.InAdjacency()
		stats.LayoutTime = time.Since(start)
	}
	type result struct {
		data     *Data
		cost     time.Duration
		fellBack bool
	}
	jobs := make(chan graph.NodeID)
	results := make(chan result)
	var wg sync.WaitGroup
	explored := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := eng.Scratches()
			scratch := pool.Get()
			defer pool.Put(scratch)
			lists := newListBuilder(vocabLen, cfg.TopN)
			for l := range jobs {
				t0 := time.Now()
				var x *core.Exploration
				if in != nil {
					x = in.Explore(l, scratch)
				}
				fellBack := in != nil && x == nil
				if x == nil {
					x = eng.ExploreOpts(l, nil, core.ExploreOptions{Scratch: scratch})
				}
				results <- result{data: lists.build(l, x), cost: time.Since(t0), fellBack: fellBack}
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
		if r.fellBack {
			stats.Fallbacks++
		}
		if computeHist != nil {
			computeHist.ObserveDuration(r.cost)
		}
	}
	stats.WallTime = time.Since(start)
	exploring := time.Since(explored)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("landmark_preprocessed_total",
			"Landmarks processed across all preprocessing and refresh runs.").
			Add(uint64(stats.Landmarks))
		cfg.Metrics.Histogram("landmark_preprocess_wall_seconds",
			"Wall-clock time of whole preprocessing runs in seconds.",
			nil).ObserveDuration(stats.WallTime)
		cfg.Metrics.Counter("landmark_preprocess_fallbacks_total",
			"Landmark explorations whose factored form did not converge within MaxDepth and that ran the float64 hop recurrence instead.").
			Add(uint64(stats.Fallbacks))
		if stats.LayoutTime > 0 {
			cfg.Metrics.Histogram("landmark_preprocess_layout_seconds",
				"Time to build the in-adjacency of one preprocessing run, in seconds.",
				nil).ObserveDuration(stats.LayoutTime)
		}
		if exploring > 0 {
			// ComputeTime / (worker wall time × workers) ∈ (0, 1]: how busy
			// the worker pool was kept on average. The in-adjacency is built
			// before any worker starts.
			cfg.Metrics.Gauge("landmark_preprocess_worker_utilization",
				"Fraction of worker-seconds spent exploring during the last preprocessing run.").
				Set(stats.ComputeTime.Seconds() / (exploring.Seconds() * float64(workers)))
		}
	}
	return store, stats
}
