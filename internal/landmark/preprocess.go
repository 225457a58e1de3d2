package landmark

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/topics"
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
	// ComputeTime is the summed exploration and list-building time of
	// every landmark (i.e. the sequential cost; wall-clock is lower with
	// Workers > 1). It excludes LayoutTime.
	ComputeTime time.Duration
	// WallTime is the elapsed wall-clock time of the whole step,
	// in-adjacency build included.
	WallTime time.Duration
	// Landmarks is the number of landmarks processed.
	Landmarks int
	// Fallbacks counts the landmarks whose factored exploration did not
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
// top-n lists, each entry with its node's topological score.
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
	data := make([]*Data, len(landmarks))
	stats := explore(eng, landmarks, nil, cfg, factored, func(i int, lists *listBuilder, x *core.Exploration) {
		data[i] = lists.build(landmarks[i], x)
	})
	// Workers finish in any order; the store keeps the input order, so
	// Landmarks() and the serialized store are the same for any worker
	// count.
	store := NewStore(vocabLen, cfg.TopN)
	for _, d := range data {
		store.Put(d) //nolint:errcheck // vocabLen matches by construction
	}
	return store, stats
}

// TopicLists is what a per-topic refresh recomputes for one landmark: its
// list on the topic and the length of the longest paths the exploration
// behind it holds.
type TopicLists struct {
	Landmark   graph.NodeID
	Topical    List
	Iterations int
}

// PreprocessTopic reruns Algorithm 1 from every landmark for topic t
// alone and returns, in input order, each landmark's topic-t list
// (Store.PutTopic installs it). The landmarks share factored
// explorations in groups of up to core.InAdjacency.MaxSources(1), spread
// across the workers with one in-adjacency per call, as Preprocess does. Each (landmark, topic)
// column converges on its own, so the list is bit-identical to the one
// Preprocess builds over the same engine; Iterations may be shorter,
// since it covers only the columns this call ran. A group whose factored
// form does not converge within MaxDepth falls back to the hop recurrence
// on topic t, landmark by landmark.
func PreprocessTopic(eng *core.Engine, landmarks []graph.NodeID, t topics.ID, cfg PreprocessConfig) ([]TopicLists, PreprocessStats) {
	out := make([]TopicLists, len(landmarks))
	stats := explore(eng, landmarks, []topics.ID{t}, cfg, true, func(i int, lists *listBuilder, x *core.Exploration) {
		out[i] = TopicLists{
			Landmark:   landmarks[i],
			Topical:    lists.list(x, 0),
			Iterations: x.Iterations,
		}
	})
	return out, stats
}

// explore runs Algorithm 1 to convergence from every landmark over the
// topics ts (nil for the whole vocabulary) and hands each exploration to
// keep, with the list builder of the worker that ran it; keep(i, …) is
// called once per landmark index, from one worker goroutine at a time per
// index. The factored explorations run in groups of up to
// MaxSources(len(ts)) landmarks, as many per worker as keep every worker
// equally busy; without factored, every landmark runs the hop recurrence.
func explore(eng *core.Engine, landmarks []graph.NodeID, ts []topics.ID, cfg PreprocessConfig, factored bool, keep func(int, *listBuilder, *core.Exploration)) PreprocessStats {
	vocabLen := eng.Graph().Vocabulary().Len()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(landmarks)))

	start := time.Now()
	stats := PreprocessStats{}
	var in *core.InAdjacency
	groups := len(landmarks)
	if factored && len(landmarks) > 0 {
		in = eng.InAdjacency()
		stats.LayoutTime = time.Since(start)
		q := len(ts)
		if ts == nil {
			q = vocabLen
		}
		share := (len(landmarks) + workers - 1) / workers
		per := in.MaxSources(q)
		groups = min(len(landmarks), workers*((share+per-1)/per))
	}
	type result struct {
		size     int
		cost     time.Duration
		fellBack bool
	}
	jobs := make(chan int)
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
			for g := range jobs {
				lo, hi := g*len(landmarks)/groups, (g+1)*len(landmarks)/groups
				t0 := time.Now()
				var xs []core.Exploration
				if in != nil {
					xs = in.Explore(landmarks[lo:hi], ts, scratch)
				}
				for i := lo; i < hi; i++ {
					if xs != nil {
						keep(i, lists, &xs[i-lo])
						continue
					}
					keep(i, lists, eng.ExploreOpts(landmarks[i], ts, core.ExploreOptions{Scratch: scratch}))
				}
				results <- result{size: hi - lo, cost: time.Since(t0), fellBack: in != nil && xs == nil}
			}
		}()
	}
	go func() {
		for g := 0; g < groups; g++ {
			jobs <- g
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
		stats.ComputeTime += r.cost
		stats.Landmarks += r.size
		if r.fellBack {
			stats.Fallbacks += r.size
		}
		if computeHist != nil {
			for i := 0; i < r.size; i++ {
				computeHist.ObserveDuration(r.cost / time.Duration(r.size))
			}
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
	return stats
}
