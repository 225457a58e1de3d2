package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// BenchmarkApplyEager measures the cost of one single-edge update under
// the eager refresh policy — the number to compare against re-running the
// whole preprocessing (BenchmarkFullRepreprocess).
func BenchmarkApplyEager(b *testing.B) {
	benchApply(b, Eager)
}

// BenchmarkApplyLazy defers refreshes to query time: the Apply itself is
// the graph rebuild only.
func BenchmarkApplyLazy(b *testing.B) {
	benchApply(b, Lazy)
}

func benchApply(b *testing.B, s Strategy) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 1500
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lms, _ := landmark.Select(ds.Graph, landmark.InDeg, 8, landmark.DefaultSelectConfig())
	m, err := NewManager(ds.Graph, lms, Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2, Strategy: s,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up := Update{Edge: graph.Edge{
			Src:   graph.NodeID(i % 1500),
			Dst:   graph.NodeID((i*7 + 13) % 1500),
			Label: topics.NewSet(topics.ID(i % 18)),
		}, Add: i%2 == 0}
		if up.Edge.Src == up.Edge.Dst {
			continue
		}
		if err := m.Apply([]Update{up}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRepreprocess is the naive alternative to incremental
// maintenance: rebuild everything after each change.
func BenchmarkFullRepreprocess(b *testing.B) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 1500
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lms, _ := landmark.Select(ds.Graph, landmark.InDeg, 8, landmark.DefaultSelectConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewManager(ds.Graph, lms, Config{
			Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2, Strategy: Eager,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// g8kStream builds the streaming configuration the end-to-end benchmark
// serves: the 8000-node Twitter graph (gen seed 1), 30 In-Deg landmarks,
// decay on, Lazy strategy with no reader (so no refresh runs), no WAL. It
// returns the manager and a fixed random pool of follow edges that
// nextBatch toggles.
func g8kStream(b *testing.B) (*Manager, []Update) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 8000
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 30, landmark.DefaultSelectConfig())
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewManager(ds.Graph, lms, Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 500, QueryDepth: 2,
		Strategy: Lazy, Scheduler: SchedPriority, RefreshBudget: 4, HalfLife: 24 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pool := make([]Update, 8192)
	for i := range pool {
		src := graph.NodeID(rng.Intn(cfg.Nodes))
		dst := graph.NodeID(rng.Intn(cfg.Nodes - 1))
		if dst >= src {
			dst++
		}
		pool[i].Edge = graph.Edge{Src: src, Dst: dst, Label: topics.NewSet(topics.ID(rng.Intn(ds.Graph.Vocabulary().Len())))}
	}
	return m, pool
}

// nextBatch fills batch with the pool's next updates from *next on, each
// toggling its edge (an add, then its removal).
func nextBatch(batch, pool []Update, next *int) {
	for j := range batch {
		up := &pool[*next%len(pool)]
		up.Add = !up.Add
		batch[j] = *up
		*next++
	}
}

// BenchmarkApplyBatch measures what one update costs on the write path
// of the streaming configuration (g8kStream). Each batch toggles follow
// edges drawn from a fixed random pool. ns/update is the mean and
// carries the compaction every 32nd batch pays; p50-ns/update is the
// median batch, which does not.
func BenchmarkApplyBatch(b *testing.B) {
	for _, size := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			m, pool := g8kStream(b)
			batch := make([]Update, size)
			took := make([]time.Duration, 0, b.N)
			next := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nextBatch(batch, pool, &next)
				start := time.Now()
				if err := m.Apply(batch); err != nil {
					b.Fatal(err)
				}
				took = append(took, time.Since(start))
			}
			b.StopTimer()
			slices.Sort(took)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/update")
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds())/float64(size), "p50-ns/update")
		})
	}
}

// BenchmarkAffectedLandmarks times Apply's invalidation pass alone: the
// multi-source reverse BFS that marks the landmarks a 16-update batch
// may have staled, on the streaming configuration (g8kStream) with the
// overlay warmed by 16 applied batches. Each iteration runs the pass for
// a fresh batch from the pool without applying it. visited/batch is the
// nodes the pass reached, landmarks/batch the landmarks it returned.
func BenchmarkAffectedLandmarks(b *testing.B) {
	const size = 16
	m, pool := g8kStream(b)
	batch := make([]Update, size)
	next := 0
	for i := 0; i < 16; i++ {
		nextBatch(batch, pool, &next)
		if err := m.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	visited0 := m.stats.InvalidationVisited
	found := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextBatch(batch, pool, &next)
		found += len(m.affectedLandmarks(batch))
	}
	b.StopTimer()
	b.ReportMetric(float64(m.stats.InvalidationVisited-visited0)/float64(b.N), "visited/batch")
	b.ReportMetric(float64(found)/float64(b.N), "landmarks/batch")
}
