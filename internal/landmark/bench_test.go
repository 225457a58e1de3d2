package landmark

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// benchSetup builds a default-parameter engine over the synthetic
// Twitter graph of the given size.
func benchSetup(tb testing.TB, nodes int) (*core.Engine, *gen.Dataset) {
	tb.Helper()
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = nodes
	ds, err := gen.Twitter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, core.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	return eng, ds
}

// BenchmarkPreprocessPerLandmark is the Table 5 "comput." column.
func BenchmarkPreprocessPerLandmark(b *testing.B) {
	eng, ds := benchSetup(b, 3000)
	lms, err := Select(ds.Graph, Random, 64, DefaultSelectConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Preprocess(eng, lms[i%len(lms):i%len(lms)+1], PreprocessConfig{TopN: 1000, Workers: 1})
	}
}

// BenchmarkPreprocessRefresh is one refresh run of the streaming manager:
// the engine is derived over a 3-layer overlay and decay-weighted, its
// scratches come from the engine's pool, and a batch stales either one
// landmark or 27 of the 30, refreshed whole (Preprocess) or, as a lazy
// query refreshes them, on one topic (PreprocessTopic). allocs/op is
// gated by `make kernel-gate`: per-node result spills would multiply it.
// landmarks=27 also reports B/entry, the heap the refreshed store
// retains per list entry (gated too: 12 bytes of node id, σ and topo_β,
// plus the lists' headers).
func BenchmarkPreprocessRefresh(b *testing.B) {
	eng, ds := benchSetup(b, 2000)
	lms, err := Select(ds.Graph, InDeg, 27, DefaultSelectConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng, _ = streamedEngine(b, eng, 3, true)
	for _, k := range []int{1, 27} {
		b.Run(fmt.Sprintf("landmarks=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Preprocess(eng, lms[:k], PreprocessConfig{TopN: 500})
			}
			if k == 27 {
				b.StopTimer()
				b.ReportMetric(retainedPerEntry(eng, lms, 500), "B/entry")
			}
		})
	}
	b.Run("landmarks=27,topics=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PreprocessTopic(eng, lms, topics.ID(i%18), PreprocessConfig{TopN: 500})
		}
	})
}

// BenchmarkApproxQuery is the Table 6 "time" column: the depth-2
// landmark-combined query, on the 3000-node graph with top-1000 lists and
// on the serving shape of the whole-stack benchmark's query-cold workload
// (8000 nodes, top-500 lists, n=10). Both use 30 In-Deg landmarks. Its
// allocs/op is gated by `make kernel-gate`: the exploration's scores are
// read in place from a pooled scratch and the fold sums into that
// scratch's dense fold buffer, so what remains is the exploration's
// result header and the top-n list.
func BenchmarkApproxQuery(b *testing.B) {
	for _, c := range []struct {
		name        string
		nodes, topN int
		n           int
	}{
		{"g3k", 3000, 1000, 100},
		{"g8k", 8000, 500, 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, ds := benchSetup(b, c.nodes)
			lms, err := Select(ds.Graph, InDeg, 30, DefaultSelectConfig())
			if err != nil {
				b.Fatal(err)
			}
			store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: c.topN})
			ap, err := NewApprox(eng, store, 2)
			if err != nil {
				b.Fatal(err)
			}
			vocab := ds.Graph.Vocabulary().Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ap.Query(graph.NodeID(i%c.nodes), topics.ID(i%vocab), c.n)
			}
		})
	}
}

// BenchmarkExactQuery is the Table 6 reference: exact convergence
// exploration.
func BenchmarkExactQuery(b *testing.B) {
	eng, _ := benchSetup(b, 3000)
	rec := core.NewRecommender(eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Recommend(graph.NodeID(i%3000), topics.ID(i%18), 100)
	}
}

func BenchmarkSelect(b *testing.B) {
	_, ds := benchSetup(b, 3000)
	cfg := DefaultSelectConfig()
	for _, s := range []Strategy{Random, Follow, InDeg, Central} {
		b.Run(string(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := Select(ds.Graph, s, 30, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// retainedPerEntry preprocesses lms once and returns the heap the store
// retains per list entry. Both heap readings follow two collections,
// which empty the engine's scratch pool (a sync.Pool), so they count the
// store and not the scratches its workers borrowed.
func retainedPerEntry(eng *core.Engine, lms []graph.NodeID, topN int) float64 {
	settle := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	var before, after runtime.MemStats
	settle(&before)
	s, _ := Preprocess(eng, lms, PreprocessConfig{TopN: topN})
	settle(&after)
	entries := 0
	for _, lm := range s.Landmarks() {
		for _, l := range s.Get(lm).Topical {
			entries += l.Len()
		}
	}
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(entries)
}
