package landmark

import (
	"bytes"
	"fmt"
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
// landmark or 27 of the 30. allocs/op is gated by `make kernel-gate`:
// per-node result spills would multiply it.
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
		})
	}
}

// BenchmarkApproxQuery is the Table 6 "time" column: the depth-2
// landmark-combined query. Its allocs/op is gated by `make kernel-gate`:
// the exploration's scores are read in place from a pooled scratch, so
// what remains is the fold's score map and the top-n list.
func BenchmarkApproxQuery(b *testing.B) {
	eng, ds := benchSetup(b, 3000)
	lms, err := Select(ds.Graph, InDeg, 30, DefaultSelectConfig())
	if err != nil {
		b.Fatal(err)
	}
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 1000})
	ap, err := NewApprox(eng, store, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap.Query(graph.NodeID(i%3000), topics.ID(i%18), 100)
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

func BenchmarkStoreSerialize(b *testing.B) {
	eng, ds := benchSetup(b, 2000)
	lms, _ := Select(ds.Graph, InDeg, 10, DefaultSelectConfig())
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 1000})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := store.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadStore(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
