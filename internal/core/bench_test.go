package core

import (
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/topics"
)

// Inner-loop benchmarks of the hop recurrence. Run with -benchmem: the
// allocs/op column is the regression guard for the hot path — an
// exploration through a reused scratch allocates only its result header
// and Reached list, and one that borrows the engine's scratch adds the
// maps its results are copied into.

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	ds := gen.RandomWith(2000, 30000, 9)
	eng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func BenchmarkExploreBorrowedScratch(b *testing.B) {
	eng := benchEngine(b)
	ts := []topics.ID{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ExploreOpts(0, ts, ExploreOptions{MaxDepth: 8})
	}
}

func BenchmarkExploreReusedScratch(b *testing.B) {
	eng := benchEngine(b)
	ts := []topics.ID{0}
	s := NewScratch(eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ExploreOpts(0, ts, ExploreOptions{MaxDepth: 8, Scratch: s})
	}
}
