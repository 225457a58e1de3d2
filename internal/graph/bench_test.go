package graph

import (
	"math/rand/v2"
	"testing"

	"repro/internal/topics"
)

func randomEdges(n, m int, seed uint64) []Edge {
	r := rand.New(rand.NewPCG(seed, 1))
	out := make([]Edge, 0, m)
	for len(out) < m {
		u, v := NodeID(r.IntN(n)), NodeID(r.IntN(n))
		if u != v {
			out = append(out, Edge{Src: u, Dst: v, Label: topics.Set(1 << (r.IntN(18)))})
		}
	}
	return out
}

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	bld := NewBuilder(topics.MustVocabulary(topics.WebTopicNames), n)
	for _, e := range randomEdges(n, m, 1) {
		bld.AddEdge(e.Src, e.Dst, e.Label)
	}
	g, err := bld.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkFreeze100k(b *testing.B) {
	edges := randomEdges(10000, 100000, 2)
	vocab := topics.MustVocabulary(topics.WebTopicNames)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(vocab, 10000)
		for _, e := range edges {
			bld.AddEdge(e.Src, e.Dst, e.Label)
		}
		if _, err := bld.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWithoutEdges contrasts the legacy full CSR rebuild with the
// overlay delta for the same 0.1%-of-edges removal — the eval and dynamic
// hot paths. The overlay side is the one those layers now take.
func BenchmarkWithoutEdges(b *testing.B) {
	g := benchGraph(b, 10000, 100000)
	removed := g.Edges()[:100]
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.WithoutEdges(removed)
		}
	})
	b.Run("overlay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Remove(g, removed)
		}
	})
}

func BenchmarkFollowerTopicCounts(b *testing.B) {
	g := benchGraph(b, 10000, 100000)
	counts := make([]uint32, g.Vocabulary().Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FollowerTopicCounts(NodeID(i%10000), counts)
	}
}

func BenchmarkComputeStats(b *testing.B) {
	g := benchGraph(b, 10000, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeStats(g)
	}
}
