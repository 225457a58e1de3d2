package ranking

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

func BenchmarkTopNInsert(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	scores := make([]float64, 1<<16)
	for i := range scores {
		scores[i] = r.Float64()
	}
	top := NewTopN(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.Insert(graph.NodeID(i), scores[i&(1<<16-1)])
	}
}

func BenchmarkKendallTop100(b *testing.B) {
	r := rand.New(rand.NewPCG(2, 2))
	mk := func() []Scored {
		perm := r.Perm(150)
		out := make([]Scored, 100)
		for i := range out {
			out[i] = Scored{Node: graph.NodeID(perm[i]), Score: float64(100 - i)}
		}
		return out
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KendallTopK(x, y)
	}
}

func BenchmarkCombine(b *testing.B) {
	r := rand.New(rand.NewPCG(3, 3))
	lists := make([][]Scored, 5)
	for i := range lists {
		lists[i] = make([]Scored, 200)
		for j := range lists[i] {
			lists[i][j] = Scored{Node: graph.NodeID(r.IntN(1000)), Score: r.Float64()}
		}
	}
	w := []float64{1, 0.8, 0.6, 0.4, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Combine(lists, w)
	}
}

// BenchmarkSelectTop500 is one landmark list: the best 500 of 2000
// reached nodes.
func BenchmarkSelectTop500(b *testing.B) {
	r := rand.New(rand.NewPCG(4, 4))
	items := make([]Scored, 2000)
	for i := range items {
		items[i] = Scored{Node: graph.NodeID(i), Score: r.ExpFloat64()}
	}
	buf := make([]Scored, len(items))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, items)
		SelectTop(buf, 500)
	}
}
