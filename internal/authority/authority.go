// Package authority computes the per-node topical authority score of the
// paper:
//
//	auth(u, t) = |Γu(t)|/|Γu| × log(1+|Γu(t)|)  ×  1/log(1+max_v |Γv(t)|)
//	             └──────── num(u, t) ────────┘     └──────── g(t) ────────┘
//
// The local factor num favors accounts specialized on topic t and widely
// followed on it, log-smoothed so that very specialized small accounts and
// generalist popular accounts end up with comparable scores; the global
// factor g normalizes by the topic's most followed account. If nobody
// follows u on t, num(u, t) is 0, and if nobody is followed on t at all,
// so is g(t).
//
// Table stores the two factors apart: num for every (node, topic) and one
// g per topic. num only needs each node's incoming edges, so an edge delta
// changes the destination rows and nothing else; g is the one global
// quantity, and a delta that moves a per-topic maximum changes one scalar.
// Authority enters every path score once (core, Proposition 2), so an
// exploration folds num and multiplies its scores by g(t) where they
// leave the engine. Table keeps the follower-count matrix, the in-degree
// column and the maxima beside the factors, so ApplyDelta folds a delta in
// exactly: the contract is that the table is shown every delta since
// Compute, and it then equals a fresh Compute of the current view bit for
// bit.
package authority

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/topics"
)

// Table holds the authority factors of every node and topic of a graph.
type Table struct {
	vocab *topics.Vocabulary
	n     int
	// num holds num(u, t) column-major (T × n, one contiguous column per
	// topic): an exploration reads it for one fixed topic across many
	// random nodes, so a topic's column stays resident across it.
	num []float64
	// g holds g(t) per topic.
	g []float64
	// counts (n × T, row-major: |Γu(t)|), indeg (|Γu|) and maxFol (per
	// topic: max_v |Γv(t)|) are the inputs both factors were computed
	// from; ApplyDelta keeps them current so it never has to re-read a
	// row the delta did not touch.
	counts []uint32
	indeg  []uint32
	maxFol []uint32
}

// Compute builds the authority table for any graph view.
func Compute(g graph.View) *Table {
	n, T := g.NumNodes(), g.Vocabulary().Len()
	t := &Table{
		vocab:  g.Vocabulary(),
		n:      n,
		num:    make([]float64, n*T),
		g:      make([]float64, T),
		counts: make([]uint32, n*T),
		indeg:  make([]uint32, n),
		maxFol: make([]uint32, T),
	}
	t.recompute(g)
	return t
}

// local is num(u, t) from |Γu(t)| and |Γu|. recompute and ApplyDelta both
// evaluate this one expression, which is what makes the incrementally
// maintained table bit-identical to a computed one. c > 0 implies a
// follower, so the divisor is not 0.
func local(c, total uint32) float64 {
	if c == 0 {
		return 0
	}
	fc := float64(c)
	return (fc / float64(total)) * math.Log(1+fc)
}

// global is g(t) for the per-topic maximum m: 0 when nobody is followed
// on the topic, where every num(·, t) is 0 as well.
func global(m uint32) float64 {
	if m == 0 {
		return 0
	}
	return 1 / math.Log(1+float64(m))
}

// recompute refreshes both factors from the view's current topology — the
// from-scratch reference ApplyDelta is tested against. The view must have
// the same node count and vocabulary the table was built for.
func (t *Table) recompute(g graph.View) {
	T := t.vocab.Len()
	clear(t.maxFol)
	for u := 0; u < t.n; u++ {
		row := t.counts[u*T : (u+1)*T]
		g.FollowerTopicCounts(graph.NodeID(u), row)
		t.indeg[u] = uint32(g.InDegree(graph.NodeID(u)))
		for i, c := range row {
			t.maxFol[i] = max(t.maxFol[i], c)
			t.num[i*t.n+u] = local(c, t.indeg[u])
		}
	}
	for i, m := range t.maxFol {
		t.g[i] = global(m)
	}
}

// ApplyDelta folds an edge delta into the table, exactly, for any batch
// size. This is the incremental maintenance the paper describes (Section
// 3.2): only the destinations of the changed edges have different
// follower sets, so only their rows of counts and num are rewritten; a
// per-topic maximum is raised when a recounted row exceeds it, and that
// topic's counts are rescanned only when a row that held the maximum
// dropped. A moved maximum changes g(t) and nothing else.
//
// dsts may contain duplicates; g must be the view *after* the delta, and
// must differ from the view the table last saw (at Compute or the
// previous ApplyDelta) only in edges toward dsts. Under that contract
// the table equals Compute(g) bit for bit. Cost is O(|dsts| · (deg + T))
// plus O(n) per topic whose leader dropped.
func (t *Table) ApplyDelta(g graph.View, dsts []graph.NodeID) {
	if len(dsts) == 0 {
		return
	}
	T := t.vocab.Len()
	uniq := slices.Clone(dsts)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)

	// Recount the destination rows, noting per topic the largest new count
	// and whether a row that held the maximum fell below it.
	fresh := make([]uint32, 2*T)
	fresh, peak := fresh[:T], fresh[T:]
	ledDropped := make([]bool, T)
	for _, dst := range uniq {
		row := t.counts[int(dst)*T : (int(dst)+1)*T]
		g.FollowerTopicCounts(dst, fresh)
		t.indeg[dst] = uint32(g.InDegree(dst))
		for i, c := range fresh {
			if c < row[i] && row[i] == t.maxFol[i] {
				ledDropped[i] = true
			}
			peak[i] = max(peak[i], c)
			t.num[i*t.n+int(dst)] = local(c, t.indeg[dst])
		}
		copy(row, fresh)
	}

	// Settle each maximum. A topic whose leader dropped may still keep its
	// maximum (a tied leader, or another row of the batch took over), so
	// the rescan decides on the settled value.
	for i := 0; i < T; i++ {
		top := max(t.maxFol[i], peak[i])
		if ledDropped[i] {
			top = 0
			for u := 0; u < t.n; u++ {
				top = max(top, t.counts[u*T+i])
			}
		}
		t.maxFol[i] = top
		t.g[i] = global(top)
	}
}

// Score returns auth(u, t) = num(u, t)·g(t).
func (t *Table) Score(u graph.NodeID, topic topics.ID) float64 {
	return t.num[int(topic)*t.n+int(u)] * t.g[topic]
}

// Num returns num(·, topic) for every node. The slice aliases internal
// storage and must not be modified.
func (t *Table) Num(topic topics.ID) []float64 {
	return t.num[int(topic)*t.n : (int(topic)+1)*t.n]
}

// Norm returns g(topic), the global factor every authority on the topic
// shares.
func (t *Table) Norm(topic topics.ID) float64 { return t.g[topic] }

// MaxFollowersOnTopic returns max_v |Γv(t)|, the global normalizer.
func (t *Table) MaxFollowersOnTopic(topic topics.ID) int {
	return int(t.maxFol[topic])
}

// Vocabulary returns the topic vocabulary the table covers.
func (t *Table) Vocabulary() *topics.Vocabulary { return t.vocab }
