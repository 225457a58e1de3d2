// Package authority computes the per-node topical authority score of the
// paper:
//
//	auth(u, t) = |Γu(t)|/|Γu|  ×  log(1+|Γu(t)|) / log(1+max_v |Γv(t)|)
//	             └── local ──┘    └──────────── global ────────────┘
//
// The local factor favors accounts specialized on topic t; the global
// factor favors accounts widely followed on t, log-smoothed so that very
// specialized small accounts and generalist popular accounts end up with
// comparable scores. If nobody follows u on t, both factors (and the
// score) are 0.
//
// |Γu| and |Γu(t)| only need each node's incoming edges; the per-topic
// maximum max_v |Γv(t)| is the one global quantity. Table keeps all three
// — the follower-count matrix, the in-degree column and the maxima —
// beside the scores, so an edge delta is folded in exactly: ApplyDelta
// recounts the destination rows and rewrites a whole score column only
// when that topic's maximum actually moved. The contract is that the
// table is shown every delta since Compute; it then equals a fresh
// Compute of the current view bit for bit.
package authority

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/topics"
)

// Table holds auth(u, t) for every node and topic of a graph.
type Table struct {
	vocab  *topics.Vocabulary
	n      int
	scores []float64 // n × T, row-major by node
	// cols mirrors scores column-major (T × n, one contiguous column per
	// topic). Query-time exploration reads auth(v, t) for one fixed t
	// across many random nodes, so the per-topic column is the
	// cache-friendly access path — a single topic's column is a fraction
	// of the full table and stays resident across an exploration. Kept in
	// sync by recompute and ApplyDelta.
	cols []float64
	// counts (n × T, row-major: |Γu(t)|), indeg (|Γu|) and maxFol (per
	// topic: max_v |Γv(t)|) are the inputs every score was computed from;
	// ApplyDelta keeps them current so it never has to re-read a row the
	// delta did not touch.
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
		scores: make([]float64, n*T),
		cols:   make([]float64, n*T),
		counts: make([]uint32, n*T),
		indeg:  make([]uint32, n),
		maxFol: make([]uint32, T),
	}
	t.recompute(g)
	return t
}

// score is auth(u, t) from |Γu(t)|, |Γu| and log(1 + max_v |Γv(t)|).
// recompute and ApplyDelta both evaluate this one expression, which is
// what makes the incrementally maintained table bit-identical to a
// computed one. c > 0 implies a follower and a maximum of at least c, so
// neither divisor is 0.
func score(c, total uint32, logMax float64) float64 {
	if c == 0 {
		return 0
	}
	fc := float64(c)
	return (fc / float64(total)) * (math.Log(1+fc) / logMax)
}

// logMaxOf is the global factor's denominator for a per-topic maximum.
func logMaxOf(m uint32) float64 { return math.Log(1 + float64(m)) }

// recompute refreshes every score from the view's current topology — the
// from-scratch reference ApplyDelta is tested against. The view must have
// the same node count and vocabulary the table was built for.
func (t *Table) recompute(g graph.View) {
	T := t.vocab.Len()

	// First pass: follower counts, in-degrees and the per-topic maxima.
	clear(t.maxFol)
	for u := 0; u < t.n; u++ {
		row := t.counts[u*T : (u+1)*T]
		g.FollowerTopicCounts(graph.NodeID(u), row)
		for i, c := range row {
			if c > t.maxFol[i] {
				t.maxFol[i] = c
			}
		}
		t.indeg[u] = uint32(g.InDegree(graph.NodeID(u)))
	}

	// Second pass: scores.
	for i, m := range t.maxFol {
		t.rewriteColumn(i, logMaxOf(m))
	}
}

// rewriteColumn recomputes auth(·, topic i) for every node from the
// stored counts.
func (t *Table) rewriteColumn(i int, logMax float64) {
	T := t.vocab.Len()
	col := t.cols[i*t.n : (i+1)*t.n]
	for u := range col {
		s := score(t.counts[u*T+i], t.indeg[u], logMax)
		col[u] = s
		t.scores[u*T+i] = s
	}
}

// ApplyDelta folds an edge delta into the table, exactly, for any batch
// size. This is the incremental maintenance the paper describes (Section
// 3.2): only the destinations of the changed edges have different
// follower sets, so only their rows are recounted; a per-topic maximum is
// raised when a recounted row exceeds it and that topic's counts are
// rescanned only when a row that held the maximum dropped. A score column
// is rewritten for every node only when its maximum actually moved —
// otherwise the change stays in the destination rows. The return value is
// the number of topics whose maximum moved (score columns rewritten); 0
// means no score outside the rows of dsts changed.
//
// dsts may contain duplicates; g must be the view *after* the delta, and
// must differ from the view the table last saw (at Compute or the
// previous ApplyDelta) only in edges toward dsts. Under that contract
// the table equals Compute(g) bit for bit. Cost is O(|dsts| · (deg + T))
// plus O(n) per moved or rescanned topic.
func (t *Table) ApplyDelta(g graph.View, dsts []graph.NodeID) int {
	if len(dsts) == 0 {
		return 0
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
		for i, c := range fresh {
			if c < row[i] && row[i] == t.maxFol[i] {
				ledDropped[i] = true
			}
			if c > peak[i] {
				peak[i] = c
			}
		}
		copy(row, fresh)
		t.indeg[dst] = uint32(g.InDegree(dst))
	}

	// Per topic: settle the maximum, then rewrite the whole score column if
	// it moved and the destination rows otherwise. A topic whose leader
	// dropped may still keep its maximum (a tied leader, or another row of
	// the batch took over), so "moved" is decided on the settled value.
	moved := 0
	for i := 0; i < T; i++ {
		top := t.maxFol[i]
		if ledDropped[i] {
			top = 0
			for u := 0; u < t.n; u++ {
				if c := t.counts[u*T+i]; c > top {
					top = c
				}
			}
		} else if peak[i] > top {
			top = peak[i]
		}
		lm := logMaxOf(top)
		if top != t.maxFol[i] {
			t.maxFol[i] = top
			t.rewriteColumn(i, lm)
			moved++
			continue
		}
		for _, dst := range uniq {
			s := score(t.counts[int(dst)*T+i], t.indeg[dst], lm)
			t.scores[int(dst)*T+i] = s
			t.cols[i*t.n+int(dst)] = s
		}
	}
	return moved
}

// Score returns auth(u, t).
func (t *Table) Score(u graph.NodeID, topic topics.ID) float64 {
	return t.scores[int(u)*t.vocab.Len()+int(topic)]
}

// Row returns the authority scores of u for every topic. The slice aliases
// internal storage and must not be modified.
func (t *Table) Row(u graph.NodeID) []float64 {
	T := t.vocab.Len()
	return t.scores[int(u)*T : (int(u)+1)*T]
}

// Col returns auth(·, topic) for every node — the column-major access
// path for loops that read one topic across many nodes. The slice
// aliases internal storage and must not be modified.
func (t *Table) Col(topic topics.ID) []float64 {
	return t.cols[int(topic)*t.n : (int(topic)+1)*t.n]
}

// MaxFollowersOnTopic returns max_v |Γv(t)|, the global normalizer.
func (t *Table) MaxFollowersOnTopic(topic topics.ID) int {
	return int(t.maxFol[topic])
}

// Vocabulary returns the topic vocabulary the table covers.
func (t *Table) Vocabulary() *topics.Vocabulary { return t.vocab }
