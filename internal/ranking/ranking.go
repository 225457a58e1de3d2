// Package ranking provides ranked recommendation lists, top-n selection,
// rank-list comparison (Kendall tau) and metasearch score combination —
// the pieces shared by the exact recommender, the baselines, the landmark
// store and the evaluation harness.
package ranking

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/topics"
)

// Scored is a candidate account with its recommendation score.
type Scored struct {
	Node  graph.NodeID
	Score float64
}

// Recommender is the interface shared by every recommendation method in
// this repository (Tr exact, Tr landmark-approximate, Katz, TwitterRank).
type Recommender interface {
	// Name identifies the method in reports ("Tr", "Katz", "TwitterRank", ...).
	Name() string
	// ScoreCandidates returns a recommendation score of each candidate
	// account for user u on topic t. Scores are comparable within one call
	// only. len(result) == len(cands).
	ScoreCandidates(u graph.NodeID, t topics.ID, cands []graph.NodeID) []float64
	// Recommend returns the top-n accounts for u on topic t, best first,
	// excluding u itself.
	Recommend(u graph.NodeID, t topics.ID, n int) []Scored
}

// SortDesc orders a scored list by decreasing score, breaking ties by
// ascending node id so rankings are deterministic.
func SortDesc(list []Scored) {
	slices.SortFunc(list, func(a, b Scored) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// SelectTop reorders list so that its first min(n, len(list)) entries are
// the best under SortDesc's order, sorted best first, and returns them
// (aliasing list; the entries past them are left in no particular
// order). It is a partial quicksort — partitions wholly past rank n are
// never sorted — so it returns exactly what inserting every entry into a
// TopN of n and draining it would, without a heap operation per entry.
func SelectTop(list []Scored, n int) []Scored {
	n = max(0, min(n, len(list)))
	// A partition budget of twice the depth of a balanced recursion bounds
	// adversarial inputs; past it the remaining window is sorted whole.
	sortPrefix(list, n, 2*bits.Len(uint(len(list))))
	return list[:n]
}

// sortPrefix sorts the entries of list that rank in its first n.
func sortPrefix(list []Scored, n, budget int) {
	for len(list) > 12 && n > 0 {
		if budget == 0 {
			SortDesc(list)
			return
		}
		budget--
		p := partition(list)
		if p >= n {
			list = list[:p]
			continue
		}
		sortPrefix(list[:p], p, budget)
		list, n = list[p+1:], n-p-1
	}
	if n == 0 {
		return
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && less(list[j-1], list[j]); j-- {
			list[j-1], list[j] = list[j], list[j-1]
		}
	}
}

// partition places a median-of-three pivot of list at its final position
// p under SortDesc's order, with better entries before it and worse
// after, and returns p. list holds at least three entries.
func partition(list []Scored) int {
	lo, mid, hi := 0, len(list)/2, len(list)-1
	if less(list[lo], list[mid]) {
		list[lo], list[mid] = list[mid], list[lo]
	}
	if less(list[mid], list[hi]) {
		list[mid], list[hi] = list[hi], list[mid]
		if less(list[lo], list[mid]) {
			list[lo], list[mid] = list[mid], list[lo]
		}
	}
	// list[lo] ≥ list[mid] ≥ list[hi]: the median moves to the end.
	list[mid], list[hi] = list[hi], list[mid]
	pivot := list[hi]
	p := lo
	for j := lo; j < hi; j++ {
		if less(pivot, list[j]) {
			list[p], list[j] = list[j], list[p]
			p++
		}
	}
	list[p], list[hi] = list[hi], list[p]
	return p
}

// TopN accumulates (node, score) pairs and retains the n best. It is a
// bounded min-heap; Insert is O(log n) and List returns items best-first.
// The zero value is unusable; use NewTopN.
type TopN struct {
	n    int
	heap []Scored // min-heap on (score, then descending node id)
}

// NewTopN creates an accumulator keeping the n highest-scored entries.
func NewTopN(n int) *TopN {
	return &TopN{n: n, heap: make([]Scored, 0, n)}
}

// less reports whether a ranks strictly below b (a is "worse").
func less(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node // larger id loses ties, matching SortDesc
}

// Insert offers a candidate. Entries with non-positive capacity are
// ignored.
func (t *TopN) Insert(node graph.NodeID, score float64) {
	if t.n <= 0 {
		return
	}
	s := Scored{Node: node, Score: score}
	if len(t.heap) < t.n {
		t.heap = append(t.heap, s)
		t.up(len(t.heap) - 1)
		return
	}
	if !less(t.heap[0], s) {
		return
	}
	t.heap[0] = s
	t.down(0)
}

func (t *TopN) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(t.heap[i], t.heap[p]) {
			break
		}
		t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
		i = p
	}
}

func (t *TopN) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(t.heap) && less(t.heap[l], t.heap[m]) {
			m = l
		}
		if r < len(t.heap) && less(t.heap[r], t.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		t.heap[i], t.heap[m] = t.heap[m], t.heap[i]
		i = m
	}
}

// Len returns the number of retained entries.
func (t *TopN) Len() int { return len(t.heap) }

// List returns the retained entries best-first. The accumulator is left
// intact.
func (t *TopN) List() []Scored {
	out := append([]Scored(nil), t.heap...)
	SortDesc(out)
	return out
}
