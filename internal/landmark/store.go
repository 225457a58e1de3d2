package landmark

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// List is one inverted list of a landmark: recommended nodes with their
// recommendation score σ(λ, v, t) and topological score topo_β(λ, v),
// best-σ first. Both values are kept because the query-time combination
// (Proposition 4) needs both for every recommended node. Sigma holds
// σ/g(t) (core.Engine.Norm), so a batch that moves g(t) leaves it exact.
// Both columns are float32: each value is the float64 exploration score
// rounded once (relative error ≤ 2⁻²⁴), so an entry costs 4 + 4 + 4
// bytes, and the fold widens it back before the multiply.
type List struct {
	Nodes []graph.NodeID
	Sigma []float32
	Topo  []float32
}

// Len returns the list length.
func (l *List) Len() int { return len(l.Nodes) }

// append1 adds one entry.
func (l *List) append1(v graph.NodeID, sigma, topo float32) {
	l.Nodes = append(l.Nodes, v)
	l.Sigma = append(l.Sigma, sigma)
	l.Topo = append(l.Topo, topo)
}

// Data is everything preprocessed for one landmark: a per-topic top-n
// inverted list, each entry carrying its node's topo_β beside its σ
// (all Algorithm 2 reads).
type Data struct {
	Landmark graph.NodeID
	// Topical[t] ranks nodes by σ(λ, ·, t).
	Topical []List
	// Iterations is how many hops the preprocessing exploration ran.
	Iterations int
}

// Store maps landmarks to their preprocessed recommendation lists; the
// "inverted lists" of Section 5.2.
type Store struct {
	vocabLen int
	topN     int
	// data is indexed by node id up to the largest landmark: a query
	// asks it about every node its exploration reaches, and a slice load
	// answers where a map probe would hash.
	data  []*Data
	order []graph.NodeID // insertion order, for deterministic iteration
	// stale holds, per landmark (indexed like data), the topics whose
	// list no longer matches the graph and awaits a refresh; nStale
	// counts the landmarks with any.
	stale  []topics.Set
	nStale int
}

// NewStore creates an empty store for lists of length topN over a
// vocabulary of vocabLen topics.
func NewStore(vocabLen, topN int) *Store {
	return &Store{vocabLen: vocabLen, topN: topN}
}

// VocabLen returns the number of topics per landmark.
func (s *Store) VocabLen() int { return s.vocabLen }

// TopN returns the list length bound.
func (s *Store) TopN() int { return s.topN }

// Len returns the number of landmarks stored.
func (s *Store) Len() int { return len(s.order) }

// Landmarks returns the stored landmarks in insertion order.
func (s *Store) Landmarks() []graph.NodeID {
	return append([]graph.NodeID(nil), s.order...)
}

// Contains reports whether λ is a stored landmark.
func (s *Store) Contains(l graph.NodeID) bool { return s.Get(l) != nil }

// Get returns the data of landmark λ, or nil.
func (s *Store) Get(l graph.NodeID) *Data {
	if int(l) >= len(s.data) {
		return nil
	}
	return s.data[l]
}

// Put inserts (or replaces) a landmark's data.
func (s *Store) Put(d *Data) error {
	if len(d.Topical) != s.vocabLen {
		return fmt.Errorf("landmark: data for %d has %d topical lists, want %d", d.Landmark, len(d.Topical), s.vocabLen)
	}
	if s.Get(d.Landmark) == nil {
		s.order = append(s.order, d.Landmark)
	}
	if need := int(d.Landmark) + 1; need > len(s.data) {
		s.data = append(s.data, make([]*Data, need-len(s.data))...)
	}
	s.data[d.Landmark] = d
	return nil
}

// PutTopic installs a per-topic refresh of landmark tl.Landmark: its list
// on topic t, keeping its other lists. The data is replaced, not edited,
// so a store sharing the old data (Subset) keeps it. The recorded horizon only grows: the lists kept may hold longer
// paths than the refresh's exploration ran.
func (s *Store) PutTopic(t topics.ID, tl TopicLists) error {
	old := s.Get(tl.Landmark)
	if old == nil {
		return fmt.Errorf("landmark: no landmark %d to refresh", tl.Landmark)
	}
	if int(t) >= s.vocabLen {
		return fmt.Errorf("landmark: topic %d outside the %d-topic store", t, s.vocabLen)
	}
	d := &Data{
		Landmark:   tl.Landmark,
		Topical:    slices.Clone(old.Topical),
		Iterations: max(old.Iterations, tl.Iterations),
	}
	d.Topical[t] = tl.Topical
	s.data[tl.Landmark] = d
	return nil
}

// Stale returns the topics whose list of landmark λ is marked stale.
func (s *Store) Stale(l graph.NodeID) topics.Set {
	if int(l) >= len(s.stale) {
		return 0
	}
	return s.stale[l]
}

// SetStale records ts as the stale topics of landmark λ; the empty set
// marks it fresh. The marks travel with the store (LMK3 persists them),
// and Subset, SubsetNodes and Truncated copies carry none.
func (s *Store) SetStale(l graph.NodeID, ts topics.Set) {
	if s.Get(l) == nil {
		return
	}
	if need := int(l) + 1; need > len(s.stale) {
		s.stale = append(s.stale, make([]topics.Set, need-len(s.stale))...)
	}
	switch old := s.stale[l]; {
	case old == 0 && ts != 0:
		s.nStale++
	case old != 0 && ts == 0:
		s.nStale--
	}
	s.stale[l] = ts
}

// StaleLandmarks returns how many landmarks have at least one stale
// topic.
func (s *Store) StaleLandmarks() int { return s.nStale }

// CheckNodes verifies a store adopted from outside its graph (an LMK3
// file, a partition's view) against an n-node graph: every landmark and
// every list entry must name a node below n, and every score must be
// non-negative. A larger graph's store would otherwise recommend accounts
// that do not exist, or index past a node-sized table; the fold's
// first-touch list relies on positive terms. It costs one pass over the
// entries, so it runs once when a store is adopted, not per query.
func (s *Store) CheckNodes(n int) error {
	for _, lm := range s.order {
		if int(lm) >= n {
			return fmt.Errorf("landmark: landmark %d outside the %d-node graph", lm, n)
		}
		d := s.data[lm]
		for li := range d.Topical {
			l := &d.Topical[li]
			for i, w := range l.Nodes {
				if int(w) >= n {
					return fmt.Errorf("landmark: landmark %d list %d names node %d outside the %d-node graph", lm, li, w, n)
				}
				if !(l.Sigma[i] >= 0 && l.Topo[i] >= 0) {
					return fmt.Errorf("landmark: landmark %d list %d scores node %d σ=%v topo=%v, want non-negative", lm, li, w, l.Sigma[i], l.Topo[i])
				}
			}
		}
	}
	return nil
}

// Bytes estimates the in-memory footprint of the stored lists: 12 bytes
// per entry, a u32 node id and the float32 σ and topo_β (the paper
// reports ≈1.4 MB per landmark for top-1000 lists over all topics).
func (s *Store) Bytes() int {
	total := 0
	for _, l := range s.order {
		d := s.data[l]
		for i := range d.Topical {
			total += d.Topical[i].Len() * (4 + 4 + 4)
		}
	}
	return total
}

// listBuilder condenses converged explorations into landmark lists. Each
// preprocessing worker owns one: its candidate buffer is reused from
// landmark to landmark.
type listBuilder struct {
	vocabLen, topN int
	cand           []ranking.Scored
}

func newListBuilder(vocabLen, topN int) *listBuilder {
	return &listBuilder{vocabLen: vocabLen, topN: topN}
}

// build ranks x's reached nodes into l's lists. x must cover the whole
// vocabulary in topic order.
func (lb *listBuilder) build(l graph.NodeID, x *core.Exploration) *Data {
	d := &Data{Landmark: l, Topical: make([]List, lb.vocabLen), Iterations: x.Iterations}
	for ti := range d.Topical {
		d.Topical[ti] = lb.list(x, ti)
	}
	return d
}

// list ranks x's reached nodes by σ on x.Topics[ti]: it gathers the
// positive scores once and selects the top n. Each entry carries its
// node's topo_β beside its σ. Selection and order use the float64
// scores; each value is then rounded to float32 once, which keeps the σ
// column non-increasing (rounding is monotone), with ties where
// distinct float64 scores round alike.
func (lb *listBuilder) list(x *core.Exploration, ti int) List {
	lb.cand = lb.cand[:0]
	for _, v := range x.Reached {
		if sc := x.Sigma(v, ti); sc > 0 {
			lb.cand = append(lb.cand, ranking.Scored{Node: v, Score: sc})
		}
	}
	ranked := ranking.SelectTop(lb.cand, lb.topN)
	lst := newList(len(ranked))
	for i, e := range ranked {
		lst.Nodes[i], lst.Sigma[i], lst.Topo[i] = e.Node, float32(e.Score), float32(x.TopoB(e.Node))
	}
	return lst
}

// newList allocates a list of n zeroed entries (the zero List for n = 0).
func newList(n int) List {
	if n == 0 {
		return List{}
	}
	return List{Nodes: make([]graph.NodeID, n), Sigma: make([]float32, n), Topo: make([]float32, n)}
}

// Subset returns a store holding only the landmarks keep reports true
// for, in the original insertion order. List data is shared, not copied —
// the subset is a read-only view sized for one partition worker, the
// "landmark distribution" of the paper's Section 6: each worker loads the
// lists of the landmarks placed on its partition and nothing else.
func (s *Store) Subset(keep func(graph.NodeID) bool) *Store {
	ns := NewStore(s.vocabLen, s.topN)
	for _, l := range s.order {
		if keep(l) {
			ns.Put(s.data[l]) //nolint:errcheck // same vocabLen by construction
		}
	}
	return ns
}

// SubsetNodes returns a store holding every landmark, with each list
// filtered to the entries keep reports true for (rank order preserved).
// This is the candidate-partitioned distribution of the lists: where
// Subset splits the store by landmark, SubsetNodes splits it by
// recommended node, so a worker that owns a node partition holds every
// landmark's contribution to its own candidates and nothing else. The
// per-worker footprint is the same 1/P of the full store, but the
// worker's query output covers only owned candidates — disjoint across
// workers — instead of the full candidate union of its landmarks.
func (s *Store) SubsetNodes(keep func(graph.NodeID) bool) *Store {
	ns := NewStore(s.vocabLen, s.topN)
	for _, l := range s.order {
		d := s.data[l]
		nd := &Data{Landmark: d.Landmark, Topical: make([]List, len(d.Topical)), Iterations: d.Iterations}
		for i := range d.Topical {
			nd.Topical[i] = filterList(d.Topical[i], keep)
		}
		ns.Put(nd) //nolint:errcheck // same vocabLen by construction
	}
	return ns
}

func filterList(l List, keep func(graph.NodeID) bool) List {
	n := 0
	for _, v := range l.Nodes {
		if keep(v) {
			n++
		}
	}
	out := List{
		Nodes: make([]graph.NodeID, 0, n),
		Sigma: make([]float32, 0, n),
		Topo:  make([]float32, 0, n),
	}
	for i, v := range l.Nodes {
		if keep(v) {
			out.append1(v, l.Sigma[i], l.Topo[i])
		}
	}
	return out
}

// Truncated returns a copy of the store with every list cut to n entries,
// used to compare L10/L100/L1000 store sizes (Table 6) without
// re-running the preprocessing.
func (s *Store) Truncated(n int) *Store {
	ns := NewStore(s.vocabLen, n)
	for _, l := range s.order {
		d := s.data[l]
		nd := &Data{Landmark: d.Landmark, Topical: make([]List, len(d.Topical)), Iterations: d.Iterations}
		for i := range d.Topical {
			nd.Topical[i] = truncList(d.Topical[i], n)
		}
		ns.Put(nd) //nolint:errcheck // same vocabLen by construction
	}
	return ns
}

func truncList(l List, n int) List {
	if l.Len() <= n {
		return List{
			Nodes: append([]graph.NodeID(nil), l.Nodes...),
			Sigma: append([]float32(nil), l.Sigma...),
			Topo:  append([]float32(nil), l.Topo...),
		}
	}
	return List{
		Nodes: append([]graph.NodeID(nil), l.Nodes[:n]...),
		Sigma: append([]float32(nil), l.Sigma[:n]...),
		Topo:  append([]float32(nil), l.Topo[:n]...),
	}
}
