package landmark

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ranking"
)

// List is one inverted list of a landmark: recommended nodes with their
// recommendation score σ(λ, v, t) and topological score topo_β(λ, v),
// best-σ first. Both values are kept because the query-time combination
// (Proposition 4) needs both for every recommended node.
type List struct {
	Nodes []graph.NodeID
	Sigma []float64
	Topo  []float64
}

// Len returns the list length.
func (l *List) Len() int { return len(l.Nodes) }

// append1 adds one entry.
func (l *List) append1(v graph.NodeID, sigma, topo float64) {
	l.Nodes = append(l.Nodes, v)
	l.Sigma = append(l.Sigma, sigma)
	l.Topo = append(l.Topo, topo)
}

// Data is everything preprocessed for one landmark: a per-topic top-n
// inverted list plus the top-n topological list.
type Data struct {
	Landmark graph.NodeID
	// Topical[t] ranks nodes by σ(λ, ·, t).
	Topical []List
	// TopoTop ranks nodes by topo_β(λ, ·); its Sigma slice holds the
	// corresponding σ values on no particular topic and is zero.
	TopoTop List
	// Iterations is how many hops the preprocessing exploration ran.
	Iterations int
}

// Store maps landmarks to their preprocessed recommendation lists; the
// "inverted lists" of Section 5.2.
type Store struct {
	vocabLen int
	topN     int
	data     map[graph.NodeID]*Data
	order    []graph.NodeID // insertion order, for deterministic iteration
}

// NewStore creates an empty store for lists of length topN over a
// vocabulary of vocabLen topics.
func NewStore(vocabLen, topN int) *Store {
	return &Store{
		vocabLen: vocabLen,
		topN:     topN,
		data:     make(map[graph.NodeID]*Data),
	}
}

// VocabLen returns the number of topics per landmark.
func (s *Store) VocabLen() int { return s.vocabLen }

// TopN returns the list length bound.
func (s *Store) TopN() int { return s.topN }

// Len returns the number of landmarks stored.
func (s *Store) Len() int { return len(s.data) }

// Landmarks returns the stored landmarks in insertion order.
func (s *Store) Landmarks() []graph.NodeID {
	return append([]graph.NodeID(nil), s.order...)
}

// Contains reports whether λ is a stored landmark.
func (s *Store) Contains(l graph.NodeID) bool {
	_, ok := s.data[l]
	return ok
}

// Get returns the data of landmark λ, or nil.
func (s *Store) Get(l graph.NodeID) *Data { return s.data[l] }

// Put inserts (or replaces) a landmark's data.
func (s *Store) Put(d *Data) error {
	if len(d.Topical) != s.vocabLen {
		return fmt.Errorf("landmark: data for %d has %d topical lists, want %d", d.Landmark, len(d.Topical), s.vocabLen)
	}
	if _, exists := s.data[d.Landmark]; !exists {
		s.order = append(s.order, d.Landmark)
	}
	s.data[d.Landmark] = d
	return nil
}

// Bytes estimates the in-memory footprint of the stored lists (the paper
// reports ≈1.4 MB per landmark for top-1000 lists over all topics).
func (s *Store) Bytes() int {
	total := 0
	for _, d := range s.data {
		for i := range d.Topical {
			total += d.Topical[i].Len() * (4 + 8 + 8)
		}
		total += d.TopoTop.Len() * (4 + 8 + 8)
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

// build ranks x's reached nodes into l's lists: per topic (then for the
// topological list) it gathers the positive scores once and selects the
// top n. x must cover the whole vocabulary in topic order.
func (lb *listBuilder) build(l graph.NodeID, x *core.Exploration) *Data {
	T := lb.vocabLen
	d := &Data{Landmark: l, Topical: make([]List, T), Iterations: x.Iterations}
	for ti := 0; ti <= T; ti++ {
		lb.cand = lb.cand[:0]
		for _, v := range x.Reached {
			sc := x.TopoB(v)
			if ti < T {
				sc = x.Sigma(v, ti)
			}
			if sc > 0 {
				lb.cand = append(lb.cand, ranking.Scored{Node: v, Score: sc})
			}
		}
		ranked := ranking.SelectTop(lb.cand, lb.topN)
		lst := newList(len(ranked))
		for i, e := range ranked {
			lst.Nodes[i] = e.Node
			if ti < T {
				lst.Sigma[i], lst.Topo[i] = e.Score, x.TopoB(e.Node)
			} else {
				lst.Topo[i] = e.Score
			}
		}
		if ti < T {
			d.Topical[ti] = lst
		} else {
			d.TopoTop = lst
		}
	}
	return d
}

// newList allocates a list of n zeroed entries (the zero List for n = 0).
func newList(n int) List {
	if n == 0 {
		return List{}
	}
	return List{Nodes: make([]graph.NodeID, n), Sigma: make([]float64, n), Topo: make([]float64, n)}
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
		nd.TopoTop = filterList(d.TopoTop, keep)
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
		Sigma: make([]float64, 0, n),
		Topo:  make([]float64, 0, n),
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
		nd.TopoTop = truncList(d.TopoTop, n)
		ns.Put(nd) //nolint:errcheck // same vocabLen by construction
	}
	return ns
}

func truncList(l List, n int) List {
	if l.Len() <= n {
		return List{
			Nodes: append([]graph.NodeID(nil), l.Nodes...),
			Sigma: append([]float64(nil), l.Sigma...),
			Topo:  append([]float64(nil), l.Topo...),
		}
	}
	return List{
		Nodes: append([]graph.NodeID(nil), l.Nodes[:n]...),
		Sigma: append([]float64(nil), l.Sigma[:n]...),
		Topo:  append([]float64(nil), l.Topo[:n]...),
	}
}

// checkSorted verifies a list is ranked by decreasing sigma; used by
// deserialization to validate input.
func checkSorted(l List) bool {
	return sort.SliceIsSorted(l.Sigma, func(i, j int) bool { return l.Sigma[i] > l.Sigma[j] })
}
