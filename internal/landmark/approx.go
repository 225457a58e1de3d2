package landmark

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// Approx answers recommendation queries with the landmark combination of
// Algorithm 2: a depth-k exploration from the query node (pruned at
// landmarks), plus, for every landmark λ met, the Proposition 4
// composition of the exploration's σ(u,λ,t) / topo_βα(u,λ) with λ's
// stored σ(λ,v,t) / topo_β(λ,v):
//
//	σ̃_λ(u,v,t) = σ(u,λ,t)·topo_β(λ,v) + topo_βα(u,λ)·σ(λ,v,t)
//
// Nodes met directly by the exploration also keep their directly-computed
// scores (Example 3's node r2). Every term is linear in σ, held as σ/g(t),
// so each candidate's sum is multiplied by g(t) once, before the top-n.
//
// A query borrows one scratch from the engine's pool: the exploration's
// scores are read in place from it, and the scores sum into its dense
// node-indexed fold buffer (core.Fold), whose top-n read visits only the
// touched nodes. Approx itself holds no per-query state, so one value
// serves concurrent queries.
type Approx struct {
	eng   *core.Engine
	store *Store
	depth int
}

// NewApprox builds the approximate recommender. depth is the query-time
// exploration bound (2 in the paper's experiments).
func NewApprox(eng *core.Engine, store *Store, depth int) (*Approx, error) {
	if depth < 1 {
		return nil, fmt.Errorf("landmark: query depth must be >= 1, got %d", depth)
	}
	if store.VocabLen() != eng.Graph().Vocabulary().Len() {
		return nil, fmt.Errorf("landmark: store covers %d topics, graph has %d", store.VocabLen(), eng.Graph().Vocabulary().Len())
	}
	return &Approx{eng: eng, store: store, depth: depth}, nil
}

// Name identifies the method including its store bound, e.g.
// "Tr~landmarks(n=100)".
func (a *Approx) Name() string {
	return fmt.Sprintf("Tr~landmarks(n=%d)", a.store.TopN())
}

// QueryResult carries the scores plus query diagnostics.
type QueryResult struct {
	Scores []ranking.Scored
	// LandmarksMet is the number of distinct landmarks the exploration
	// encountered (Table 6's "#lnd" column).
	LandmarksMet int
}

// Query computes approximate scores of every node for u on topic t: the
// union of directly-explored nodes and landmark-recommended nodes,
// best-first.
func (a *Approx) Query(u graph.NodeID, t topics.ID, n int) QueryResult {
	pool := a.eng.Scratches()
	s := pool.Get()
	defer pool.Put(s)
	acc, met := a.fold(s, u, t)
	g := a.eng.Norm(t)
	top := ranking.NewTopN(n)
	for _, v := range acc.Touched() {
		top.Insert(v, g*acc.At(v))
	}
	return QueryResult{Scores: top.List(), LandmarksMet: met}
}

// fold runs the pruned exploration in s and sums the approximate scores
// into s's fold buffer, returning it and the number of landmarks met. The
// exploration's scores are read in place; both stay valid until s goes
// back to the engine's pool, which clears the fold.
func (a *Approx) fold(s *core.Scratch, u graph.NodeID, t topics.ID) (*core.Fold, int) {
	x := a.eng.ExploreOpts(u, []topics.ID{t}, core.ExploreOptions{
		MaxDepth: a.depth,
		Stop:     a.store.Contains,
		Scratch:  s,
	})
	acc := s.Fold()
	// Start from the exploration's own scores.
	for _, v := range x.Reached {
		if sc := x.Sigma(v, 0); sc > 0 {
			acc.Add(v, sc)
		}
	}
	return acc, FoldLists(acc, x, u, t, a.store.Get)
}

// FoldLists adds to acc the Proposition 4 terms of every landmark the
// exploration x (from u, on topic t alone) met — Algorithm 2, lines 2–7.
// Landmarks are taken in x.Reached order, data giving each reached node's
// lists (nil for a non-landmark), and each list in rank order; for every
// entry w ≠ u of λ's topic-t list it adds
//
//	σ(u,λ,t)·topo_β(λ,w) + topo_βα(u,λ)·σ(λ,w,t)
//
// skipping zero terms, which leave a non-negative sum bit-identical, with
// the one list kernel core.Fold.AddList. acc must hold no sum for u (the
// query node is never a candidate). It returns the number of landmarks
// met. landmark.Approx and distrib.Shard both fold through it, so a
// node's sum follows the same order on either path.
func FoldLists(acc *core.Fold, x *core.Exploration, u graph.NodeID, t topics.ID, data func(graph.NodeID) *Data) int {
	if acc.At(u) != 0 {
		panic(fmt.Sprintf("landmark: fold holds a sum for query node %d", u))
	}
	met := 0
	for _, v := range x.Reached {
		d := data(v)
		if d == nil {
			continue
		}
		met++
		lst := &d.Topical[t]
		// σ(u, λ, t) scales λ's topo_β column, topo_βα(u, λ) its σ one.
		acc.AddList(lst.Nodes, lst.Topo, lst.Sigma, x.Sigma(v, 0), x.TopoAB(v), u)
	}
	return met
}

// Recommend returns the top-n approximate recommendations for u on t.
func (a *Approx) Recommend(u graph.NodeID, t topics.ID, n int) []ranking.Scored {
	return a.Query(u, t, n).Scores
}

// ScoreCandidates scores the candidates with the approximate computation;
// candidates outside both the exploration and every met landmark's lists
// score 0.
func (a *Approx) ScoreCandidates(u graph.NodeID, t topics.ID, cands []graph.NodeID) []float64 {
	pool := a.eng.Scratches()
	s := pool.Get()
	defer pool.Put(s)
	acc, _ := a.fold(s, u, t)
	g := a.eng.Norm(t)
	out := make([]float64, len(cands))
	for i, c := range cands {
		out[i] = g * acc.At(c)
	}
	return out
}

var _ ranking.Recommender = (*Approx)(nil)
