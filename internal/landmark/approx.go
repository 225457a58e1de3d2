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
// scores (Example 3's node r2).
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
	acc, met := a.scores(u, t)
	top := ranking.NewTopN(n)
	for v, s := range acc {
		if v != u && s > 0 {
			top.Insert(v, s)
		}
	}
	return QueryResult{Scores: top.List(), LandmarksMet: met}
}

// scores runs the pruned exploration and the landmark combination,
// returning the full approximate score map. The exploration's scores are
// read in place from a scratch borrowed from the engine's pool, which goes
// back once the fold has read them.
func (a *Approx) scores(u graph.NodeID, t topics.ID) (map[graph.NodeID]float64, int) {
	pool := a.eng.Scratches()
	s := pool.Get()
	defer pool.Put(s)
	x := a.eng.ExploreOpts(u, []topics.ID{t}, core.ExploreOptions{
		MaxDepth: a.depth,
		Stop:     a.store.Contains,
		Scratch:  s,
	})

	// Start from the exploration's own scores.
	acc := make(map[graph.NodeID]float64, len(x.Reached)*2)
	for _, v := range x.Reached {
		if s := x.Sigma(v, 0); s > 0 {
			acc[v] = s
		}
	}

	// Combine every encountered landmark's stored lists (Algorithm 2,
	// lines 2–7).
	met := 0
	for _, v := range x.Reached {
		d := a.store.Get(v)
		if d == nil {
			continue
		}
		met++
		sigmaUL := x.Sigma(v, 0) // σ(u, λ, t)
		topoUL := x.TopoAB(v)    // topo_βα(u, λ)
		lst := &d.Topical[t]
		for i, w := range lst.Nodes {
			if w == u {
				continue
			}
			acc[w] += sigmaUL*lst.Topo[i] + topoUL*lst.Sigma[i]
		}
	}
	return acc, met
}

// Recommend returns the top-n approximate recommendations for u on t.
func (a *Approx) Recommend(u graph.NodeID, t topics.ID, n int) []ranking.Scored {
	return a.Query(u, t, n).Scores
}

// ScoreCandidates scores the candidates with the approximate computation;
// candidates outside both the exploration and every met landmark's lists
// score 0.
func (a *Approx) ScoreCandidates(u graph.NodeID, t topics.ID, cands []graph.NodeID) []float64 {
	acc, _ := a.scores(u, t)
	out := make([]float64, len(cands))
	for i, c := range cands {
		out[i] = acc[c]
	}
	return out
}

var _ ranking.Recommender = (*Approx)(nil)
