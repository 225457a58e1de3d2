// Package katz implements the Katz topological recommendation baseline
// used throughout the paper's evaluation (Equation 2 and [Liben-Nowell &
// Kleinberg]):
//
//	topo_β(u, v) = Σ_{p ∈ P_{u,v}} β^|p|
//
// It is the paper's Tr score with the topical path relevance ω̄_p(t) set
// to 1 — pure proximity and connectivity, no content. The implementation
// reuses the core exploration engine in its TopoOnly variant, so Katz and
// Tr are computed by the same machinery and timing comparisons are
// apples-to-apples.
package katz

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// Recommender scores candidates with the Katz index. It implements
// ranking.Recommender; the topic argument is ignored (Katz is
// content-blind).
type Recommender struct {
	inner *core.Recommender
}

// New builds a Katz recommender over g with path decay beta. depth caps
// exploration depth; depth <= 0 runs to convergence.
func New(g graph.View, beta float64, depth int) (*Recommender, error) {
	p := core.DefaultParams()
	p.Beta = beta
	p.Variant = core.TopoOnly
	eng, err := core.NewEngine(g, nil, nil, p)
	if err != nil {
		return nil, err
	}
	opts := []core.RecommenderOption{}
	if depth > 0 {
		opts = append(opts, core.WithDepth(depth))
	}
	return &Recommender{inner: core.NewRecommender(eng, opts...)}, nil
}

// Name returns "Katz".
func (r *Recommender) Name() string { return "Katz" }

// ScoreCandidates returns topo_β(u, c) per candidate. The topic is
// ignored.
func (r *Recommender) ScoreCandidates(u graph.NodeID, t topics.ID, cands []graph.NodeID) []float64 {
	return r.inner.ScoreCandidates(u, t, cands)
}

// Recommend returns the top-n accounts by Katz score from u.
func (r *Recommender) Recommend(u graph.NodeID, t topics.ID, n int) []ranking.Scored {
	return r.inner.Recommend(u, t, n)
}

var _ ranking.Recommender = (*Recommender)(nil)
