package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// Recommender adapts an Engine to the shared ranking.Recommender
// interface, computing exact Tr scores by graph exploration from the query
// node.
type Recommender struct {
	eng *Engine
	// depth caps each exploration; <= 0 runs to the engine's MaxDepth
	// (i.e. effectively to convergence).
	depth int
	// excludeFollowed removes accounts u already follows from Recommend
	// results (they need no recommendation); candidate scoring is not
	// affected.
	excludeFollowed bool
	// metrics, when non-nil, is threaded into every exploration.
	metrics *metrics.Registry
}

// RecommenderOption customizes a Recommender.
type RecommenderOption func(*Recommender)

// WithDepth caps exploration depth (e.g. 2 for a fast local
// recommendation).
func WithDepth(d int) RecommenderOption {
	return func(r *Recommender) { r.depth = d }
}

// WithExcludeFollowed drops already-followed accounts from Recommend
// output.
func WithExcludeFollowed() RecommenderOption {
	return func(r *Recommender) { r.excludeFollowed = true }
}

// WithMetrics records per-query exploration series into reg.
func WithMetrics(reg *metrics.Registry) RecommenderOption {
	return func(r *Recommender) { r.metrics = reg }
}

// explore runs one exploration with the recommender's depth cap and
// metric registry into a scratch borrowed from the engine's pool. The
// scores are read in place, so the caller hands the scratch back to the
// pool only once it has read them.
func (r *Recommender) explore(u graph.NodeID, ts []topics.ID, ctx context.Context) (*Exploration, *Scratch) {
	s := r.eng.pool.Get()
	return r.eng.ExploreOpts(u, ts, ExploreOptions{MaxDepth: r.depth, Scratch: s, Ctx: ctx, Metrics: r.metrics}), s
}

// NewRecommender wraps an engine.
func NewRecommender(eng *Engine, opts ...RecommenderOption) *Recommender {
	r := &Recommender{eng: eng}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Name returns the variant's name ("Tr", "Tr-auth", "Tr-sim", "Katz").
func (r *Recommender) Name() string { return r.eng.params.Variant.String() }

// scoreOf reads the ranking score of v from an exploration, σ/g(t):
// callers multiply by Engine.Norm(t). For the TopoOnly variant the
// paper's score degenerates to the Katz topological score (setting
// ω̄_p(t) = 1 in Definition 1 yields Equation 2), so topo_β is used
// directly.
func (r *Recommender) scoreOf(x *Exploration, v graph.NodeID, ti int) float64 {
	if r.eng.params.Variant == TopoOnly {
		return x.TopoB(v)
	}
	return x.Sigma(v, ti)
}

// Engine returns the underlying engine.
func (r *Recommender) Engine() *Engine { return r.eng }

// ScoreCandidates runs one exploration from u and reads σ(u, c, t) for
// each candidate. Candidates not reached score 0.
func (r *Recommender) ScoreCandidates(u graph.NodeID, t topics.ID, cands []graph.NodeID) []float64 {
	x, s := r.explore(u, []topics.ID{t}, nil)
	defer r.eng.pool.Put(s)
	g := r.eng.Norm(t)
	out := make([]float64, len(cands))
	for i, c := range cands {
		out[i] = g * r.scoreOf(x, c, 0)
	}
	return out
}

// Recommend returns the top-n accounts for u on topic t, best first.
func (r *Recommender) Recommend(u graph.NodeID, t topics.ID, n int) []ranking.Scored {
	out, _ := r.RecommendCtx(context.Background(), u, t, n) //nolint:errcheck // background ctx never cancels
	return out
}

// RecommendCtx is Recommend under a context: a deadline or cancellation
// stops the exploration between hops and returns the context's error, so
// a slow exact query cannot pin its goroutine past the caller's budget.
func (r *Recommender) RecommendCtx(ctx context.Context, u graph.NodeID, t topics.ID, n int) ([]ranking.Scored, error) {
	x, s := r.explore(u, []topics.ID{t}, ctx)
	defer r.eng.pool.Put(s)
	if x.Cancelled {
		return nil, ctx.Err()
	}
	g := r.eng.Norm(t)
	top := ranking.NewTopN(n)
	for _, v := range x.Reached {
		if v == u {
			continue
		}
		if r.excludeFollowed && r.eng.g.HasEdge(u, v) {
			continue
		}
		if s := g * r.scoreOf(x, v, 0); s > 0 {
			top.Insert(v, s)
		}
	}
	return top.List(), nil
}

// QueryTopic is one weighted topic of a multi-topic query Q = {t1…tn}. The
// paper weights each topic by its relevance for the user's own posts.
type QueryTopic struct {
	Topic  topics.ID
	Weight float64
}

// RecommendQuery answers a multi-topic query with the weighted linear
// combination of per-topic scores (Definition 1's final score, using the
// metasearch combination the paper references). Each topic's weight
// carries its global authority factor g(t).
func (r *Recommender) RecommendQuery(u graph.NodeID, query []QueryTopic, n int) []ranking.Scored {
	ts := make([]topics.ID, len(query))
	ws := make([]float64, len(query))
	for i, q := range query {
		ts[i] = q.Topic
		ws[i] = q.Weight * r.eng.Norm(q.Topic)
	}
	x, s := r.explore(u, ts, nil)
	defer r.eng.pool.Put(s)
	top := ranking.NewTopN(n)
	for _, v := range x.Reached {
		if v == u {
			continue
		}
		if r.excludeFollowed && r.eng.g.HasEdge(u, v) {
			continue
		}
		s := 0.0
		for i, w := range ws {
			s += w * r.scoreOf(x, v, i)
		}
		if s > 0 {
			top.Insert(v, s)
		}
	}
	return top.List()
}

var _ ranking.Recommender = (*Recommender)(nil)
