package core

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/topics"
)

// Exploration holds the exact scores computed from one source node: the
// recommendation vector R_t per requested topic, the Katz topological
// scores topo_β and the α·β-decayed topological scores topo_αβ used by the
// landmark combination (Proposition 4).
type Exploration struct {
	Src     graph.NodeID
	Topics  []topics.ID    // topics scored, in request order
	Reached []graph.NodeID // nodes with any non-zero score, excluding Src
	// Iterations is the length of the longest paths the scores include:
	// the hops propagated by the hop recurrence, or pass-1 hops + 1 +
	// pass-3 hops for an exploration in factored form (InAdjacency).
	Iterations int
	// Converged reports whether the tolerance was met before MaxDepth.
	Converged bool
	// Cancelled reports that the exploration stopped early because its
	// context was done; scores cover only the hops completed before
	// cancellation.
	Cancelled bool

	k       int // len(Topics)
	dScored int // nodes holding a row, including a revisited Src

	// Scores live in a scratch's rows (see Scratch.rows), indexed by
	// node id and valid only until the scratch's next exploration, or,
	// once detached, in the maps below.
	rows        []float64
	off         int // offset of the source's block in a node's row
	stride, tot int // row stride; offset of the totals in the block, the mark just before
	sigma       map[graph.NodeID][]float64
	topoB       map[graph.NodeID]float64
	topoAB      map[graph.NodeID]float64
}

// totals returns v's running totals in the scratch's rows — σ for each
// topic, topo_β, topo_βα — or nil when v was never reached.
func (x *Exploration) totals(v graph.NodeID) []float64 {
	base := int(v)*x.stride + x.off
	row := x.rows[base : base+x.tot+x.k+2 : base+x.tot+x.k+2]
	if row[x.tot-1] >= 0 {
		return nil
	}
	return row[x.tot:]
}

// Sigma returns σ(Src, v, t)/g(t) for t = Topics[ti], with g(t) =
// Engine.Norm(t).
func (x *Exploration) Sigma(v graph.NodeID, ti int) float64 {
	if x.rows != nil {
		if r := x.totals(v); r != nil {
			return r[ti]
		}
		return 0
	}
	if row, ok := x.sigma[v]; ok {
		return row[ti]
	}
	return 0
}

// SigmaRow returns the per-topic scores of v in Topics order (nil if v was
// never reached). The slice aliases internal storage.
func (x *Exploration) SigmaRow(v graph.NodeID) []float64 {
	if x.rows != nil {
		if r := x.totals(v); r != nil {
			return r[:x.k:x.k]
		}
		return nil
	}
	return x.sigma[v]
}

// TopoB returns the Katz score topo_β(Src, v) (Equation 2).
func (x *Exploration) TopoB(v graph.NodeID) float64 {
	if x.rows != nil {
		if r := x.totals(v); r != nil {
			return r[x.k]
		}
		return 0
	}
	return x.topoB[v]
}

// TopoAB returns topo_αβ(Src, v), the topological score with decay α·β.
func (x *Exploration) TopoAB(v graph.NodeID) float64 {
	if x.rows != nil {
		if r := x.totals(v); r != nil {
			return r[x.k+1]
		}
		return 0
	}
	return x.topoAB[v]
}

// detach copies x's scores and Reached list out of the scratch it
// aliases into storage of its own, so x outlives the scratch's next
// exploration.
func (x *Exploration) detach() *Exploration {
	k := x.k
	rows := make([]float64, x.dScored*k)
	x.sigma = make(map[graph.NodeID][]float64, x.dScored)
	x.topoB = make(map[graph.NodeID]float64, x.dScored)
	x.topoAB = make(map[graph.NodeID]float64, x.dScored)
	keep := func(v graph.NodeID) {
		r := x.totals(v)
		if r == nil {
			return
		}
		row := rows[:k:k]
		rows = rows[k:]
		copy(row, r)
		x.sigma[v] = row
		x.topoB[v] = r[k]
		x.topoAB[v] = r[k+1]
	}
	keep(x.Src)
	for _, v := range x.Reached {
		keep(v)
	}
	x.Reached = slices.Clone(x.Reached)
	x.rows = nil
	return x
}

// TopicIndex returns the position of t in Topics, or -1 when the
// exploration did not cover it.
func (x *Exploration) TopicIndex(t topics.ID) int {
	for i, tt := range x.Topics {
		if tt == t {
			return i
		}
	}
	return -1
}

// Explore runs the iterative score computation (Algorithm 1) from src for
// the given topics, propagating until convergence or maxDepth hops,
// whichever comes first. maxDepth <= 0 uses the engine's MaxDepth. A nil
// topic list means every topic of the vocabulary.
//
// The propagation carries, per hop k, the exact mass contributed by paths
// of length k (the "delta" decomposition of Proposition 1):
//
//	σΔ_k(v)      = Σ_{w→v} β·σΔ_{k-1}(w) + topoABΔ_{k-1}(w) · β·α·w_t(w→v)
//	topoABΔ_k(v) = Σ_{w→v} α·β·topoABΔ_{k-1}(w)
//	topoBΔ_k(v)  = Σ_{w→v} β·topoBΔ_{k-1}(w)
//
// with w_t the edge topical factor (similarity × authority). Accumulated
// sums over k give σ, topo_αβ and topo_β. Authority enters w_t as its
// local factor num(v, t) alone, so σ is held divided by g(t).
//
// The σ recurrence is linear: σΔ_k = β·Pᵀσ_{k-1} + g_k with g_k the
// authority term above. Summed over k it regroups every path at the one
// edge where authority enters (Proposition 2):
//
//	σ(src,·,t) = Σ_m (β·Pᵀ)^m · G(·,t),  G(v,t) = αβ·Σ_{w→v} topo_αβ(src,w)·w_t(w→v)
//
// with topo_αβ(src,·) the converged total, including the empty path at
// src. InAdjacency.Explore computes converged all-topic explorations in
// that form.
func (e *Engine) Explore(src graph.NodeID, ts []topics.ID, maxDepth int) *Exploration {
	return e.ExploreOpts(src, ts, ExploreOptions{MaxDepth: maxDepth})
}

// ExploreOptions tunes one exploration.
type ExploreOptions struct {
	// MaxDepth caps the hop count; <= 0 uses the engine's MaxDepth.
	MaxDepth int
	// Stop, when non-nil, marks nodes whose out-edges must not be
	// expanded. The landmark query algorithm (Algorithm 2) prunes the BFS
	// at encountered landmarks so that paths through a landmark are not
	// counted twice — once by the exploration and once by the landmark's
	// precomputed scores. Stopped nodes still receive scores.
	Stop func(graph.NodeID) bool
	// Scratch, when it fits the engine's graph and the call's topics,
	// holds the exploration's buffers and its results: the returned
	// Exploration reads its scores in place and is valid only until that
	// scratch's next exploration (or its return to a pool). Without one
	// the call borrows a scratch from the engine's pool and copies the
	// scores into the Exploration before handing the scratch back.
	Scratch *Scratch
	// Ctx, when non-nil, is checked between hops (and periodically inside
	// large hops): a done context stops the exploration and marks the
	// result Cancelled. This is how the server bounds slow exact-Tr
	// queries with a per-request deadline.
	Ctx context.Context
	// Metrics, when non-nil, receives per-exploration series: iterations
	// to convergence, peak frontier size and scored-node count — the live
	// counterparts of the paper's preprocessing-cost quantities.
	Metrics *metrics.Registry
}

// exploreMetrics records one finished exploration into the registry; a
// nil registry records nothing.
func exploreMetrics(reg *metrics.Registry, x *Exploration, peakFrontier int) {
	if reg == nil {
		return
	}
	reg.Histogram("core_explore_iterations",
		"Hops propagated per exploration before convergence or cutoff.",
		metrics.LinearBuckets(1, 1, 16)).Observe(float64(x.Iterations))
	reg.Histogram("core_explore_frontier_peak",
		"Largest per-hop frontier of an exploration, in nodes.",
		metrics.ExponentialBuckets(10, 10, 7)).Observe(float64(peakFrontier))
	reg.Histogram("core_explore_scored_nodes",
		"Nodes holding a non-zero score at the end of an exploration.",
		metrics.ExponentialBuckets(10, 10, 7)).Observe(float64(x.dScored))
	if x.Cancelled {
		reg.Counter("core_explore_cancelled_total",
			"Explorations stopped early by context cancellation.").Inc()
	}
}

// ctxDone reports whether a non-nil context has been cancelled.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// ExploreOpts is Explore with per-call options. Every call runs the hop
// recurrence in a Scratch: the caller's when it fits, with the results
// read in place, otherwise one borrowed from the engine's pool, with the
// results copied out before it goes back.
func (e *Engine) ExploreOpts(src graph.NodeID, ts []topics.ID, opts ExploreOptions) *Exploration {
	if ts == nil {
		all := make([]topics.ID, e.g.Vocabulary().Len())
		for i := range all {
			all[i] = topics.ID(i)
		}
		ts = all
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = e.params.MaxDepth
	}
	n := e.g.NumNodes()
	if opts.Scratch.fits(n, len(ts)) {
		return e.exploreDense(src, ts, maxDepth, opts, opts.Scratch)
	}
	s := e.pool.Get()
	defer e.pool.Put(s)
	if !s.fits(n, len(ts)) {
		// More topics than the vocabulary holds: the list repeats IDs.
		s = newScratchDims(n, len(ts))
	}
	return e.exploreDense(src, ts, maxDepth, opts, s).detach()
}
