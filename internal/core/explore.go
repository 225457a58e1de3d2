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

	k      int // len(Topics)
	sigma  map[graph.NodeID][]float64
	topoB  map[graph.NodeID]float64
	topoAB map[graph.NodeID]float64

	// Dense-result backing (ExploreOptions.DenseResult): scores live in
	// the scratch's flat arrays instead of the maps above, indexed by
	// node id with stride dk. Valid only until the scratch's next
	// exploration.
	dSigma          []float64
	dTopoB, dTopoAB []float64
	dIn             []bool
	dk              int
	dScored         int // nodes holding a row, including a revisited Src
}

// Sigma returns σ(Src, v, Topics[ti]).
func (x *Exploration) Sigma(v graph.NodeID, ti int) float64 {
	if x.dSigma != nil {
		if !x.dIn[v] {
			return 0
		}
		return x.dSigma[int(v)*x.dk+ti]
	}
	if row, ok := x.sigma[v]; ok {
		return row[ti]
	}
	return 0
}

// SigmaRow returns the per-topic scores of v in Topics order (nil if v was
// never reached). The slice aliases internal storage.
func (x *Exploration) SigmaRow(v graph.NodeID) []float64 {
	if x.dSigma != nil {
		if !x.dIn[v] {
			return nil
		}
		base := int(v) * x.dk
		return x.dSigma[base : base+x.k]
	}
	return x.sigma[v]
}

// TopoB returns the Katz score topo_β(Src, v) (Equation 2).
func (x *Exploration) TopoB(v graph.NodeID) float64 {
	if x.dTopoB != nil {
		if !x.dIn[v] {
			return 0
		}
		return x.dTopoB[v]
	}
	return x.topoB[v]
}

// TopoAB returns topo_αβ(Src, v), the topological score with decay α·β.
func (x *Exploration) TopoAB(v graph.NodeID) float64 {
	if x.dTopoAB != nil {
		if !x.dIn[v] {
			return 0
		}
		return x.dTopoAB[v]
	}
	return x.topoAB[v]
}

// scored returns the number of nodes holding a score row.
func (x *Exploration) scored() int {
	if x.dSigma != nil {
		return x.dScored
	}
	return len(x.sigma)
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
// sums over k give σ, topo_αβ and topo_β.
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
	// Mode selects the frontier representation (AutoMode by default).
	Mode Mode
	// Scratch supplies reusable buffers (every mode but MapMode); nil
	// allocates fresh ones.
	Scratch *Scratch
	// DenseResult keeps the result scores in the scratch's flat arrays
	// instead of building per-node map entries — the right trade for hot
	// serving loops that read scores through the accessors and then
	// discard the Exploration, and for landmark preprocessing, which
	// condenses every reached node's row. Honoured by DenseMode and the
	// kernel (MapMode ignores it) and requires a Scratch; the returned
	// Exploration aliases the scratch and is valid only until that
	// scratch's next exploration (or its return to a pool).
	DenseResult bool
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
		metrics.ExponentialBuckets(10, 10, 7)).Observe(float64(x.scored()))
	if x.Cancelled {
		reg.Counter("core_explore_cancelled_total",
			"Explorations stopped early by context cancellation.").Inc()
	}
}

// ctxDone reports whether a non-nil context has been cancelled.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// rowArenaBlock is how many k-sized float rows an arena block holds.
// Explorations hand out one row per reached node; block allocation turns
// one malloc per node into one per block.
const rowArenaBlock = 256

// rowArena block-allocates zeroed k-float rows.
type rowArena struct {
	k     int
	block []float64
}

func (a *rowArena) newRow() []float64 {
	if len(a.block) < a.k {
		a.block = make([]float64, a.k*rowArenaBlock)
	}
	row := a.block[:a.k:a.k]
	a.block = a.block[a.k:]
	return row
}

// ExploreOpts is Explore with per-call options.
func (e *Engine) ExploreOpts(src graph.NodeID, ts []topics.ID, opts ExploreOptions) *Exploration {
	maxDepth := opts.MaxDepth
	if ts == nil {
		all := make([]topics.ID, e.g.Vocabulary().Len())
		for i := range all {
			all[i] = topics.ID(i)
		}
		ts = all
	}
	if maxDepth <= 0 {
		maxDepth = e.params.MaxDepth
	}
	// An optimized engine routes AutoMode (and KernelMode) through the
	// cache-topology-aware float32 kernel; explicit MapMode/DenseMode
	// requests keep the exact float64 paths for differential checks.
	if e.layout != nil && (opts.Mode == AutoMode || opts.Mode == KernelMode) {
		return e.exploreKernel(src, ts, maxDepth, opts)
	}
	// Deep explorations touch most of the graph: dense frontier arrays
	// beat per-node map allocations there; shallow query-time lookups
	// stay on maps. KernelMode without a layout falls back to the nearest
	// array-backed mode.
	useDense := opts.Mode == DenseMode || opts.Mode == KernelMode ||
		(opts.Mode == AutoMode && maxDepth > 3)
	if useDense {
		return e.exploreDense(src, ts, maxDepth, opts)
	}
	k := len(ts)
	x := &Exploration{
		Src:    src,
		Topics: ts,
		k:      k,
		sigma:  make(map[graph.NodeID][]float64),
		topoB:  make(map[graph.NodeID]float64),
		topoAB: make(map[graph.NodeID]float64),
	}

	type delta struct {
		sigma  []float64
		topoB  float64
		topoAB float64
	}
	cur := map[graph.NodeID]*delta{
		src: {sigma: make([]float64, k), topoB: 1, topoAB: 1},
	}

	beta, alpha := e.params.Beta, e.params.Alpha
	ab := alpha * beta

	// Hop-local buffers live outside the loop so a deep exploration does
	// not reallocate them every hop; retired *delta values are recycled
	// through a free list, fresh ones come from block arenas (the per-hop
	// maps are the only remaining per-hop allocation of this mode).
	var curNodes, frontier []graph.NodeID
	perTopic := make([]float64, k)
	var free []*delta
	var deltaBlock []delta
	arena := rowArena{k: k}
	rows := rowArena{k: k} // result rows, referenced by x.sigma
	newDelta := func() *delta {
		if len(deltaBlock) == 0 {
			deltaBlock = make([]delta, rowArenaBlock)
		}
		d := &deltaBlock[0]
		deltaBlock = deltaBlock[1:]
		d.sigma = arena.newRow()
		return d
	}

	peakFrontier := 1
	for depth := 1; depth <= maxDepth && len(cur) > 0; depth++ {
		if ctxDone(opts.Ctx) {
			x.Cancelled = true
			break
		}
		// Expand frontier nodes in sorted order: per-target float sums
		// must not depend on map iteration order.
		curNodes = curNodes[:0]
		for w := range cur {
			curNodes = append(curNodes, w)
		}
		slices.Sort(curNodes)
		// Size the next hop's map from the frontier's total out-degree
		// (an exact bound, read off the CSR degree prefix sums) so it
		// never rehashes mid-hop.
		next := make(map[graph.NodeID]*delta, frontierOutBound(e.g, curNodes, e.g.NumNodes()))
		for _, w := range curNodes {
			dw := cur[w]
			if opts.Stop != nil && w != src && opts.Stop(w) {
				continue
			}
			dsts, lbls := e.g.Out(w)
			wrow := e.outWeights(w)
			for i, v := range dsts {
				dv := next[v]
				if dv == nil {
					if n := len(free); n > 0 {
						dv, free = free[n-1], free[:n-1]
						for ti := range dv.sigma {
							dv.sigma[ti] = 0
						}
						dv.topoB, dv.topoAB = 0, 0
					} else {
						dv = newDelta()
					}
					next[v] = dv
				}
				sr := e.simRow(lbls[i])
				ar := e.authRow(v)
				// The decay weight scales the edge's topical unit only;
				// the topological recurrences below stay unweighted.
				ew := 1.0
				if wrow != nil {
					ew = float64(wrow[i])
				}
				for ti, t := range ts {
					unit := sr[t] * ar[t] * ew
					dv.sigma[ti] += beta*dw.sigma[ti] + dw.topoAB*(ab*unit)
				}
				dv.topoAB += ab * dw.topoAB
				dv.topoB += beta * dw.topoB
			}
		}
		// Accumulate this hop's mass and check convergence: average new
		// per-topic mass per reached node under Tol (Algorithm 1 l. 15),
		// with the topological mass as an additional guard for the
		// TopoOnly variant whose σ mass equals it anyway. Accumulation
		// follows sorted node order so floating-point results (and hence
		// near-tie rankings) are reproducible across runs — Go map
		// iteration order is randomized.
		frontier = frontier[:0]
		for v := range next {
			frontier = append(frontier, v)
		}
		if len(frontier) > peakFrontier {
			peakFrontier = len(frontier)
		}
		slices.Sort(frontier)
		var maxTopicMass, topoMass float64
		for i := range perTopic {
			perTopic[i] = 0
		}
		for _, v := range frontier {
			dv := next[v]
			row, ok := x.sigma[v]
			if !ok {
				row = rows.newRow()
				x.sigma[v] = row
				if v != src {
					x.Reached = append(x.Reached, v)
				}
			}
			for ti := 0; ti < k; ti++ {
				row[ti] += dv.sigma[ti]
				perTopic[ti] += dv.sigma[ti]
			}
			x.topoB[v] += dv.topoB
			x.topoAB[v] += dv.topoAB
			topoMass += dv.topoB
		}
		x.Iterations = depth
		denom := float64(len(x.sigma))
		if denom == 0 {
			denom = 1
		}
		for _, m := range perTopic {
			if m/denom > maxTopicMass {
				maxTopicMass = m / denom
			}
		}
		if maxTopicMass < e.params.Tol && topoMass/denom < e.params.Tol {
			x.Converged = true
			break
		}
		// The expanded frontier's deltas are dead once cur is replaced;
		// recycle them for the next hop.
		for _, w := range curNodes {
			free = append(free, cur[w])
		}
		cur = next
	}
	exploreMetrics(opts.Metrics, x, peakFrontier)
	return x
}
