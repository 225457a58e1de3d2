// Package core implements the paper's primary contribution: the Tr
// recommendation score σ(u, v, t) over a labeled social graph
// (Definition 1), its iterative computation (Proposition 1 / Algorithm 1),
// the score composition property (Proposition 2) and the convergence
// condition (Proposition 3).
//
// For a user u and topic t the score of a candidate v sums, over every
// path p from u to v, a total path score
//
//	ω_p(t) = β^|p| · Σ_{e∈p} α^d(e) · max_{t'∈labelE(e)} sim(t', t) · auth(end(e), t)
//
// where d(e) is the 1-based position of edge e on the path, β penalizes
// long paths, α discounts edges far from u, sim is the Wu-Palmer topical
// similarity and auth is the topical authority of the edge's end node.
// Setting the per-edge topical factor to 1 recovers the Katz score
// topo_β(u, v) = Σ_p β^|p| (Equation 2).
//
// The computation propagates per-path-length "delta" masses hop by hop
// (exactly the iterative formula of Proposition 1): at hop k we hold, for
// every reached node w, the mass contributed by length-k paths to (i) σ
// per requested topic, (ii) the topological score with decay α·β (needed
// as the path-prefix weight and by the landmark combination of
// Proposition 4) and (iii) the topological score with decay β (the Katz
// score). Iteration stops when the frontier mass falls under a tolerance
// (Algorithm 1, line 15) or at a depth cap.
package core

import (
	"fmt"
	"sync"

	"repro/internal/authority"
	"repro/internal/graph"
	"repro/internal/topics"
)

// Variant selects which components of the Tr score are active; the paper
// evaluates the full score against its two ablations (Figure 4).
type Variant int

const (
	// TrFull uses edge similarity and node authority (the paper's Tr).
	TrFull Variant = iota
	// TrNoAuth keeps edge similarity, drops node authority ("Tr−auth":
	// Katz plus edge similarity).
	TrNoAuth
	// TrNoSim keeps node authority, drops edge similarity ("Tr−sim").
	TrNoSim
	// TopoOnly drops both: σ degenerates to the Katz topological score.
	TopoOnly
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case TrFull:
		return "Tr"
	case TrNoAuth:
		return "Tr-auth"
	case TrNoSim:
		return "Tr-sim"
	case TopoOnly:
		return "Katz"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Params are the scoring and iteration parameters.
type Params struct {
	// Beta is the per-hop path decay β of Definition 1. The paper sets
	// 0.0005, the value used for Katz in the link-prediction literature.
	Beta float64
	// Alpha is the per-edge distance decay α of Equation 3 (paper: 0.85).
	Alpha float64
	// MaxDepth caps the exploration depth (Algorithm 1's maxk). The
	// preprocessing step uses a large value and relies on Tol; query-time
	// exploration uses a small one (2 in the paper's experiments).
	MaxDepth int
	// Tol is the convergence tolerance on the frontier's average score
	// mass (Algorithm 1, line 15).
	Tol float64
	// Variant selects the score ablation.
	Variant Variant
}

// DefaultParams returns the paper's parameter values.
func DefaultParams() Params {
	return Params{Beta: 0.0005, Alpha: 0.85, MaxDepth: 16, Tol: 1e-15, Variant: TrFull}
}

// Validate reports invalid parameter combinations.
func (p Params) Validate() error {
	if p.Beta <= 0 || p.Beta >= 1 {
		return fmt.Errorf("core: Beta must be in (0,1), got %g", p.Beta)
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		return fmt.Errorf("core: Alpha must be in (0,1], got %g", p.Alpha)
	}
	if p.MaxDepth < 1 {
		return fmt.Errorf("core: MaxDepth must be >= 1, got %d", p.MaxDepth)
	}
	if p.Tol < 0 {
		return fmt.Errorf("core: Tol must be >= 0, got %g", p.Tol)
	}
	return nil
}

// simCache memoizes, per distinct edge label, the vector
// max_{t'∈label} sim(t', t) for every topic t. Edge labels repeat
// massively (they are small intersections of profiles), so this turns the
// per-edge-per-topic bit scan of Equation 3 into one lookup per edge.
//
// base is frozen at construction with every label of the engine's graph;
// extra memoizes labels that appear later — overlay-only labels from
// dynamic edge batches, or hand-made paths on other graphs — behind a
// sync.Map so concurrent queries never recompute a row more than a
// handful of times and never race. A cache is shared across every engine
// derived from the same base (the rows depend only on the similarity
// matrix, not on the graph), so attaching an overlay reuses all prior
// rows and only ever extends the cache.
type simCache struct {
	sim   *topics.SimMatrix
	T     int
	base  map[topics.Set][]float64
	extra sync.Map // topics.Set -> []float64
}

func (c *simCache) compute(lbl topics.Set) []float64 {
	row := make([]float64, c.T)
	for t := 0; t < c.T; t++ {
		row[t] = c.sim.MaxSim(lbl, topics.ID(t))
	}
	return row
}

// row returns the memoized per-topic similarity factors of lbl.
func (c *simCache) row(lbl topics.Set) []float64 {
	if r, ok := c.base[lbl]; ok {
		return r
	}
	if r, ok := c.extra.Load(lbl); ok {
		return r.([]float64)
	}
	r, _ := c.extra.LoadOrStore(lbl, c.compute(lbl))
	return r.([]float64)
}

// ensure precomputes lbl's row if absent (overlay attach path).
func (c *simCache) ensure(lbl topics.Set) {
	if _, ok := c.base[lbl]; ok {
		return
	}
	if _, ok := c.extra.Load(lbl); ok {
		return
	}
	c.extra.LoadOrStore(lbl, c.compute(lbl))
}

// Engine scores candidates over one immutable graph View — a frozen CSR
// or an overlay snapshot. An Engine is immutable and safe for concurrent
// use; per-call scratch buffers are either passed in explicitly or
// borrowed from the engine's pool.
type Engine struct {
	g      graph.View
	auth   *authority.Table
	sim    *topics.SimMatrix
	params Params

	// simc caches per-label similarity rows; nil when the variant ignores
	// similarity. Shared, not copied, by engines derived via Derive.
	simc *simCache
	// ones is the all-ones row used by variants without a similarity or
	// authority factor.
	ones []float64
	// wts, when non-nil, scales each edge's topical factor by a per-edge
	// weight (the streaming tier's time-decay recency weights). The
	// purely topological scores (topo_β, topo_αβ) stay unweighted — only
	// the σ edge unit sim·auth picks up the factor — so the landmark
	// combination algebra (Proposition 4) is unchanged: it holds for any
	// per-edge unit function.
	wts EdgeWeighter
	// pool lends explorations their scratches, sized for the view's node
	// count and full vocabulary. Engines over views of the same size share
	// one (Derive, WithEdgeWeights).
	pool *ScratchPool
}

// EdgeWeighter serves per-edge multiplicative weights aligned with a
// View's Out rows: OutWeights(u)[i] scales the topical factor of u's
// i-th out-edge. A nil row means unit weights for that node.
// graph.EdgeWeights is the production implementation.
type EdgeWeighter interface {
	OutWeights(u graph.NodeID) []float32
}

// NewEngine assembles an engine over any graph View. auth may be nil for
// variants that do not use authority; sim may be nil for variants that do
// not use similarity.
func NewEngine(g graph.View, auth *authority.Table, sim *topics.SimMatrix, params Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	needAuth := params.Variant == TrFull || params.Variant == TrNoSim
	needSim := params.Variant == TrFull || params.Variant == TrNoAuth
	if needAuth && auth == nil {
		return nil, fmt.Errorf("core: variant %v requires an authority table", params.Variant)
	}
	if needSim && sim == nil {
		return nil, fmt.Errorf("core: variant %v requires a similarity matrix", params.Variant)
	}
	if sim != nil && sim.Len() != g.Vocabulary().Len() {
		return nil, fmt.Errorf("core: similarity matrix covers %d topics, graph vocabulary has %d", sim.Len(), g.Vocabulary().Len())
	}
	T := g.Vocabulary().Len()
	e := &Engine{g: g, auth: auth, sim: sim, params: params, pool: newScratchPool(g.NumNodes(), T)}
	e.ones = make([]float64, T)
	for i := range e.ones {
		e.ones[i] = 1
	}
	if needSim {
		e.simc = &simCache{sim: sim, T: T, base: make(map[topics.Set][]float64)}
		for u := 0; u < g.NumNodes(); u++ {
			_, lbls := g.Out(graph.NodeID(u))
			for _, lbl := range lbls {
				if _, ok := e.simc.base[lbl]; !ok {
					e.simc.base[lbl] = e.simc.compute(lbl)
				}
			}
		}
	}
	return e, nil
}

// Derive builds an engine over another View of the same vocabulary —
// typically an overlay snapshot layered over (a descendant of) the
// engine's graph — reusing the similarity-row cache instead of rescanning
// every edge. When v is an overlay, the rows its delta rebuilt are the
// only place a label unseen by the cache can hide, so exactly those are
// scanned; anything missed beyond that is memoized on first use. auth is
// the authority table matching v (nil keeps the engine's, for variants
// that ignore authority).
func (e *Engine) Derive(v graph.View, auth *authority.Table) (*Engine, error) {
	if v.Vocabulary().Len() != e.g.Vocabulary().Len() {
		return nil, fmt.Errorf("core: derived view has %d topics, engine was built for %d",
			v.Vocabulary().Len(), e.g.Vocabulary().Len())
	}
	if auth == nil {
		auth = e.auth
	}
	needAuth := e.params.Variant == TrFull || e.params.Variant == TrNoSim
	if needAuth && auth == nil {
		return nil, fmt.Errorf("core: variant %v requires an authority table", e.params.Variant)
	}
	// Edge weights are deliberately dropped: a weight set is row-aligned
	// with one specific view, and v's rows differ.
	// The owner re-attaches a matching set via WithEdgeWeights
	// (dynamic.Manager layers one per overlay epoch).
	ne := &Engine{g: v, auth: auth, sim: e.sim, params: e.params, simc: e.simc, ones: e.ones, pool: e.pool}
	if v.NumNodes() != e.g.NumNodes() {
		ne.pool = newScratchPool(v.NumNodes(), len(e.ones))
	}
	if ne.simc != nil {
		if ov, ok := v.(*graph.Overlay); ok {
			ov.PatchedLabels(ne.simc.ensure)
		}
	}
	return ne, nil
}

// WithEdgeWeights returns a copy of the engine whose explorations scale
// every edge's topical factor by w's per-edge weight. w must be
// row-aligned with the engine's current view. A nil w returns an
// unweighted copy.
func (e *Engine) WithEdgeWeights(w EdgeWeighter) *Engine {
	ne := *e
	ne.wts = w
	return &ne
}

// outWeights returns the per-edge weight row of u, or nil for unit
// weights.
func (e *Engine) outWeights(u graph.NodeID) []float32 {
	if e.wts == nil {
		return nil
	}
	return e.wts.OutWeights(u)
}

// simRow returns the per-topic similarity factors of an edge label (ones
// when the variant ignores similarity).
func (e *Engine) simRow(lbl topics.Set) []float64 {
	if e.simc == nil {
		return e.ones
	}
	return e.simc.row(lbl)
}

// authRow returns the per-topic authority factors of a node (ones when
// the variant ignores authority).
func (e *Engine) authRow(v graph.NodeID) []float64 {
	if e.params.Variant == TrNoAuth || e.params.Variant == TopoOnly {
		return e.ones
	}
	return e.auth.Row(v)
}

// authCol returns auth(·, t) for every node, or nil when the variant
// ignores authority (callers substitute a unit factor). The dense
// exploration reads one topic across many random nodes, so the
// column-major path keeps the working set at one column instead of the
// whole table.
func (e *Engine) authCol(t topics.ID) []float64 {
	if e.params.Variant == TrNoAuth || e.params.Variant == TopoOnly {
		return nil
	}
	return e.auth.Col(t)
}

// Graph returns the engine's graph.
func (e *Engine) Graph() graph.View { return e.g }

// Scratches returns the engine's scratch pool, for callers that read an
// exploration's results in place: Get a scratch, pass it as
// ExploreOptions.Scratch, and Put it back once the results are read.
func (e *Engine) Scratches() *ScratchPool { return e.pool }

// Params returns the engine's parameters.
func (e *Engine) Params() Params { return e.params }

// Authority returns the engine's authority table (may be nil).
func (e *Engine) Authority() *authority.Table { return e.auth }

// Similarity returns the engine's similarity matrix (may be nil).
func (e *Engine) Similarity() *topics.SimMatrix { return e.sim }

// EdgeUnit returns the topical factor of one edge for topic t —
// maxsim(label, t) · auth(end, t) under the engine's variant — the
// quantity β·α multiplies in the edge score ω_e(t). Exposed for engines
// built on top of the exploration recurrence (e.g. the distributed
// simulation).
func (e *Engine) EdgeUnit(label topics.Set, end graph.NodeID, t topics.ID) float64 {
	return e.simRow(label)[t] * e.authRow(end)[t]
}

// edgeTopicWeight returns the topical factor of one edge for topic t:
// maxsim(label, t) · auth(end, t), with each factor replaced by 1 when the
// variant disables it. The β·α decay is applied by the caller.
func (e *Engine) edgeTopicWeight(label topics.Set, end graph.NodeID, t topics.ID) float64 {
	switch e.params.Variant {
	case TrFull:
		s := e.sim.MaxSim(label, t)
		if s == 0 {
			return 0
		}
		return s * e.auth.Score(end, t)
	case TrNoAuth:
		return e.sim.MaxSim(label, t)
	case TrNoSim:
		return e.auth.Score(end, t)
	default: // TopoOnly
		return 1
	}
}
