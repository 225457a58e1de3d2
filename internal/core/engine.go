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

// Engine scores candidates over one immutable graph View — a frozen CSR
// or an overlay snapshot. An Engine is immutable and safe for concurrent
// use; per-call scratch buffers are either passed in explicitly or
// borrowed from the engine's pool.
type Engine struct {
	g      graph.View
	auth   *authority.Table
	sim    *topics.SimMatrix
	params Params

	// ones is the all-ones similarity row of the variants without a
	// similarity factor (row 0 of an in-adjacency's similarity table).
	ones []float64
	// simTab answers the similarity factor maxsim(label, t): the
	// matrix's byte table, or one that scores every label 1 for variants
	// without a similarity factor.
	simTab *topics.ByteTable
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
	e.simTab = unitSim
	if needSim {
		e.simTab = sim.ByteTable()
	}
	return e, nil
}

// Derive builds an engine over another View of the same vocabulary —
// typically an overlay snapshot layered over (a descendant of) the
// engine's graph — sharing its similarity matrix and scratch pool. auth
// is the authority table matching v (nil keeps the engine's, for variants
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
	ne := &Engine{g: v, auth: auth, sim: e.sim, params: e.params, ones: e.ones, simTab: e.simTab, pool: e.pool}
	if v.NumNodes() != e.g.NumNodes() {
		ne.pool = newScratchPool(v.NumNodes(), len(e.ones))
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

// unitSim scores every label 1: the similarity factor of the variants
// without one.
var unitSim = topics.ConstTable(1)

// Norm returns g(t), the global authority factor of topic t, or 1 for the
// variants without authority. Explorations fold the local factor num
// alone, so the paper's σ(·,·,t) is Norm(t) times the scores they hold;
// authority enters every path score once (Proposition 2), so no ranking
// within one topic depends on it.
func (e *Engine) Norm(t topics.ID) float64 {
	if e.params.Variant == TrNoAuth || e.params.Variant == TopoOnly {
		return 1
	}
	return e.auth.Norm(t)
}

// authCols fills s's per-call authority buffers for the topics ts: each
// topic's num column, nil when the variant ignores authority (callers
// substitute a unit factor), and its g(t).
func (e *Engine) authCols(s *Scratch, ts []topics.ID) ([][]float64, []float64) {
	s.ncols, s.norms = s.ncols[:0], s.norms[:0]
	for _, t := range ts {
		var col []float64
		if e.params.Variant == TrFull || e.params.Variant == TrNoSim {
			col = e.auth.Num(t)
		}
		s.ncols = append(s.ncols, col)
		s.norms = append(s.norms, e.Norm(t))
	}
	return s.ncols, s.norms
}

// Graph returns the engine's graph.
func (e *Engine) Graph() graph.View { return e.g }

// Scratches returns the engine's scratch pool, for callers that read an
// exploration's results in place: Get a scratch, pass it as
// ExploreOptions.Scratch, and Put it back once the results are read.
func (e *Engine) Scratches() *ScratchPool { return e.pool }

// Params returns the engine's parameters.
func (e *Engine) Params() Params { return e.params }

// Similarity returns the engine's similarity matrix (may be nil).
func (e *Engine) Similarity() *topics.SimMatrix { return e.sim }

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
