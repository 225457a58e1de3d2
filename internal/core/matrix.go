package core

import (
	"repro/internal/graph"
	"repro/internal/topics"
)

// MatrixExplore computes σ(src, ·, t) by iterating the paper's matrix
// form (Equation 6) literally:
//
//	R_t^(k+1) = (βA)·R_t^(k) + (βα)·S_t·T_αβ^(k)
//	T^(k+1)   = (αβ)·A·T^(k) + I
//
// where A[v][u] = 1 iff u follows v, S_t[v][u] = sim(labelE(u→v), t) ·
// auth(v, t), and I seeds the source. It performs full matrix-vector
// products every step — no frontier tracking — so it is the slow
// reference implementation of Proposition 1's fixpoint (the paper's σ,
// not σ/g(t) as an exploration holds it), used to cross-validate the optimized exploration engine and to demonstrate the
// convergence analysis of Proposition 3 exactly as written.
//
// iters <= 0 runs the engine's MaxDepth steps.
func (e *Engine) MatrixExplore(src graph.NodeID, t topics.ID, iters int) []float64 {
	if iters <= 0 {
		iters = e.params.MaxDepth
	}
	n := e.g.NumNodes()
	beta, alpha := e.params.Beta, e.params.Alpha
	ab := alpha * beta

	r := make([]float64, n)     // R_t^(k)
	rNext := make([]float64, n) // R_t^(k+1)
	tv := make([]float64, n)    // T_αβ^(k), including the I seed
	tNext := make([]float64, n)
	tv[src] = 1 // T^(0) = I

	for k := 0; k < iters; k++ {
		for i := range rNext {
			rNext[i] = 0
			tNext[i] = 0
		}
		// One matrix-vector product over every edge u→v.
		for u := 0; u < n; u++ {
			ru := r[u]
			tu := tv[u]
			if ru == 0 && tu == 0 {
				continue
			}
			dsts, lbls := e.g.Out(graph.NodeID(u))
			for i, v := range dsts {
				// (βA)·R term.
				rNext[v] += beta * ru
				// (βα)·S·T term.
				rNext[v] += ab * e.edgeTopicWeight(lbls[i], v, t) * tu
				// T recurrence.
				tNext[v] += ab * tu
			}
		}
		tNext[src] += 1 // + I
		r, rNext = rNext, r
		tv, tNext = tNext, tv
	}
	// R^(k) holds scores of paths of length exactly ≤ k? The recurrence
	// accumulates: R^(k)[v] covers every path of length 1..k because each
	// step extends shorter paths by one edge while T keeps re-seeding the
	// source. Return a copy.
	out := make([]float64, n)
	copy(out, r)
	return out
}
