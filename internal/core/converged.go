package core

import (
	"repro/internal/graph"
	"repro/internal/topics"
)

// Converged explorations in factored form (Proposition 2). Explore's hop
// recurrence σΔ_k = β·Pᵀσ_{k−1} + g_k, with
// g_k(v,t) = αβ·Σ_{w→v} topoABΔ_{k−1}(w)·w_t(w→v), is linear. Summed over
// every k it regroups each path at the one edge where authority enters:
//
//	σ(λ,·,t) = Σ_m (β·Pᵀ)^m · G(·,t),  G(v,t) = αβ·Σ_{w→v} topo_αβ(λ,w)·w_t(w→v)
//
// where topo_αβ(λ,w) is the scalar total, including the empty path at λ,
// and w_t folds similarity × authority of v × decay. A converged
// exploration from λ therefore runs three pull passes over the view's
// in-adjacency instead of one T-wide multiply-add recurrence per hop:
//
//  1. a scalar pass that carries topo_β (and with it topo_αβ) to the
//     tolerance;
//  2. one T-wide injection that builds G;
//  3. a T-wide gather x ← β·Pᵀx, summed into σ until the per-topic mass
//     per reached node is under Tol — one add per edge and topic, where
//     the hop recurrence pays two multiplies and two adds on every hop.
//
// The result holds paths up to (pass-1 hops + 1 + pass-3 hops) long, and
// Iterations reports that length, so invalidation horizons read off it
// stay sound.

// InAdjacency is the reverse direction of an engine's view with each
// in-edge's factors flattened: its source, the offset of its label's
// similarity row and its decay weight. Rows list sources ascending, so
// every pull sums in an order fixed by the edge set alone: an overlay
// stack and its compacted rebuild explore bit-identically. It is built per
// preprocessing run, shared read-only by concurrent explorations and never
// attached to the engine.
type InAdjacency struct {
	e *Engine
	// off delimits the rows: the in-edges of v sit at [off[v], off[v+1]).
	off []uint32
	src []graph.NodeID
	// sim is each in-edge's row offset into simTab, the packed per-label
	// similarity rows (stride T, row 0 all ones for variants without a
	// similarity factor).
	sim    []uint32
	simTab []float64
	// wt is each in-edge's decay weight; nil when the engine is unweighted.
	wt  []float32
	all []topics.ID // the identity topic list every result covers
}

// InAdjacency builds the engine's in-adjacency in O(n+m): a counting sort
// of the out-edges by destination, sources visited ascending, so no row
// needs sorting.
func (e *Engine) InAdjacency() *InAdjacency {
	g := e.g
	n, T := g.NumNodes(), g.Vocabulary().Len()
	in := &InAdjacency{e: e, off: make([]uint32, n+1), all: make([]topics.ID, T)}
	for t := range in.all {
		in.all[t] = topics.ID(t)
	}
	for v := 0; v < n; v++ {
		in.off[v+1] = in.off[v] + uint32(g.InDegree(graph.NodeID(v)))
	}
	m := in.off[n]
	in.src = make([]graph.NodeID, m)
	in.sim = make([]uint32, m)
	if e.wts != nil {
		in.wt = make([]float32, m)
	}
	in.simTab = append(make([]float64, 0, (1+min(64, n))*T), e.ones...)
	var labelOff map[topics.Set]uint32
	if e.simc != nil {
		labelOff = make(map[topics.Set]uint32)
	}
	fill := make([]uint32, n) // next free slot of each row
	copy(fill, in.off[:n])
	for w := 0; w < n; w++ {
		dsts, lbls := g.Out(graph.NodeID(w))
		wrow := e.outWeights(graph.NodeID(w))
		for i, v := range dsts {
			p := fill[v]
			fill[v]++
			in.src[p] = graph.NodeID(w)
			if labelOff != nil {
				off, ok := labelOff[lbls[i]]
				if !ok {
					off = uint32(len(in.simTab))
					labelOff[lbls[i]] = off
					in.simTab = append(in.simTab, e.simc.row(lbls[i])...)
				}
				in.sim[p] = off
			}
			if in.wt != nil {
				in.wt[p] = 1
				if wrow != nil {
					in.wt[p] = wrow[i]
				}
			}
		}
	}
	return in
}

// Explore runs a converged all-topic exploration from src in factored form
// (see the identity above) with the engine's MaxDepth and Tol, into s's
// flat result arrays: the Exploration aliases s, as one given
// ExploreOptions.Scratch does, and is valid until s's next exploration. It
// returns nil when pass 1 or pass 3 does not converge within MaxDepth hops
// (β near 1/σ_max); the caller then keeps the hop recurrence.
//
// The pass buffers are s's two dense hop arrays, so a pooled scratch
// grows nothing. Every pass rewrites every node's entry, so no frontier
// flags are kept: all terms are nonnegative, and a node is on a pass's
// frontier iff its entry there is positive.
func (in *InAdjacency) Explore(src graph.NodeID, s *Scratch) *Exploration {
	e := in.e
	n, k := e.g.NumNodes(), len(in.all)
	if !s.fits(n, k) {
		s = NewScratch(e)
	}
	p := e.params
	beta, ab := p.Beta, p.Alpha*p.Beta
	off, srcs := in.off, in.src
	s.resetResult(k)
	resSigma, resTopoB, resTopoAB, resIn := s.resSigma, s.resTopoB, s.resTopoAB, s.resIn
	record := func(v int) {
		if !resIn[v] {
			resIn[v] = true
			s.resList = append(s.resList, graph.NodeID(v))
		}
	}
	// converged is Algorithm 1's test: the last hop reached nothing, or
	// its mass per reached node is under Tol.
	converged := func(hits int, mass float64) bool {
		return hits == 0 || mass/float64(max(1, len(s.resList))) < p.Tol
	}

	// Pass 1: topo_β, one scalar per node, in flat arrays carved from the
	// hop buffers. Every length-h path weighs β^h in topo_β and (αβ)^h in
	// topo_αβ, so the hop-h topo_αβ delta is α^h times the topo_β one.
	cb, nb := s.cur, s.next // cb[:n] holds the last hop's deltas
	clear(cb[:n])
	cb[src] = 1
	hops1, alphaH := 0, 1.0
	for {
		if hops1 == p.MaxDepth {
			return nil
		}
		hops1++
		alphaH *= p.Alpha
		bc, bn := cb[:n], nb[:n]
		hits, mass := 0, 0.0
		for v := 0; v < n; v++ {
			var b float64
			for _, w := range srcs[off[v]:off[v+1]] {
				b += bc[w]
			}
			b *= beta
			bn[v] = b
			if b == 0 {
				continue
			}
			hits++
			mass += b
			record(v)
			resTopoB[v] += b
			resTopoAB[v] += alphaH * b
		}
		cb, nb = nb, cb
		if converged(hits, mass) {
			break
		}
	}

	// Passes 2 and 3 carry k+1 columns per node: σ for each topic, then the
	// topo_β delta continuing pass 1, so topo covers the same paths as σ.
	stride, width := k+2, k+1
	perTopic := s.perTopic[:k]
	var topoMass float64
	// fold scales row (σ by scale, topo by β) into x's row for v and into
	// the totals, and reports whether v is on the frontier.
	fold := func(v int, row []float64, scale float64) int {
		res := resSigma[v*k : v*k+k : v*k+k]
		var sum float64
		for j := range res {
			d := scale * row[j]
			row[j] = d
			res[j] += d
			perTopic[j] += d
			sum += d
		}
		b := beta * row[k]
		row[k] = b
		if sum+b == 0 {
			return 0
		}
		topoMass += b
		resTopoB[v] += b
		resTopoAB[v] += alphaH * b
		record(v)
		return 1
	}
	// Pass 2: x_0 = G, injected from every source with a positive pass-1
	// topo_αβ total (the empty path makes src one), written beside pass
	// 1's last deltas, which it still reads. The rows are folded only once
	// all are injected, so no row reads a total another row just grew.
	x, y := nb, cb
	for v := 0; v < n; v++ {
		row := x[v*stride : v*stride+width : v*stride+width]
		row[k] = in.inject(row[:k], v, src, resTopoAB, cb[:n])
		ar := e.authRow(graph.NodeID(v))[:k]
		for j := range ar {
			row[j] *= ar[j]
		}
	}
	clear(perTopic)
	alphaH *= p.Alpha
	hits := 0
	for v := 0; v < n; v++ {
		hits += fold(v, x[v*stride:v*stride+width:v*stride+width], ab)
	}

	// Pass 3: β-gather hops x ← β·Pᵀx, folded into σ and topo.
	hops3 := 0
	for !converged(hits, max(maxOf(perTopic), topoMass)) {
		if hops3 == p.MaxDepth {
			return nil
		}
		hops3++
		clear(perTopic)
		topoMass = 0
		alphaH *= p.Alpha
		hits = 0
		for v := 0; v < n; v++ {
			row := y[v*stride : v*stride+width : v*stride+width]
			gather(row, x, srcs[off[v]:off[v+1]], stride)
			hits += fold(v, row, beta)
		}
		x, y = y, x
	}

	xp := &Exploration{
		Src: src, Topics: in.all, k: k,
		Iterations: hops1 + 1 + hops3,
		Converged:  true,
		dSigma:     resSigma, dTopoB: resTopoB, dTopoAB: resTopoAB, dIn: resIn,
		dScored: len(s.resList),
		Reached: make([]graph.NodeID, 0, len(s.resList)),
	}
	for _, v := range s.resList {
		if v != src {
			xp.Reached = append(xp.Reached, v)
		}
	}
	return xp
}

// inject sets row to Σ_{w→v} topo_αβ(w)·decay(w→v)·maxsim(label, ·) over
// v's in-edges, with topoAB the pass-1 totals plus the empty path at src;
// the caller scales it by αβ·auth(v, ·). It returns Σ_{w→v} last[w], the
// next topo_β delta before its β.
func (in *InAdjacency) inject(row []float64, v int, src graph.NodeID, topoAB, last []float64) float64 {
	clear(row)
	k := len(row)
	var b float64
	for q := in.off[v]; q < in.off[v+1]; q++ {
		w := in.src[q]
		c := topoAB[w]
		if w == src {
			c++
		}
		if c == 0 {
			continue
		}
		b += last[w]
		if in.wt != nil {
			c *= float64(in.wt[q])
		}
		so := int(in.sim[q])
		sr := in.simTab[so : so+k : so+k]
		for j := range row {
			row[j] += c * sr[j]
		}
	}
	return b
}

// gather sets row to the sum of the source rows x[w·stride:][:len(row)]
// over ws, folding four sources per sweep over row: the row is loaded
// and stored once per four edges instead of once per edge. The grouping
// is fixed by ws's order, so the sums are deterministic.
func gather(row, x []float64, ws []graph.NodeID, stride int) {
	clear(row)
	k := len(row)
	i := 0
	for ; i+4 <= len(ws); i += 4 {
		o0, o1, o2, o3 := int(ws[i])*stride, int(ws[i+1])*stride, int(ws[i+2])*stride, int(ws[i+3])*stride
		x0, x1, x2, x3 := x[o0:o0+k:o0+k], x[o1:o1+k:o1+k], x[o2:o2+k:o2+k], x[o3:o3+k:o3+k]
		for j := range row {
			row[j] += (x0[j] + x1[j]) + (x2[j] + x3[j])
		}
	}
	for ; i < len(ws); i++ {
		o := int(ws[i]) * stride
		xw := x[o : o+k : o+k]
		for j := range row {
			row[j] += xw[j]
		}
	}
}

// maxOf returns the largest element of xs (0 for none).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
