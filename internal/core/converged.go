package core

import (
	"fmt"

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
// and w_t folds similarity × num(v, t) × decay, so σ is held as σ/g(t)
// (Engine.Norm). A converged exploration from λ therefore runs three pull
// passes over the view's in-adjacency instead of one T-wide multiply-add
// recurrence per hop:
//
//  1. a scalar pass that carries topo_β (and with it topo_αβ) to the
//     tolerance;
//  2. one injection that builds G for the topics asked;
//  3. a gather x ← β·Pᵀx, summed into σ until each topic's mass per
//     reached node is under Tol — one add per edge and topic, where the
//     hop recurrence pays two multiplies and two adds on every hop.
//
// Every pass is linear column by column, so one call explores many
// sources side by side: each source's topo and (source, topic) σ columns
// share the pulls over the in-adjacency and nothing else. The result
// holds paths up to (pass-1 hops + 1 + pass-3 hops) long, and Iterations
// reports that length, so invalidation horizons read off it stay sound.

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
	if e.params.Variant == TrFull || e.params.Variant == TrNoAuth {
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
					in.simTab = append(in.simTab, make([]float64, T)...)
					e.simTab.MaxSims(in.simTab[off:], lbls[i], in.all)
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

// MaxSources returns how many sources one Explore call over q topics may
// carry: no more than keep its pass rows as narrow as an all-topic
// exploration's (q+1 columns per source against k+1) and its result rows
// and pass buffer inside the rows an all-topic scratch holds. It is 1 for
// the whole vocabulary.
func (in *InAdjacency) MaxSources(q int) int {
	k := len(in.all)
	return max(1, min((k+1)/(q+1), rowFloats(k)/(2*q+4)))
}

// factSource is one source's bookkeeping in a factored exploration.
type factSource struct {
	reached []graph.NodeID // nodes other than the source with a row, in first-reach order
	topo    int            // nodes with a positive topo_β total, the source included
	srcRow  bool           // the source's own row holds scores (a cycle returned to it)
	hops1   int            // pass-1 hops
	last    int            // the last pass-3 hop that added to one of its columns
	alphaH  float64        // α^(length of the paths its topo deltas hold)
	live    bool           // some column of it still adds
	phase1  uint8          // pass 1: adding, handing off, done
}

// Pass-1 phases of a source's topo column.
const (
	p1Adding = iota
	p1Handoff
	p1Done
)

// Explore runs converged explorations from every source in srcs over the
// topics ts (none for the whole vocabulary) in factored form (see the
// identity above), with the engine's MaxDepth and Tol, into s's rows. The
// i-th Exploration is srcs[i]'s; each aliases s, as one given
// ExploreOptions.Scratch does, and is valid until s's next exploration.
// len(srcs) may not exceed MaxSources(len(ts)). Explore returns nil for
// no sources, and when a pass does not converge within MaxDepth hops (β
// near 1/σ_max); the caller then keeps the hop recurrence.
//
// Every column converges on its own: each (source, topic) σ column and
// each source's topo column stops adding at the first hop where its own
// mass per node with a positive topo_β total (a σ column's times g(t)) is
// under Tol. Columns share passes but never a sum, so a column's scores are bit-identical whichever
// sources and topics ride along with it: one source over every topic (a
// landmark's preprocessing) and many sources over one topic (a per-topic
// refresh) agree exactly on what both compute. A σ column may run past its
// source's topo column, so a node can hold σ with a zero topo_β.
//
// The result rows hold, per node and source, a mark and the totals (σ for
// each topic, topo_β, topo_βα); the pass buffers are the rows' spare
// floats and s's front buffer, so a pooled scratch grows nothing past one
// whole-graph frontier. Every pass rewrites every node's entry, so no
// frontier flags are kept: all terms are nonnegative, and a node is on a
// column's frontier iff its entry there is positive.
func (in *InAdjacency) Explore(srcs []graph.NodeID, ts []topics.ID, s *Scratch) []Exploration {
	e := in.e
	n, k := e.g.NumNodes(), len(in.all)
	if len(ts) == 0 {
		ts = in.all
	}
	c, q := len(srcs), len(ts)
	if c == 0 {
		return nil
	}
	if c > in.MaxSources(q) {
		panic(fmt.Sprintf("core: %d sources over %d topics exceed MaxSources %d", c, q, in.MaxSources(q)))
	}
	if !s.fits(n, k) {
		s = NewScratch(e)
	}
	p := e.params
	beta, ab := p.Beta, p.Alpha*p.Beta
	off, from := in.off, in.src
	// A source's block in a result row: the mark, σ for each topic,
	// topo_β and topo_βα. A pass row holds every source's σ columns, one
	// per topic, source by source, then every source's topo_β delta:
	// once the last topo column converges (usually at pass 3's first
	// check), the rows shrink to the Q σ columns.
	B, Q := q+3, c*q
	S, W := c*B, Q+c
	s.reset(srcs[0], 0, 0)
	s.whole = n * S
	rows := s.rows
	x := rows[n*S : n*S+n*W]
	defer clear(x) // leave the rows past the results all-zero
	front := s.frontBuf(n * W)
	st := s.factSources(c)
	active := s.cols[:W]
	mass := s.perTopic[:W]
	ncols, norms := e.authCols(s, ts)

	// reach notes that v's block for source i holds a score.
	reach := func(i, v int, blk []float64) {
		if blk[0] != 0 {
			return
		}
		blk[0] = -1
		if graph.NodeID(v) == srcs[i] {
			st[i].srcRow = true
		} else {
			st[i].reached = append(st[i].reached, graph.NodeID(v))
		}
	}
	// converged is Algorithm 1's test on one column: the last hop added
	// nothing, or its mass per node reached by the source's topo column
	// is under Tol.
	converged := func(i int, m float64) bool {
		return m == 0 || m/float64(max(1, st[i].topo)) < p.Tol
	}

	// Pass 1: topo_β, one column per source, gathered at width c in flat
	// arrays carved from the front buffer; the totals go to the rows.
	// Every length-h path weighs β^h in topo_β and (αβ)^h in topo_αβ, so
	// the hop-h topo_αβ delta is α^h times the topo_β one. The hop after
	// a column converges is its continuation, the first topo delta passes
	// 2 and 3 fold: it goes to the topo column of x, unscaled, and the
	// column is zeroed, so later hops gather nothing from it.
	cb, nb := front[:n*c], front[n*c:2*n*c]
	clear(front[:2*n*c])
	for i, src := range srcs {
		cb[int(src)*c+i] = 1
	}
	hops, alphaH := 0, 1.0
	for {
		adding, handing := false, false
		for i := range st {
			adding = adding || st[i].phase1 == p1Adding
			handing = handing || st[i].phase1 == p1Handoff
		}
		if !adding && !handing {
			break
		}
		if adding {
			if hops == p.MaxDepth {
				return nil
			}
			hops++
			alphaH *= p.Alpha
		}
		clear(mass[:c])
		for v := 0; v < n; v++ {
			row := nb[v*c : v*c+c : v*c+c]
			gather(row, cb, from[off[v]:off[v+1]], c)
			for i, sum := range row {
				if sum == 0 {
					continue
				}
				if st[i].phase1 == p1Handoff {
					x[v*W+Q+i] = sum
					row[i] = 0
					continue
				}
				b := beta * sum
				row[i] = b
				if b == 0 {
					continue
				}
				mass[i] += b
				blk := rows[v*S+i*B : v*S+i*B+B : v*S+i*B+B]
				if blk[q+1] == 0 { // v's first hit: every b is positive
					st[i].topo++
					reach(i, v, blk)
				}
				blk[q+1] += b
				blk[q+2] += alphaH * b
			}
		}
		cb, nb = nb, cb
		for i := range st {
			switch st[i].phase1 {
			case p1Handoff:
				st[i].phase1 = p1Done
			case p1Adding:
				if converged(i, mass[i]) {
					st[i].phase1, st[i].hops1, st[i].alphaH = p1Handoff, hops, alphaH
				}
			}
		}
	}

	// fold scales source i's columns of v's pass row (σ by scale, topo
	// by β) in place and adds them to v's totals and the column masses. A
	// zeroed column adds nothing.
	fold := func(v, i int, row []float64, scale float64) {
		blk := rows[v*S+i*B : v*S+i*B+B : v*S+i*B+B]
		res := blk[1 : 1+q : 1+q]
		sig, cm := row[i*q : i*q+q : i*q+q][:len(res)], mass[i*q : i*q+q : i*q+q][:len(res)]
		var sum float64
		for j := range res {
			d := scale * sig[j]
			sig[j] = d
			res[j] += d
			cm[j] += d
			sum += d
		}
		var b float64
		if len(row) > Q {
			b = beta * row[Q+i]
			row[Q+i] = b
		}
		if sum+b == 0 {
			return
		}
		if b > 0 {
			if blk[q+1] == 0 {
				st[i].topo++
			}
			blk[q+1] += b
			blk[q+2] += st[i].alphaH * b
			mass[Q+i] += b
		}
		reach(i, v, blk)
	}
	// settle stops every column the last hop converged, zeroing it in xb,
	// the buffer the next hop gathers from, drops the topo columns from
	// the rows once none adds, and reports whether any column still adds.
	settle := func(xb []float64) bool {
		for i := range st {
			st[i].live = false
		}
		anyLive, topoLive := false, false
		for col := 0; col < W; col++ {
			if !active[col] {
				continue
			}
			i := col - Q
			if col < Q {
				i = col / q
			}
			m := mass[col]
			if col < Q {
				m *= norms[col%q]
			}
			if converged(i, m) {
				active[col] = false
				for v := col; v < len(xb); v += W {
					xb[v] = 0
				}
				continue
			}
			st[i].live, anyLive = true, true
			topoLive = topoLive || col >= Q
		}
		if W > Q && !topoLive {
			for v := 1; v < n; v++ {
				copy(xb[v*Q:v*Q+Q], xb[v*W:v*W+Q])
			}
			W = Q
		}
		return anyLive
	}

	// Pass 2: x_0 = G, injected from every node with a positive pass-1
	// topo_αβ total (the empty path makes the source one), beside the topo
	// continuation pass 1 left in x. The injection reads the totals, plus
	// the empty path, from a flat copy in the front buffer, which pass 1
	// no longer needs.
	tab := front[:n*c]
	for v := 0; v < n; v++ {
		for i := range st {
			tab[v*c+i] = rows[v*S+i*B+q+2]
		}
	}
	for i, src := range srcs {
		tab[int(src)*c+i]++
	}
	for v := 0; v < n; v++ {
		xr := x[v*W : v*W+W : v*W+W]
		in.inject(xr[:Q], v, c, ts, tab)
		for j, nc := range ncols {
			for i := 0; nc != nil && i < c; i++ {
				xr[i*q+j] *= nc[v]
			}
		}
	}
	clear(mass)
	for i := range st {
		st[i].alphaH *= p.Alpha
	}
	for v := 0; v < n; v++ {
		for i := range st {
			fold(v, i, x[v*W:v*W+W:v*W+W], ab)
		}
	}
	for col := range active {
		active[col] = true
	}

	// Pass 3: β-gather hops x ← β·Pᵀx, folded into σ and topo, for as
	// long as any column adds.
	y := front
	hops3 := 0
	for settle(x) {
		if hops3 == p.MaxDepth {
			return nil
		}
		hops3++
		clear(mass)
		for i := range st {
			if st[i].live {
				st[i].alphaH *= p.Alpha
				st[i].last = hops3
			}
		}
		for v := 0; v < n; v++ {
			row := y[v*W : v*W+W : v*W+W]
			gather(row, x, from[off[v]:off[v+1]], W)
			for i := range st {
				if st[i].live {
					fold(v, i, row, beta)
				}
			}
		}
		x, y = y, x
	}

	out := make([]Exploration, c)
	for i := range st {
		scored := len(st[i].reached)
		if st[i].srcRow {
			scored++
		}
		out[i] = Exploration{
			Src: srcs[i], Topics: ts, k: q,
			Iterations: st[i].hops1 + 1 + st[i].last,
			Converged:  true,
			rows:       rows, off: i * B, stride: S, tot: 1,
			dScored: scored,
			Reached: st[i].reached,
		}
	}
	return out
}

// factSources returns c zeroed source states, keeping the capacity of
// their reached lists from earlier explorations.
func (s *Scratch) factSources(c int) []factSource {
	for len(s.fsrc) < c {
		s.fsrc = append(s.fsrc, factSource{})
	}
	st := s.fsrc[:c]
	for i := range st {
		st[i] = factSource{reached: st[i].reached[:0]}
	}
	return st
}

// inject sets xr, v's σ columns (q per source, source by source), to
// Σ_{w→v} topo_αβ(src, w)·decay(w→v)·maxsim(label, t) for every source
// and topic, with tab the flat pass-1 topo_αβ totals, c per node, the
// empty path at each source already added; the caller scales them by
// αβ·num(v, t). Every column sums in edge order the same products, so
// its sum does not depend on the sources and topics beside it.
func (in *InAdjacency) inject(xr []float64, v int, c int, ts []topics.ID, tab []float64) {
	q, k := len(ts), len(in.all)
	lo, hi := in.off[v], in.off[v+1]
	clear(xr)
	if q == 1 { // one multiply-add per edge and source, no branch
		t := int(ts[0])
		for e := lo; e < hi; e++ {
			cw := tab[int(in.src[e])*c : int(in.src[e])*c+c]
			sig := xr[:len(cw)]
			st := in.simTab[int(in.sim[e])+t]
			if in.wt != nil {
				wt := float64(in.wt[e])
				for i, a := range cw {
					sig[i] += (a * wt) * st
				}
				continue
			}
			for i, a := range cw {
				sig[i] += a * st
			}
		}
		return
	}
	for i := 0; i < c; i++ {
		sig := xr[i*q : i*q+q : i*q+q]
		for e := lo; e < hi; e++ {
			a := tab[int(in.src[e])*c+i]
			if a == 0 {
				continue
			}
			if in.wt != nil {
				a *= float64(in.wt[e])
			}
			so := int(in.sim[e])
			if q == k { // the identity topic list
				sr := in.simTab[so : so+len(sig) : so+len(sig)]
				for j := range sig {
					sig[j] += a * sr[j]
				}
				continue
			}
			for j, t := range ts {
				sig[j] += a * in.simTab[so+int(t)]
			}
		}
	}
}

// gather sets row to the sum of the source rows x[w·stride:][:len(row)]
// over ws, folding four sources per sweep over row: the row is loaded
// and stored once per four edges instead of once per edge. The grouping
// is fixed by ws's order and never by the row's width, so each column's
// sum is the same at every width.
func gather(row, x []float64, ws []graph.NodeID, stride int) {
	k := len(row)
	i := 0
	if k == 1 { // the same sums, in a register
		var b float64
		for ; i+4 <= len(ws); i += 4 {
			b += (x[int(ws[i])*stride] + x[int(ws[i+1])*stride]) + (x[int(ws[i+2])*stride] + x[int(ws[i+3])*stride])
		}
		for ; i < len(ws); i++ {
			b += x[int(ws[i])*stride]
		}
		row[0] = b
		return
	}
	clear(row)
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
