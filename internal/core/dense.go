package core

import (
	"repro/internal/graph"
	"repro/internal/topics"
)

// Scratch holds the dense buffers of one in-flight exploration so repeated
// calls (landmark preprocessing, serving loops) do not reallocate. It is
// sized for n nodes and up to k topics; every call lays its rows out at its
// own topic width, so a full-vocabulary scratch serves a one-topic query as
// compactly as a one-topic scratch would. A Scratch may be reused across
// calls but not shared concurrently.
type Scratch struct {
	n, k int

	// cur and next hold the per-hop deltas interleaved per node with
	// stride kq+2 for a call of kq topics: σ for each topic, then topo_β,
	// then topo_βα. One node's whole row lives on (at most two) cache
	// lines, so the edge relaxation takes one memory touch per target
	// instead of three — the propagation is bandwidth-bound, and the σ/topo
	// values of a target are always written together.
	cur, next         []float64 // n × (k+2)
	inCur, inNext     []bool
	curList, nextList []graph.NodeID
	perTopic          []float64   // per-hop topic-mass accumulator, len k
	acols             [][]float64 // per-query authority columns, len k

	// Result arrays: accumulated scores, σ at stride kq. resList records
	// the touched nodes so the next exploration resets in O(touched); resK
	// is the row width the last exploration wrote.
	resSigma            []float64 // n × k
	resTopoB, resTopoAB []float64
	resIn               []bool
	resList             []graph.NodeID
	resK                int

	// fold is the node-indexed sum of landmark folds, allocated on first
	// use so scratches that only explore never pay for it.
	fold Fold
}

// Fold is a node-indexed dense sum with a first-touch list: the buffer
// landmark queries and shard partials fold list entries into. Every
// added term must be positive, so a node's sum is non-zero exactly when
// the node has been touched; Touched then lists each node once, in
// first-touch order, and a reset costs O(touched). A Fold borrowed
// through Scratch.Fold is all-zero; ScratchPool.Put clears it before the
// scratch goes back.
type Fold struct {
	val     []float64
	touched []graph.NodeID
}

// Add adds d (> 0) to v's sum.
func (f *Fold) Add(v graph.NodeID, d float64) {
	p := &f.val[v]
	if *p == 0 {
		f.touched = append(f.touched, v)
	}
	*p += d
}

// At returns v's sum (0 for an untouched node).
func (f *Fold) At(v graph.NodeID) float64 { return f.val[v] }

// Touched returns the nodes holding a sum, in first-touch order. The
// slice is valid until the fold's next Add or reset.
func (f *Fold) Touched() []graph.NodeID { return f.touched }

// reset zeroes the touched entries.
func (f *Fold) reset() {
	for _, v := range f.touched {
		f.val[v] = 0
	}
	f.touched = f.touched[:0]
}

// Fold returns the scratch's fold buffer, sized for its n nodes.
func (s *Scratch) Fold() *Fold {
	if s.fold.val == nil {
		s.fold.val = make([]float64, s.n)
	}
	return &s.fold
}

// resetResult prepares the result arrays for a fresh exploration of topic
// width k, zeroing only the rows the previous exploration touched, at the
// width it wrote them.
func (s *Scratch) resetResult(k int) {
	for _, v := range s.resList {
		base := int(v) * s.resK
		clear(s.resSigma[base : base+s.resK])
		s.resTopoB[v] = 0
		s.resTopoAB[v] = 0
		s.resIn[v] = false
	}
	s.resList = s.resList[:0]
	s.resK = k
}

// NewScratch sizes a scratch for the engine's graph and full vocabulary.
func NewScratch(e *Engine) *Scratch {
	return newScratchDims(e.g.NumNodes(), e.g.Vocabulary().Len())
}

// newScratchDims sizes a scratch for an n-node graph and k topics.
func newScratchDims(n, k int) *Scratch {
	return &Scratch{
		n: n, k: k,
		cur: make([]float64, n*(k+2)), next: make([]float64, n*(k+2)),
		inCur: make([]bool, n), inNext: make([]bool, n),
		perTopic:  make([]float64, k),
		resSigma:  make([]float64, n*k),
		resTopoB:  make([]float64, n),
		resTopoAB: make([]float64, n),
		resIn:     make([]bool, n),
	}
}

// fits reports whether the scratch matches the requested dimensions.
func (s *Scratch) fits(n, k int) bool { return s != nil && s.n == n && s.k >= k }

// frontierOutBound sums the frontier's out-degrees, capped at n (a
// frontier can never exceed the node count). Degrees are O(1) reads off
// the CSR prefix-sum array, so the bound costs O(frontier) per hop.
func frontierOutBound(v graph.View, frontier []graph.NodeID, n int) int {
	need := 0
	for _, w := range frontier {
		need += v.OutDegree(w)
		if need >= n {
			return n
		}
	}
	return need
}

// cancelCheckStride bounds how many frontier expansions run between
// context checks inside one hop: deep hops over large graphs can take
// seconds, so a per-hop check alone would make cancellation too coarse.
const cancelCheckStride = 4096

// exploreDense is the hop recurrence of ExploreOpts over s's arrays: the
// per-hop deltas live in the interleaved hop rows with an explicit
// frontier list, and the scores accumulate into s's result arrays, which
// the returned Exploration aliases. Each node's sums follow hop order and,
// within a hop, the frontier's first-touch order.
func (e *Engine) exploreDense(src graph.NodeID, ts []topics.ID, maxDepth int, opts ExploreOptions, s *Scratch) *Exploration {
	stop := opts.Stop
	k := len(ts)
	n := e.g.NumNodes()
	s.resetResult(k)
	x := &Exploration{
		Src:     src,
		Topics:  ts,
		k:       k,
		dSigma:  s.resSigma,
		dTopoB:  s.resTopoB,
		dTopoAB: s.resTopoAB,
		dIn:     s.resIn,
	}

	beta, alpha := e.params.Beta, e.params.Alpha
	ab := alpha * beta

	// Authority is read per edge target for the query's fixed topics, so
	// hoist the per-topic columns: random accesses then hit one
	// n-float column each instead of striding through the n×T row-major
	// table (a miss per edge at serving sizes). A nil column is the
	// unit-authority variant; sr[t]*1 is bit-identical to sr[t], so the
	// two paths score identically.
	acols := s.acols[:0]
	for _, t := range ts {
		acols = append(acols, e.authCol(t))
	}
	s.acols = acols

	// Row layout of the interleaved hop arrays at this call's width: σ
	// occupies the first k slots of a node's row, topo_β and topo_βα the
	// two after it.
	stride := k + 2
	bOff, abOff := k, k+1

	// Seed the frontier with the source.
	s.curList = s.curList[:0]
	s.nextList = s.nextList[:0]
	s.curList = append(s.curList, src)
	s.inCur[src] = true
	base := int(src) * stride
	clear(s.cur[base : base+k])
	s.cur[base+bOff] = 1
	s.cur[base+abOff] = 1

	clearCur := func() {
		for _, u := range s.curList {
			s.inCur[u] = false
		}
		s.curList = s.curList[:0]
	}
	defer clearCur() // leave the scratch clean for the next call

	peakFrontier := 1
	for depth := 1; depth <= maxDepth && len(s.curList) > 0; depth++ {
		if ctxDone(opts.Ctx) {
			x.Cancelled = true
			break
		}
		s.nextList = s.nextList[:0]
		// Pre-size the next frontier from the CSR degree prefix sums: the
		// frontier's total out-degree is an exact upper bound on the nodes
		// one hop can reach, so growth never reallocates mid-hop.
		if need := frontierOutBound(e.g, s.curList, n); cap(s.nextList) < need {
			s.nextList = make([]graph.NodeID, 0, need)
		}
		expanded := 0
		for _, w := range s.curList {
			if opts.Ctx != nil {
				if expanded++; expanded%cancelCheckStride == 0 && ctxDone(opts.Ctx) {
					x.Cancelled = true
					break
				}
			}
			if stop != nil && w != src && stop(w) {
				continue
			}
			wBase := int(w) * stride
			wTopoAB := s.cur[wBase+abOff]
			wTopoB := s.cur[wBase+bOff]
			dsts, lbls := e.g.Out(w)
			wrow := e.outWeights(w)
			for i, v := range dsts {
				vBase := int(v) * stride
				if !s.inNext[v] {
					s.inNext[v] = true
					s.nextList = append(s.nextList, v)
					clear(s.next[vBase : vBase+stride])
				}
				sr := e.simRow(lbls[i])
				// Decay weight of this edge: scales the topical unit, not
				// the topo recurrences (see Engine.wts).
				ew := 1.0
				if wrow != nil {
					ew = float64(wrow[i])
				}
				for ti, t := range ts {
					unit := sr[t] * ew
					if ac := acols[ti]; ac != nil {
						unit *= ac[v]
					}
					s.next[vBase+ti] += beta*s.cur[wBase+ti] + wTopoAB*(ab*unit)
				}
				s.next[vBase+abOff] += ab * wTopoAB
				s.next[vBase+bOff] += beta * wTopoB
			}
		}
		if x.Cancelled {
			// The hop was abandoned midway: its partial deltas are not
			// accumulated, and the next-frontier marks must be wiped so
			// the scratch stays clean for reuse.
			for _, u := range s.nextList {
				s.inNext[u] = false
			}
			s.nextList = s.nextList[:0]
			break
		}
		if len(s.nextList) > peakFrontier {
			peakFrontier = len(s.nextList)
		}

		// Accumulate the hop and test convergence: average new per-topic
		// mass per reached node under Tol (Algorithm 1 l. 15), with the
		// topological mass as an additional guard for the TopoOnly variant
		// whose σ mass equals it anyway.
		var topoMass float64
		perTopic := s.perTopic[:k]
		clear(perTopic)
		for _, v := range s.nextList {
			vBase := int(v) * stride
			rBase := int(v) * k
			if !s.resIn[v] {
				s.resIn[v] = true
				s.resList = append(s.resList, v)
				if v != src {
					x.Reached = append(x.Reached, v)
				}
			}
			for ti := 0; ti < k; ti++ {
				d := s.next[vBase+ti]
				s.resSigma[rBase+ti] += d
				perTopic[ti] += d
			}
			s.resTopoB[v] += s.next[vBase+bOff]
			s.resTopoAB[v] += s.next[vBase+abOff]
			topoMass += s.next[vBase+bOff]
		}
		x.dScored = len(s.resList)
		x.Iterations = depth
		denom := float64(max(1, x.dScored))
		converged := maxOf(perTopic)/denom < e.params.Tol && topoMass/denom < e.params.Tol

		// Swap frontiers.
		clearCur()
		s.curList, s.nextList = s.nextList, s.curList
		s.cur, s.next = s.next, s.cur
		s.inCur, s.inNext = s.inNext, s.inCur

		if converged {
			x.Converged = true
			break
		}
	}
	exploreMetrics(opts.Metrics, x, peakFrontier)
	return x
}
