package core

import (
	"repro/internal/graph"
	"repro/internal/topics"
)

// Mode selects the frontier representation of an exploration.
type Mode int

const (
	// AutoMode picks DenseMode for deep explorations (which tend to touch
	// most of the graph) and MapMode for shallow ones.
	AutoMode Mode = iota
	// MapMode keeps per-hop deltas in hash maps: cheap for small
	// frontiers, allocation-heavy for graph-wide ones.
	MapMode
	// DenseMode keeps per-hop deltas in preallocated arrays indexed by
	// node id plus an explicit frontier list: the preprocessing fast
	// path.
	DenseMode
)

// Scratch holds the dense buffers of one in-flight exploration so repeated
// calls (landmark preprocessing, evaluation sweeps) do not reallocate.
// A Scratch may be reused across calls but not shared concurrently.
type Scratch struct {
	n, k int

	// cur and next hold the per-hop deltas interleaved per node with
	// stride k+2: σ for each of the k topics, then topo_β, then topo_βα.
	// One node's whole row lives on (at most two) cache lines, so the
	// edge relaxation takes one memory touch per target instead of three
	// — the propagation is bandwidth-bound, and the σ/topo values of a
	// target are always written together.
	cur, next         []float64 // n × (k+2)
	inCur, inNext     []bool
	curList, nextList []graph.NodeID
	perTopic          []float64   // per-hop topic-mass accumulator, len k
	acols             [][]float64 // per-query authority columns, len k

	// Result arrays for ExploreOptions.DenseResult: accumulated scores
	// land here instead of in per-Exploration maps. resList records the
	// touched nodes so the next exploration resets in O(touched); resK is
	// the topic width of the rows to reset. Allocated on first use.
	resSigma            []float64 // n × k, stride k
	resTopoB, resTopoAB []float64
	resIn               []bool
	resList             []graph.NodeID
	resK                int
}

// resetResult prepares the result arrays for a fresh exploration of topic
// width k: lazily allocates them and zeroes only the entries the previous
// exploration touched.
func (s *Scratch) resetResult(k int) {
	if s.resSigma == nil {
		s.resSigma = make([]float64, s.n*s.k)
		s.resTopoB = make([]float64, s.n)
		s.resTopoAB = make([]float64, s.n)
		s.resIn = make([]bool, s.n)
	}
	for _, v := range s.resList {
		base := int(v) * s.k
		for ti := 0; ti < s.resK; ti++ {
			s.resSigma[base+ti] = 0
		}
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
		perTopic: make([]float64, k),
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

// exploreDense is the array-backed propagation; semantics identical to the
// map-based loop in ExploreOpts.
func (e *Engine) exploreDense(src graph.NodeID, ts []topics.ID, maxDepth int, opts ExploreOptions) *Exploration {
	stop, s := opts.Stop, opts.Scratch
	k := len(ts)
	n := e.g.NumNodes()
	if !s.fits(n, k) {
		s = NewScratch(e)
	}
	x := &Exploration{
		Src:    src,
		Topics: ts,
		k:      k,
	}
	if opts.DenseResult {
		// Scores accumulate straight into the scratch's flat result
		// arrays; the Exploration aliases them, so it is only valid until
		// this scratch's next exploration.
		s.resetResult(k)
		x.dSigma = s.resSigma
		x.dTopoB = s.resTopoB
		x.dTopoAB = s.resTopoAB
		x.dIn = s.resIn
		x.dk = s.k
	} else {
		x.sigma = make(map[graph.NodeID][]float64)
		x.topoB = make(map[graph.NodeID]float64)
		x.topoAB = make(map[graph.NodeID]float64)
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

	// Row layout of the interleaved hop arrays: σ occupies the first k
	// slots of a node's row, topo_β and topo_βα the two slots after the
	// scratch's full topic width (a scratch sized for s.k topics serving a
	// narrower query leaves slots k..s.k-1 untouched).
	stride := s.k + 2
	bOff, abOff := s.k, s.k+1

	// Seed the frontier with the source.
	s.curList = s.curList[:0]
	s.nextList = s.nextList[:0]
	s.curList = append(s.curList, src)
	s.inCur[src] = true
	base := int(src) * stride
	for ti := 0; ti < k; ti++ {
		s.cur[base+ti] = 0
	}
	s.cur[base+bOff] = 1
	s.cur[base+abOff] = 1

	clearCur := func() {
		for _, u := range s.curList {
			s.inCur[u] = false
		}
		s.curList = s.curList[:0]
	}
	defer clearCur() // leave the scratch clean for the next call

	rows := rowArena{k: k} // result rows, referenced by x.sigma

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
					for ti := 0; ti < k; ti++ {
						s.next[vBase+ti] = 0
					}
					s.next[vBase+bOff] = 0
					s.next[vBase+abOff] = 0
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

		// Accumulate the hop and test convergence (Algorithm 1 l. 15).
		var topoMass float64
		perTopic := s.perTopic[:k]
		for i := range perTopic {
			perTopic[i] = 0
		}
		if opts.DenseResult {
			for _, v := range s.nextList {
				vBase := int(v) * stride
				rBase := int(v) * s.k
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
		} else {
			for _, v := range s.nextList {
				vBase := int(v) * stride
				row, ok := x.sigma[v]
				if !ok {
					row = rows.newRow()
					x.sigma[v] = row
					if v != src {
						x.Reached = append(x.Reached, v)
					}
				}
				for ti := 0; ti < k; ti++ {
					d := s.next[vBase+ti]
					row[ti] += d
					perTopic[ti] += d
				}
				x.topoB[v] += s.next[vBase+bOff]
				x.topoAB[v] += s.next[vBase+abOff]
				topoMass += s.next[vBase+bOff]
			}
		}
		x.Iterations = depth
		denom := float64(x.scored())
		if denom == 0 {
			denom = 1
		}
		maxTopicMass := 0.0
		for _, m := range perTopic {
			if m/denom > maxTopicMass {
				maxTopicMass = m / denom
			}
		}
		converged := maxTopicMass < e.params.Tol && topoMass/denom < e.params.Tol

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
