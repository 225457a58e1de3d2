package core

import (
	"math"
	"slices"

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

	// rows holds one row per node at the call's topic width q. A hop
	// recurrence's row holds the hop deltas (σ for each topic, topo_β,
	// topo_βα), a mark at q+2 and the running totals in the deltas' order
	// from q+3, padded to whole cache lines where the scratch has room.
	// The mark is 0 until a hop touches the node, then ±h for the last
	// hop h that touched it, negative once the node is reached (a hop's
	// deltas were summed into its totals). Relaxing an edge touches the
	// target's deltas and mark only, which sit together; summing a hop
	// reads a row once. The factored form keeps only a mark and the
	// totals per source, stride c·(q+3) for c sources, and uses the rest
	// as a pass buffer.
	rows []float64 // n × rowFloats(k)
	// front holds the expanding frontier's deltas in frontier order, q+2
	// per node, so a hop reads its sources sequentially and writes only
	// target rows. It grows on demand to the largest frontier expanded;
	// the factored form uses it as its second pass buffer.
	front             []float64
	curList, nextList []graph.NodeID
	perTopic          []float64    // per-hop column-mass accumulator, len k+1
	cols              []bool       // the factored form's live columns, len k+1
	fsrc              []factSource // the factored form's per-source state
	sims              []float64    // one edge's similarity factors, len k
	ncols             [][]float64  // per-call num columns (Engine.authCols), len k
	norms             []float64    // per-call g(t) (Engine.authCols), len k

	// reached lists the nodes holding a row other than src, the last
	// exploration's source, in first-reach order; the Exploration's
	// Reached aliases it. stride is the row width that exploration wrote
	// and lo the offset in each row from which it left floats non-zero, so
	// the next one clears exactly those.
	// A factored exploration keeps its reached lists per source and sets
	// whole instead: the next reset clears rows[:whole].
	reached    []graph.NodeID
	src        graph.NodeID
	stride, lo int
	whole      int

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

// AddList adds a·topo[i] + b·sigma[i] to the sum of nodes[i] for every
// entry but skip's, skipping zero terms: Proposition 4's fold of one
// landmark list. topo and sigma must be at least as long as nodes, a and
// b non-negative, and skip must hold no sum. The list columns are
// float32 (landmark.List); each value is widened to float64 before the
// multiply, so the term and the sum are float64. The loop takes no
// branch per entry: skip's term is zeroed, every term is added (a zero
// leaves a sum bit-identical), and the entry's node is written past the
// touched list, which keeps it only when a non-zero term lands on a zero
// sum.
func (f *Fold) AddList(nodes []graph.NodeID, topo, sigma []float32, a, b float64, skip graph.NodeID) {
	topo, sigma = topo[:len(nodes)], sigma[:len(nodes)]
	f.touched = slices.Grow(f.touched, len(nodes))
	val, touched, m := f.val, f.touched[:cap(f.touched)], len(f.touched)
	for i, w := range nodes {
		d := a*float64(topo[i]) + b*float64(sigma[i])
		if w == skip {
			d = 0
		}
		p := &val[w]
		old := *p
		*p = old + d
		touched[m] = w
		first := 0
		if old == 0 {
			first = 1
		}
		if d == 0 {
			first = 0
		}
		m += first
	}
	f.touched = touched[:m]
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

// reset prepares the rows for an exploration from src with rows of
// stride w, of which the call may leave non-zero the floats from offset
// lo on. It zeroes those of the previous call's reached rows and source
// row, at the stride it wrote them, with plain stores: a clear call per
// row would cost more than the row, or, after a factored exploration,
// its whole result rows. Every other row is all-zero already.
func (s *Scratch) reset(src graph.NodeID, lo, w int) {
	if s.whole > 0 {
		clear(s.rows[:s.whole])
		s.whole = 0
	}
	if s.stride > 0 {
		zero := func(v graph.NodeID) {
			r := s.rows[int(v)*s.stride+s.lo : int(v)*s.stride+s.stride]
			for i := 0; i < len(r); i++ {
				r[i] = 0
			}
		}
		zero(s.src)
		for _, v := range s.reached {
			zero(v)
		}
	}
	s.reached = s.reached[:0]
	s.src, s.lo, s.stride = src, lo, w
}

// frontBuf returns the front buffer grown to at least m entries. It
// doubles up to the n×(k+2) a whole-graph frontier takes, so a converged
// exploration reallocates a few times on a fresh scratch and never after.
func (s *Scratch) frontBuf(m int) []float64 {
	if cap(s.front) < m {
		s.front = make([]float64, max(m, min(2*cap(s.front), s.n*(s.k+2))))
	}
	return s.front[:cap(s.front)]
}

// rowFloats is the floats per node a scratch's rows hold for k topics:
// the widest hop-recurrence row (2k+5) plus one, so that a factored
// exploration of 7 sources over one topic of the 18-topic taxonomy keeps
// its result rows and a pass buffer there (InAdjacency.MaxSources).
func rowFloats(k int) int { return 2*k + 6 }

// NewScratch sizes a scratch for the engine's graph and full vocabulary.
func NewScratch(e *Engine) *Scratch {
	return newScratchDims(e.g.NumNodes(), e.g.Vocabulary().Len())
}

// newScratchDims sizes a scratch for an n-node graph and k topics.
func newScratchDims(n, k int) *Scratch {
	return &Scratch{
		n: n, k: k,
		rows:     make([]float64, n*rowFloats(k)),
		perTopic: make([]float64, k+1),
		cols:     make([]bool, k+1),
		sims:     make([]float64, k),
		ncols:    make([][]float64, 0, k),
		norms:    make([]float64, 0, k),
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

// exploreDense is the hop recurrence of ExploreOpts over s's rows: each
// hop reads the frontier's deltas from s's front buffer in frontier order
// and sums the next hop's deltas into the target rows, which then fold
// them into their totals; the returned Exploration aliases the rows. Each
// node's sums follow hop order and, within a hop, the frontier's
// first-touch order.
func (e *Engine) exploreDense(src graph.NodeID, ts []topics.ID, maxDepth int, opts ExploreOptions, s *Scratch) *Exploration {
	stop := opts.Stop
	k := len(ts)
	n := e.g.NumNodes()
	fw := k + 2         // deltas per node
	mk, tot := fw, fw+1 // offsets of the mark and the totals
	// A row spans 2k+5 floats, padded to whole 64-byte lines where the
	// scratch has room: a one-topic row is then one line.
	stride := min((2*k+5+7)&^7, 2*s.k+5)
	s.reset(src, mk, stride)
	rows := s.rows
	x := &Exploration{Src: src, Topics: ts, k: k, rows: rows, stride: stride, tot: tot}

	beta, alpha := e.params.Beta, e.params.Alpha
	ab := alpha * beta

	// Authority is read per edge target for the query's fixed topics, so
	// hoist the per-topic num columns: random accesses then hit one
	// n-float column each. A nil column is the unit-authority variant;
	// sf*1 is bit-identical to sf, so the two paths score identically.
	ncols, norms := e.authCols(s, ts)
	simTab, sims := e.simTab, s.sims[:k]

	// Seed the frontier with the source: σ 0, topo_β and topo_βα 1.
	front := s.frontBuf(fw)
	clear(front[:k])
	front[k], front[k+1] = 1, 1
	s.curList = append(s.curList[:0], src)
	s.nextList = s.nextList[:0]

	scored := 0 // nodes holding a row, including a revisited src
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
		fd := float64(depth)
		expanded := 0
		for i, w := range s.curList {
			if opts.Ctx != nil {
				if expanded++; expanded%cancelCheckStride == 0 && ctxDone(opts.Ctx) {
					x.Cancelled = true
					break
				}
			}
			if stop != nil && w != src && stop(w) {
				continue
			}
			wd := front[i*fw : i*fw+fw : i*fw+fw]
			wTopoB, wTopoAB := wd[k], wd[k+1]
			dsts, lbls := e.g.Out(w)
			wrow := e.outWeights(w)
			for j, v := range dsts {
				vb := int(v) * stride
				row := rows[vb : vb+fw+1 : vb+fw+1] // deltas, then the mark
				if m := row[mk]; math.Abs(m) != fd {
					// First touch this hop. A hop starts with every mark
					// 0 or negative, and the sign carries over.
					row[mk] = math.Copysign(fd, m)
					s.nextList = append(s.nextList, v)
				}
				// Decay weight of this edge: scales the topical unit, not
				// the topo recurrences (see Engine.wts).
				ew := 1.0
				if wrow != nil {
					ew = float64(wrow[j])
				}
				simTab.MaxSims(sims, lbls[j], ts)
				d, sf := row[:k:k], sims
				for ti := range d {
					unit := sf[ti] * ew
					if nc := ncols[ti]; nc != nil {
						unit *= nc[v]
					}
					d[ti] += beta*wd[ti] + wTopoAB*(ab*unit)
				}
				row[k+1] += ab * wTopoAB
				row[k] += beta * wTopoB
			}
		}
		if x.Cancelled {
			// The hop was abandoned midway: its partial deltas are not
			// accumulated, and its marks are undone, so the rows stay
			// clean for reuse.
			for _, v := range s.nextList {
				row := rows[int(v)*stride:]
				clear(row[:fw])
				if row[mk] > 0 {
					row[mk] = 0
				}
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
		// whose σ mass equals it anyway. The deltas move to the front
		// buffer, in nextList order, for the next hop to expand.
		var topoMass float64
		perTopic := s.perTopic[:k]
		clear(perTopic)
		front = s.frontBuf(len(s.nextList) * fw)
		for i, v := range s.nextList {
			row := rows[int(v)*stride : int(v)*stride+stride : int(v)*stride+stride]
			if row[mk] > 0 {
				row[mk] = -fd
				scored++
				if v != src {
					s.reached = append(s.reached, v)
				}
			}
			d, r := row[:fw:fw], row[tot:tot+fw:tot+fw]
			for ti := 0; ti < k; ti++ {
				r[ti] += d[ti]
				perTopic[ti] += d[ti]
			}
			r[k] += d[k]
			r[k+1] += d[k+1]
			topoMass += d[k]
			copy(front[i*fw:i*fw+fw], d)
			clear(d)
		}
		x.Iterations = depth
		for ti, g := range norms { // Tol bounds the paper's σ = g(t)·σ/g(t)
			perTopic[ti] *= g
		}
		denom := float64(max(1, scored))
		converged := maxOf(perTopic)/denom < e.params.Tol && topoMass/denom < e.params.Tol

		s.curList, s.nextList = s.nextList, s.curList
		if converged {
			x.Converged = true
			break
		}
	}
	x.Reached, x.dScored = s.reached, scored
	exploreMetrics(opts.Metrics, x, peakFrontier)
	return x
}
