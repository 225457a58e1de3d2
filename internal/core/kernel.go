package core

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/topics"
)

// Cache-topology-aware exploration kernel. The seed dense mode
// (dense.go) is exact float64 and keeps node ids in API order, so deep
// frontier expansions stride randomly through the CSR and through six
// n×k score arrays, and every edge pays a hash lookup for its label's
// similarity row. This kernel trades bit-exactness for locality:
//
//   - the engine's out-adjacency is re-materialized under a degree- or
//     BFS-ordered Permutation, so the hub rows every frontier keeps
//     revisiting share a few cache lines;
//   - per-hop accumulators are float32 — half the memory traffic of the
//     float64 arrays — held in L2-sized tiles that are allocated lazily
//     and recycled, so a shallow exploration touches only the tiles its
//     frontier lives in instead of zeroing n×k floats;
//   - the per-edge topical factors are flattened at Optimized time: each
//     CSR out-edge carries an index into a packed float32 table of
//     similarity rows, and the authority matrix is a permuted flat
//     float32 array, so the per-edge multiply-accumulate runs entirely
//     in 4-byte lanes with no hashing;
//   - per-node score totals live in a third tile set and are spilled
//     once at the end — into the Exploration's result maps, or under
//     ExploreOptions.DenseResult into the scratch's flat result arrays —
//     instead of three map operations per reached node per hop.
//
// Scores are approximate-ranked downstream (top-n lists, landmark
// merges), so the contract is ordering preservation, not bit equality:
// kernel_test.go proves top-n agreement against the exact modes and a
// Kendall-tau distance ≤ 1e-3 (tau ≥ 0.999) between float32 and float64
// rankings. The permutation is invisible outside the kernel — src, Stop
// callbacks and every Exploration result use external NodeIDs.
//
// The kernel serves the explorations of an Optimized engine. Landmark
// preprocessing no longer runs it by default: a converged all-topic
// exploration is cheaper in the factored form of converged.go, and the
// kernel's hop recurrence remains its fallback when that form does not
// converge within MaxDepth.

// layout is the optimized-kernel state attached to an engine by
// Optimized: the relabeled out-adjacency plus flattened float32 factor
// tables in internal numbering. A layout is immutable and shared by
// engines copied from the same Optimized call.
type layout struct {
	order graph.Order
	perm  graph.Permutation
	n     int // node count
	T     int // vocabulary size (row stride)

	// outOff/outDst are the relabeled out-adjacency as a flat CSR: the
	// followees of internal node w, ascending, sit at
	// outDst[outOff[w]:outOff[w+1]]. The kernel needs no labels (folded
	// into simIdx) and no in-adjacency.
	outOff []uint32
	outDst []graph.NodeID
	// simTab is the packed table of per-label similarity rows (stride T,
	// row 0 all ones); simIdx maps each out-edge position to its label's
	// row offset. Variants without similarity leave every index at row 0.
	simTab []float32
	simIdx []uint32
	// auth32 is the authority matrix in internal node order (stride
	// authStride). Variants without authority point it at the ones row
	// with stride 0, broadcasting 1 for every node.
	auth32     []float32
	authStride int
	// wTab, when non-nil, is the per-edge decay weight for each out-edge
	// position (same indexing as simIdx): the engine's EdgeWeighter
	// folded into the flat factor tables at Optimized time, so weighted
	// kernel explorations pay one extra 4-byte load per edge and no
	// lookup.
	wTab []float32
}

// Optimized returns a copy of the engine whose AutoMode (and KernelMode)
// explorations run the cache-topology-aware kernel: the out-adjacency is
// relabeled under the given order and the topical factors are flattened
// into float32 tables. The engine's API is unchanged — Graph(), Stop
// callbacks and all Exploration results stay in external NodeIDs — but
// scores are float32-accumulated, so rankings are ordering-equivalent
// rather than bit-identical to the seed engine (see kernel_test.go for
// the bounds). Explicit MapMode/DenseMode requests still run the exact
// float64 paths.
//
// The layout is a pure function of the view's edge set, the engine's
// weights and the order: an overlay stack and its compacted rebuild
// relabel identically. Engines later derived from this engine over a new
// view drop the layout (the relabeling no longer matches the view) and
// fall back to the exact modes until re-optimized. The build is one pass
// over the edges. Landmark preprocessing explores in factored form
// (InAdjacency) and needs a layout only for an exploration whose factored
// form does not converge.
func (e *Engine) Optimized(order graph.Order) *Engine {
	perm := graph.NewPermutation(order, e.g)
	n, m := e.g.NumNodes(), e.g.NumEdges()
	T := e.g.Vocabulary().Len()
	lay := &layout{order: order, perm: perm, n: n, T: T}

	// Flatten the similarity factors: one packed row per distinct edge
	// label, addressed per edge, with row 0 = ones for variants (or
	// labels) without a similarity factor.
	lay.simTab = make([]float32, T, (1+min(64, n))*T)
	for i := range lay.simTab {
		lay.simTab[i] = 1
	}
	lay.outOff = make([]uint32, n+1)
	lay.outDst = make([]graph.NodeID, m)
	lay.simIdx = make([]uint32, m)
	if e.wts != nil {
		lay.wTab = make([]float32, m)
	}
	labelOff := make(map[topics.Set]uint32)

	// Rows are emitted in internal order; each is re-sorted by internal
	// destination with its label row and weight travelling along.
	type edge struct {
		dst graph.NodeID
		sim uint32
		w   float32
	}
	var row []edge
	pos := 0
	for in := 0; in < n; in++ {
		ext := perm.Back(graph.NodeID(in))
		dsts, lbls := e.g.Out(ext)
		wrow := e.outWeights(ext)
		row = row[:0]
		for i, d := range dsts {
			ed := edge{dst: perm.Apply(d), w: 1}
			if e.simc != nil {
				off, ok := labelOff[lbls[i]]
				if !ok {
					off = uint32(len(lay.simTab))
					labelOff[lbls[i]] = off
					for _, v := range e.simc.row(lbls[i]) {
						lay.simTab = append(lay.simTab, float32(v))
					}
				}
				ed.sim = off
			}
			if wrow != nil {
				ed.w = wrow[i]
			}
			row = append(row, ed)
		}
		slices.SortFunc(row, func(a, b edge) int { return cmp.Compare(a.dst, b.dst) })
		for _, ed := range row {
			lay.outDst[pos] = ed.dst
			lay.simIdx[pos] = ed.sim
			if lay.wTab != nil {
				lay.wTab[pos] = ed.w
			}
			pos++
		}
		lay.outOff[in+1] = uint32(pos)
	}

	if e.auth != nil && (e.params.Variant == TrFull || e.params.Variant == TrNoSim) {
		lay.auth32 = make([]float32, n*T)
		lay.authStride = T
		for in := 0; in < n; in++ {
			row := e.auth.Row(perm.Back(graph.NodeID(in)))
			for t, v := range row {
				lay.auth32[in*T+t] = float32(v)
			}
		}
	} else {
		lay.auth32 = lay.simTab[:T] // the ones row, broadcast by stride 0
		lay.authStride = 0
	}

	ne := *e
	ne.layout = lay
	return &ne
}

// HasOptimizedLayout reports whether AutoMode explorations run the
// cache-aware kernel.
func (e *Engine) HasOptimizedLayout() bool { return e.layout != nil }

// LayoutOrder returns the relabeling order of the optimized layout, if
// one is attached.
func (e *Engine) LayoutOrder() (graph.Order, bool) {
	if e.layout == nil {
		return 0, false
	}
	return e.layout.order, true
}

// LayoutPermutation returns the external→internal permutation of the
// optimized layout, if one is attached.
func (e *Engine) LayoutPermutation() (graph.Permutation, bool) {
	if e.layout == nil {
		return graph.Permutation{}, false
	}
	return e.layout.perm, true
}

// kernelTileBytes bounds one tile's sigma block. Tiles come in pairs
// (current + next frontier) plus the totals tile, and the CSR rows and
// factor tables compete for the same cache, so a quarter of a typical
// 1–2 MB L2 keeps a hop's working set resident.
const kernelTileBytes = 256 << 10

// kernelTile holds one id-range's frontier state: float32 accumulator
// rows, membership flags and the members in insertion order. Rows are
// zeroed lazily when a node enters the frontier, so untouched tiles cost
// nothing.
type kernelTile struct {
	sigma  []float32 // tileNodes × kcap
	topoB  []float32 // tileNodes
	topoAB []float32
	in     []bool
	list   []graph.NodeID // internal ids, sorted at hop end
}

// kernelFrontier is one hop's frontier (or the exploration's running
// totals) as a sparse set of tiles.
type kernelFrontier struct {
	tiles   []*kernelTile // len numTiles; nil until touched
	touched []int         // indices of non-nil tiles, first-touch order
	size    int           // total nodes across tiles
}

// kernelScratch holds the tile pool and the frontiers of an in-flight
// kernel exploration; it rides inside Scratch so the existing
// ScratchPool plumbing (server, eval, dynamic) recycles it with no API
// change.
type kernelScratch struct {
	n, kcap   int
	tileNodes int
	shift     uint
	mask      graph.NodeID
	cur, next *kernelFrontier
	tot       *kernelFrontier // per-node totals, released at exploration end
	free      []*kernelTile
	perTopic  []float64
	bw        []float32 // β-scaled sigma row of the node being expanded
}

// newKernelScratch sizes tiles so one sigma block stays near
// kernelTileBytes for the scratch's topic capacity.
func newKernelScratch(n, kcap int) *kernelScratch {
	k := kcap
	if k < 1 {
		k = 1
	}
	tileNodes := 256
	for tileNodes*2*k*4 <= kernelTileBytes {
		tileNodes *= 2
	}
	shift := uint(0)
	for 1<<(shift+1) <= tileNodes {
		shift++
	}
	tileNodes = 1 << shift
	numTiles := (n + tileNodes - 1) / tileNodes
	if numTiles < 1 {
		numTiles = 1
	}
	return &kernelScratch{
		n: n, kcap: kcap,
		tileNodes: tileNodes, shift: shift, mask: graph.NodeID(tileNodes - 1),
		cur:      &kernelFrontier{tiles: make([]*kernelTile, numTiles)},
		next:     &kernelFrontier{tiles: make([]*kernelTile, numTiles)},
		tot:      &kernelFrontier{tiles: make([]*kernelTile, numTiles)},
		perTopic: make([]float64, kcap),
		bw:       make([]float32, kcap),
	}
}

// tile returns frontier f's tile ti, allocating or recycling on first
// touch.
func (s *kernelScratch) tile(f *kernelFrontier, ti int) *kernelTile {
	t := f.tiles[ti]
	if t == nil {
		if n := len(s.free); n > 0 {
			t, s.free = s.free[n-1], s.free[:n-1]
		} else {
			t = &kernelTile{
				sigma:  make([]float32, s.tileNodes*s.kcap),
				topoB:  make([]float32, s.tileNodes),
				topoAB: make([]float32, s.tileNodes),
				in:     make([]bool, s.tileNodes),
			}
		}
		f.tiles[ti] = t
		f.touched = append(f.touched, ti)
	}
	return t
}

// release returns every touched tile of f to the free list, clearing
// membership (values are re-zeroed on insertion).
func (s *kernelScratch) release(f *kernelFrontier) {
	for _, ti := range f.touched {
		t := f.tiles[ti]
		for _, u := range t.list {
			t.in[u&s.mask] = false
		}
		t.list = t.list[:0]
		f.tiles[ti] = nil
		s.free = append(s.free, t)
	}
	f.touched = f.touched[:0]
	f.size = 0
}

// sortFrontier orders f's tiles and each tile's members ascending, so
// subsequent passes walk the CSR and the accumulator arrays in address
// order.
func (s *kernelScratch) sortFrontier(f *kernelFrontier) {
	slices.Sort(f.touched)
	for _, ti := range f.touched {
		slices.Sort(f.tiles[ti].list)
	}
}

// kernel returns the Scratch's kernel sub-scratch, (re)building it when
// the dimensions changed.
func (s *Scratch) kernel(n int) *kernelScratch {
	if s.kern == nil || s.kern.n != n || s.kern.kcap != s.k {
		s.kern = newKernelScratch(n, s.k)
	}
	return s.kern
}

// exploreKernel is the cache-topology-aware propagation: semantics of
// exploreDense, float32 accumulation over the relabeled CSR. src, Stop
// and all results are external ids; everything between is internal.
func (e *Engine) exploreKernel(src graph.NodeID, ts []topics.ID, maxDepth int, opts ExploreOptions) *Exploration {
	lay := e.layout
	stop := opts.Stop
	k := len(ts)
	n := lay.n
	s := opts.Scratch
	if !s.fits(n, k) {
		s = NewScratch(e)
	}
	ks := s.kernel(n)
	kcap := ks.kcap
	shift, mask := ks.shift, ks.mask

	x := &Exploration{Src: src, Topics: ts, k: k}
	beta32, ab32 := float32(e.params.Beta), float32(e.params.Alpha*e.params.Beta)
	T := lay.T
	simTab, simIdx, outOff, outDst := lay.simTab, lay.simIdx, lay.outOff, lay.outDst
	wTab := lay.wTab
	authTab, astr := lay.auth32, lay.authStride
	// A nil topic request expands to the identity [0..T): the common
	// preprocessing shape, worth a branch-free inner loop.
	tsIdent := k == T
	for i, t := range ts {
		if int(t) != i {
			tsIdent = false
			break
		}
	}

	// Seed the frontier with the (internal) source.
	isrc := lay.perm.Apply(src)
	st := ks.tile(ks.cur, int(isrc>>shift))
	si := int(isrc & mask)
	for i := si * kcap; i < si*kcap+k; i++ {
		st.sigma[i] = 0
	}
	st.topoB[si], st.topoAB[si] = 1, 1
	st.in[si] = true
	st.list = append(st.list, isrc)
	ks.cur.size = 1

	// Leave the scratch clean for the next call. The frontier fields are
	// re-read at exit (not at defer time) because the hop loop swaps them.
	defer func() {
		ks.release(ks.cur)
		ks.release(ks.next)
		ks.release(ks.tot)
	}()

	peakFrontier := 1
	for depth := 1; depth <= maxDepth && ks.cur.size > 0; depth++ {
		if ctxDone(opts.Ctx) {
			x.Cancelled = true
			break
		}
		expanded := 0
		nextTiles := ks.next.tiles
		for _, cti := range ks.cur.touched {
			ct := ks.cur.tiles[cti]
			for _, w := range ct.list {
				if opts.Ctx != nil {
					if expanded++; expanded%cancelCheckStride == 0 && ctxDone(opts.Ctx) {
						x.Cancelled = true
						break
					}
				}
				if stop != nil && w != isrc && stop(lay.perm.Back(w)) {
					continue
				}
				wi := int(w & mask)
				// Hoist the β-scaled source row out of the edge loop: it
				// is re-read once per out-edge otherwise.
				bw := ks.bw[:k:k]
				wRow := ct.sigma[wi*kcap : wi*kcap+k : wi*kcap+k]
				for j := range wRow {
					bw[j] = beta32 * wRow[j]
				}
				wTopoAB := ct.topoAB[wi]
				wTopoB := ct.topoB[wi]
				eb := int(outOff[w])
				for i, v := range outDst[eb:outOff[w+1]] {
					nti := int(v >> shift)
					nt := nextTiles[nti]
					if nt == nil {
						nt = ks.tile(ks.next, nti)
					}
					vi := int(v & mask)
					row := nt.sigma[vi*kcap : vi*kcap+k : vi*kcap+k]
					if !nt.in[vi] {
						nt.in[vi] = true
						nt.list = append(nt.list, v)
						ks.next.size++
						for j := range row {
							row[j] = 0
						}
						nt.topoB[vi] = 0
						nt.topoAB[vi] = 0
					}
					off := int(simIdx[eb+i])
					ao := int(v) * astr
					abT := ab32 * wTopoAB
					// abU scales the topical unit by the edge's folded
					// decay weight; the topo updates keep abT.
					abU := abT
					if wTab != nil {
						abU *= wTab[eb+i]
					}
					if tsIdent {
						sr := simTab[off : off+k : off+k]
						ar := authTab[ao : ao+k : ao+k]
						for j := range row {
							row[j] += bw[j] + abU*(sr[j]*ar[j])
						}
					} else {
						sr := simTab[off : off+T]
						ar := authTab[ao : ao+T]
						for j, t := range ts {
							row[j] += bw[j] + abU*(sr[t]*ar[t])
						}
					}
					nt.topoAB[vi] += abT
					nt.topoB[vi] += beta32 * wTopoB
				}
			}
			if x.Cancelled {
				break
			}
		}
		if x.Cancelled {
			// The hop was abandoned midway: drop its partial deltas and
			// wipe the next-frontier marks so the scratch stays clean.
			ks.release(ks.next)
			break
		}
		if ks.next.size > peakFrontier {
			peakFrontier = ks.next.size
		}

		// Fold the hop into the running totals in address order
		// (deterministic float sums) and test convergence — Algorithm 1
		// l. 15, as in exploreDense. Totals stay in tiles; the result
		// maps are filled once after the loop.
		ks.sortFrontier(ks.next)
		var topoMass float64
		perTopic := ks.perTopic[:k]
		for i := range perTopic {
			perTopic[i] = 0
		}
		for _, nti := range ks.next.touched {
			nt := ks.next.tiles[nti]
			tt := ks.tot.tiles[nti]
			if tt == nil {
				tt = ks.tile(ks.tot, nti)
			}
			for _, v := range nt.list {
				vi := int(v & mask)
				ttRow := tt.sigma[vi*kcap : vi*kcap+k : vi*kcap+k]
				if !tt.in[vi] {
					tt.in[vi] = true
					tt.list = append(tt.list, v)
					ks.tot.size++
					for j := range ttRow {
						ttRow[j] = 0
					}
					tt.topoB[vi] = 0
					tt.topoAB[vi] = 0
				}
				ntRow := nt.sigma[vi*kcap : vi*kcap+k : vi*kcap+k]
				for j := range ntRow {
					d := ntRow[j]
					ttRow[j] += d
					perTopic[j] += float64(d)
				}
				tb := nt.topoB[vi]
				tt.topoB[vi] += tb
				tt.topoAB[vi] += nt.topoAB[vi]
				topoMass += float64(tb)
			}
		}
		x.Iterations = depth
		denom := float64(ks.tot.size)
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
		ks.release(ks.cur)
		ks.cur, ks.next = ks.next, ks.cur

		if converged {
			x.Converged = true
			break
		}
	}

	// Spill the totals once, in address order, mapping internal ids back
	// to external at the boundary: into the scratch's flat result arrays
	// under DenseResult, into per-node map entries otherwise.
	ks.sortFrontier(ks.tot)
	if opts.DenseResult {
		s.resetResult(k)
		x.dSigma, x.dTopoB, x.dTopoAB, x.dIn, x.dk = s.resSigma, s.resTopoB, s.resTopoAB, s.resIn, s.k
		x.dScored = ks.tot.size
	} else {
		x.sigma = make(map[graph.NodeID][]float64, ks.tot.size)
		x.topoB = make(map[graph.NodeID]float64, ks.tot.size)
		x.topoAB = make(map[graph.NodeID]float64, ks.tot.size)
	}
	x.Reached = make([]graph.NodeID, 0, ks.tot.size)
	rows := rowArena{k: k}
	for _, tti := range ks.tot.touched {
		tt := ks.tot.tiles[tti]
		for _, v := range tt.list {
			vi := int(v & mask)
			ext := lay.perm.Back(v)
			ttRow := tt.sigma[vi*kcap : vi*kcap+k : vi*kcap+k]
			var row []float64
			if opts.DenseResult {
				row = s.resSigma[int(ext)*s.k : int(ext)*s.k+k]
				s.resTopoB[ext] = float64(tt.topoB[vi])
				s.resTopoAB[ext] = float64(tt.topoAB[vi])
				s.resIn[ext] = true
				s.resList = append(s.resList, ext)
			} else {
				row = rows.newRow()
				x.sigma[ext] = row
				x.topoB[ext] = float64(tt.topoB[vi])
				x.topoAB[ext] = float64(tt.topoAB[vi])
			}
			for j, d := range ttRow {
				row[j] = float64(d)
			}
			if ext != src {
				x.Reached = append(x.Reached, ext)
			}
		}
	}
	exploreMetrics(opts.Metrics, x, peakFrontier)
	return x
}
