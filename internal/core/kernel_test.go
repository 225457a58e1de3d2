package core

// Tests for the cache-topology-aware kernel (kernel.go). The kernel is
// float32 over a relabeled CSR, so its contract is weaker than the exact
// modes' bit-identity and is proven in three layers: (1) structural
// equivalence — same reached sets, same iteration counts, Stop callbacks
// and results in external ids; (2) numerical closeness — scores within
// float32 accumulation error of the float64 dense mode; (3) ordering
// safety — top-n rankings identical (equivalence_test.go) and Kendall tau
// ≥ 0.999 on top-50 lists across random graphs (the paper's Table 6
// metric, via ranking.KendallTopK).

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// optimize wraps Engine.Optimized with test failure handling.
func optimize(tb testing.TB, e *Engine, order graph.Order) *Engine {
	tb.Helper()
	opt := e.Optimized(order)
	if !opt.HasOptimizedLayout() {
		tb.Fatalf("Optimized(%v): no layout attached", order)
	}
	return opt
}

// topNOf ranks x's reached nodes by topic ti's score (the Katz score for
// TopoOnly, as in Recommender.scoreOf), best first, with the ranking
// package's deterministic tie-break.
func topNOf(x *Exploration, variant Variant, ti, n int) []ranking.Scored {
	top := ranking.NewTopN(n)
	for _, v := range x.Reached {
		s := x.Sigma(v, ti)
		if variant == TopoOnly {
			s = x.TopoB(v)
		}
		if s > 0 {
			top.Insert(v, s)
		}
	}
	return top.List()
}

// approxEqual allows float32 accumulation error relative to the float64
// reference.
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-5*math.Max(math.Abs(a), math.Abs(b)) || d < 1e-12
}

func sortedIDs(ids []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// requireKernelApproxScores compares a kernel exploration against an
// exact-mode one: identical structure (reached set, iterations,
// convergence), scores within float32 error.
func requireKernelApproxScores(tb testing.TB, xk, xd *Exploration, n int) {
	tb.Helper()
	if xk.Iterations != xd.Iterations || xk.Converged != xd.Converged {
		tb.Fatalf("src %d: kernel ran %d hops (converged=%v), exact %d (%v)",
			xd.Src, xk.Iterations, xk.Converged, xd.Iterations, xd.Converged)
	}
	gk, gd := sortedIDs(xk.Reached), sortedIDs(xd.Reached)
	if len(gk) != len(gd) {
		tb.Fatalf("src %d: kernel reached %d nodes, exact %d", xd.Src, len(gk), len(gd))
	}
	for i := range gd {
		if gk[i] != gd[i] {
			tb.Fatalf("src %d: reached sets differ at %d: %d vs %d", xd.Src, i, gk[i], gd[i])
		}
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if got, want := xk.TopoB(id), xd.TopoB(id); !approxEqual(got, want) {
			tb.Fatalf("src %d: topoB(%d) = %v, want ≈%v", xd.Src, v, got, want)
		}
		if got, want := xk.TopoAB(id), xd.TopoAB(id); !approxEqual(got, want) {
			tb.Fatalf("src %d: topoAB(%d) = %v, want ≈%v", xd.Src, v, got, want)
		}
		for ti := range xd.Topics {
			if got, want := xk.Sigma(id, ti), xd.Sigma(id, ti); !approxEqual(got, want) {
				tb.Fatalf("src %d: sigma(%d, t%d) = %v, want ≈%v", xd.Src, v, ti, got, want)
			}
		}
	}
}

// TestKernelKendallTauFloat32 is the float32-safety property test: across
// random graphs, sources and both relabeling orders, the kernel's top-50
// per-topic rankings must stay within normalized Kendall tau distance
// 1e-3 (tau ≥ 0.999) of the exact float64 dense mode — the bound under
// which the paper's Table 6 treats an approximation as rank-faithful.
func TestKernelKendallTauFloat32(t *testing.T) {
	const maxDistance = 1e-3
	params := DefaultParams()
	params.Beta = 0.05
	params.MaxDepth = 6
	for _, order := range []graph.Order{graph.DegreeOrder, graph.BFSOrder} {
		t.Run(order.String(), func(t *testing.T) {
			for _, seed := range []uint64{3, 17, 51} {
				ds := gen.RandomWith(400, 4800, seed)
				eng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, params)
				if err != nil {
					t.Fatal(err)
				}
				opt := optimize(t, eng, order)
				r := rand.New(rand.NewPCG(seed, 5))
				n := ds.Graph.NumNodes()
				for q := 0; q < 6; q++ {
					src := graph.NodeID(r.IntN(n))
					xd := eng.ExploreOpts(src, nil, ExploreOptions{Mode: DenseMode})
					xk := opt.ExploreOpts(src, nil, ExploreOptions{Mode: KernelMode})
					for ti := 0; ti < len(xd.Topics); ti += 3 {
						a := topNOf(xd, TrFull, ti, 50)
						b := topNOf(xk, TrFull, ti, 50)
						if d := ranking.KendallTopK(a, b); d > maxDistance {
							t.Errorf("seed %d src %d topic %d: Kendall distance %g > %g",
								seed, src, ti, d, maxDistance)
						}
					}
				}
			}
		})
	}
}

// TestKernelEdgeCases drives the kernel through degenerate topologies —
// single node, no edges, a star hub, disconnected components — and a
// zero-topic request, comparing structure and scores against the exact
// dense mode under both relabeling orders.
func TestKernelEdgeCases(t *testing.T) {
	tax := topics.WebTaxonomy()
	vocab := tax.Vocabulary()
	T := vocab.Len()
	lbl := func(i int) topics.Set { return topics.NewSet(topics.ID(i % T)) }

	cases := []struct {
		name  string
		build func() *graph.Graph
		ts    []topics.ID // nil = all topics
	}{
		{
			name: "single-node",
			build: func() *graph.Graph {
				b := graph.NewBuilder(vocab, 1)
				b.SetNodeTopics(0, lbl(0))
				return b.MustFreeze()
			},
		},
		{
			name: "edgeless",
			build: func() *graph.Graph {
				b := graph.NewBuilder(vocab, 6)
				for u := 0; u < 6; u++ {
					b.SetNodeTopics(graph.NodeID(u), lbl(u))
				}
				return b.MustFreeze()
			},
		},
		{
			name: "star-hub",
			build: func() *graph.Graph {
				// Hub 0 follows every leaf; half the leaves follow back, so
				// mass cycles through the hub until the tolerance cuts it.
				b := graph.NewBuilder(vocab, 12)
				for u := 0; u < 12; u++ {
					b.SetNodeTopics(graph.NodeID(u), lbl(u))
				}
				for v := 1; v < 12; v++ {
					b.AddEdge(0, graph.NodeID(v), lbl(v))
					if v%2 == 0 {
						b.AddEdge(graph.NodeID(v), 0, lbl(v+1))
					}
				}
				return b.MustFreeze()
			},
		},
		{
			name: "two-components",
			build: func() *graph.Graph {
				b := graph.NewBuilder(vocab, 8)
				for u := 0; u < 8; u++ {
					b.SetNodeTopics(graph.NodeID(u), lbl(u))
				}
				// Component 1: a 4-cycle. Component 2: a chain.
				for u := 0; u < 4; u++ {
					b.AddEdge(graph.NodeID(u), graph.NodeID((u+1)%4), lbl(u))
				}
				b.AddEdge(4, 5, lbl(1))
				b.AddEdge(5, 6, lbl(2))
				b.AddEdge(6, 7, lbl(3))
				return b.MustFreeze()
			},
		},
		{
			name: "zero-topics",
			build: func() *graph.Graph {
				b := graph.NewBuilder(vocab, 5)
				for v := 1; v < 5; v++ {
					b.AddEdge(0, graph.NodeID(v), lbl(v))
					b.AddEdge(graph.NodeID(v), 0, lbl(v))
				}
				return b.MustFreeze()
			},
			ts: []topics.ID{}, // k = 0: only the topological scores flow
		},
	}

	params := defaultTestParams()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			eng, err := NewEngine(g, authority.Compute(g), tax.SimMatrix(), params)
			if err != nil {
				t.Fatal(err)
			}
			for _, order := range []graph.Order{graph.DegreeOrder, graph.BFSOrder} {
				opt := optimize(t, eng, order)
				for u := 0; u < g.NumNodes(); u++ {
					src := graph.NodeID(u)
					xd := eng.ExploreOpts(src, tc.ts, ExploreOptions{Mode: DenseMode})
					xk := opt.ExploreOpts(src, tc.ts, ExploreOptions{Mode: KernelMode})
					requireKernelApproxScores(t, xk, xd, g.NumNodes())
				}
			}
		})
	}
}

// TestKernelModeFallsBackWithoutLayout: KernelMode on a plain engine must
// run the exact dense path (bit-identical), not fail.
func TestKernelModeFallsBackWithoutLayout(t *testing.T) {
	ds := gen.RandomWith(40, 260, 13)
	eng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, equivalenceParams(TrFull))
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Graph.NumNodes()
	for u := 0; u < n; u += 5 {
		src := graph.NodeID(u)
		xk := eng.ExploreOpts(src, nil, ExploreOptions{Mode: KernelMode})
		xd := eng.ExploreOpts(src, nil, ExploreOptions{Mode: DenseMode})
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			if xk.TopoB(id) != xd.TopoB(id) {
				t.Fatalf("src %d: fallback topoB(%d) = %v, dense %v", u, v, xk.TopoB(id), xd.TopoB(id))
			}
			for ti := range xd.Topics {
				if xk.Sigma(id, ti) != xd.Sigma(id, ti) {
					t.Fatalf("src %d: fallback sigma(%d,t%d) differs", u, v, ti)
				}
			}
		}
	}
}

// TestKernelStopSeesExternalIDs: the Stop callback of a kernel
// exploration must receive the same (external) node ids as the exact
// modes — the permutation must never leak through the API boundary.
func TestKernelStopSeesExternalIDs(t *testing.T) {
	ds := gen.RandomWith(80, 640, 9)
	eng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, equivalenceParams(TrFull))
	if err != nil {
		t.Fatal(err)
	}
	opt := optimize(t, eng, graph.DegreeOrder)
	for u := 0; u < ds.Graph.NumNodes(); u += 11 {
		src := graph.NodeID(u)
		seenD := make(map[graph.NodeID]bool)
		seenK := make(map[graph.NodeID]bool)
		stopAt := func(v graph.NodeID) bool { return v%5 == 0 }
		xd := eng.ExploreOpts(src, nil, ExploreOptions{
			Mode: DenseMode,
			Stop: func(v graph.NodeID) bool { seenD[v] = true; return stopAt(v) },
		})
		xk := opt.ExploreOpts(src, nil, ExploreOptions{
			Mode: KernelMode,
			Stop: func(v graph.NodeID) bool { seenK[v] = true; return stopAt(v) },
		})
		if len(seenK) != len(seenD) {
			t.Fatalf("src %d: kernel Stop saw %d distinct ids, dense %d", u, len(seenK), len(seenD))
		}
		for v := range seenD {
			if !seenK[v] {
				t.Fatalf("src %d: dense Stop saw node %d, kernel did not", u, v)
			}
		}
		requireKernelApproxScores(t, xk, xd, ds.Graph.NumNodes())
	}
}

// TestKernelScratchReuseClean: reusing one Scratch (directly and through
// a ScratchPool) across kernel explorations must be bit-identical to a
// fresh scratch every time — no state may leak between calls. The
// DenseResult form, whose flat result arrays live in the reused scratch,
// must read the same through every accessor.
func TestKernelScratchReuseClean(t *testing.T) {
	ds := gen.RandomWith(120, 960, 21)
	eng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, equivalenceParams(TrFull))
	if err != nil {
		t.Fatal(err)
	}
	opt := optimize(t, eng, graph.BFSOrder)
	shared := NewScratch(opt)
	pool := NewScratchPoolFor(opt)
	n := ds.Graph.NumNodes()
	for u := 0; u < n; u += 17 {
		src := graph.NodeID(u)
		fresh := opt.ExploreOpts(src, nil, ExploreOptions{Mode: KernelMode})
		reused := opt.ExploreOpts(src, nil, ExploreOptions{Mode: KernelMode, Scratch: shared})
		ps := pool.Get()
		pooled := opt.ExploreOpts(src, nil, ExploreOptions{Mode: KernelMode, Scratch: ps})
		pool.Put(ps)
		flat := opt.ExploreOpts(src, nil, ExploreOptions{Mode: KernelMode, Scratch: shared, DenseResult: true})
		if flat.scored() != fresh.scored() || flat.Iterations != fresh.Iterations {
			t.Fatalf("src %d: DenseResult scored %d nodes in %d hops, maps %d in %d",
				u, flat.scored(), flat.Iterations, fresh.scored(), fresh.Iterations)
		}
		for _, x := range []*Exploration{reused, pooled, flat} {
			if len(x.Reached) != len(fresh.Reached) {
				t.Fatalf("src %d: reused scratch reached %d nodes, fresh %d", u, len(x.Reached), len(fresh.Reached))
			}
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				if x.TopoB(id) != fresh.TopoB(id) || x.TopoAB(id) != fresh.TopoAB(id) {
					t.Fatalf("src %d: reused scratch topo scores differ at node %d", u, v)
				}
				for ti := range fresh.Topics {
					if x.Sigma(id, ti) != fresh.Sigma(id, ti) {
						t.Fatalf("src %d: reused scratch sigma differs at (%d, t%d)", u, v, ti)
					}
				}
			}
		}
	}
}

// TestDeriveDropsLayout: deriving over an overlay must detach the
// optimized layout (the relabeling no longer describes the edge set) and
// fall back to the exact path; re-optimizing folds the overlay into a
// fresh relabeled CSR whose rankings match the rebuilt reference.
func TestDeriveDropsLayout(t *testing.T) {
	ds := gen.RandomWith(40, 260, 31)
	params := equivalenceParams(TrFull)
	eng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, params)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimize(t, eng, graph.DegreeOrder)
	if o, ok := opt.LayoutOrder(); !ok || o != graph.DegreeOrder {
		t.Fatalf("LayoutOrder = %v, %v; want DegreeOrder, true", o, ok)
	}
	if p, ok := opt.LayoutPermutation(); !ok || p.Len() != ds.Graph.NumNodes() {
		t.Fatalf("LayoutPermutation covers %d nodes (ok=%v), want %d", p.Len(), ok, ds.Graph.NumNodes())
	}
	if eng.HasOptimizedLayout() {
		t.Fatal("Optimized mutated the receiver engine")
	}

	r := rand.New(rand.NewPCG(31, 7))
	adds, removes := randomDelta(ds.Graph, r, 14, 7)
	ov, err := graph.NewOverlay(ds.Graph, adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := opt.Derive(ov, authority.Compute(ov))
	if err != nil {
		t.Fatal(err)
	}
	if derived.HasOptimizedLayout() {
		t.Fatal("Derive kept a stale layout across an overlay")
	}
	ref := rebuiltReference(t, ds.Graph, adds, removes)
	refEng, err := NewEngine(ref, authority.Compute(ref), ds.Sim, params)
	if err != nil {
		t.Fatal(err)
	}
	// Without a layout the derived engine is on the exact float64 path:
	// bit-identical to the rebuilt reference.
	requireSameScores(t, derived, refEng, params.MaxDepth)

	// Re-optimizing folds the overlay into a relabeled CSR; rankings must
	// match the reference's exact dense rankings.
	reopt := optimize(t, derived, graph.BFSOrder)
	for u := 0; u < ref.NumNodes(); u += 7 {
		src := graph.NodeID(u)
		xk := reopt.ExploreOpts(src, nil, ExploreOptions{Mode: KernelMode})
		xd := refEng.ExploreOpts(src, nil, ExploreOptions{Mode: DenseMode})
		for ti := 0; ti < len(xd.Topics); ti += 4 {
			a := topNOf(xd, TrFull, ti, 10)
			b := topNOf(xk, TrFull, ti, 10)
			if len(a) != len(b) {
				t.Fatalf("src %d t%d: top-n sizes %d vs %d", u, ti, len(b), len(a))
			}
			for i := range a {
				if a[i].Node != b[i].Node {
					t.Fatalf("src %d t%d: re-optimized top-n[%d] = %d, want %d", u, ti, i, b[i].Node, a[i].Node)
				}
			}
		}
	}
}
