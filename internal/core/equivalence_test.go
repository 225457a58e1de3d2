package core

// Differential tests for the snapshot/delta contract: an Overlay must be
// observationally equivalent to the graph the legacy Builder path would
// rebuild — same adjacency, same labels, same follower counts — and every
// engine variant must score bit-identically over the two, whether the
// engine is built from scratch or derived from the base engine, whose
// similarity byte table it shares.

import (
	"math/rand/v2"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// randomDelta draws a batch against g: fresh edges, label-extending
// re-adds of existing edges, and removals of existing and unknown edges.
func randomDelta(g *graph.Graph, r *rand.Rand, nAdd, nRemove int) (adds, removes []graph.Edge) {
	n := g.NumNodes()
	T := g.Vocabulary().Len()
	existing := g.Edges()
	for i := 0; i < nAdd; i++ {
		if len(existing) > 0 && r.IntN(4) == 0 {
			// Re-add an existing edge with an extra topic: the labels union.
			e := existing[r.IntN(len(existing))]
			adds = append(adds, graph.Edge{Src: e.Src, Dst: e.Dst, Label: e.Label.Add(topics.ID(r.IntN(T)))})
			continue
		}
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u == v {
			continue
		}
		adds = append(adds, graph.Edge{Src: u, Dst: v, Label: topics.NewSet(topics.ID(r.IntN(T)), topics.ID(r.IntN(T)))})
	}
	for i := 0; i < nRemove; i++ {
		if len(existing) > 0 && r.IntN(3) != 0 {
			removes = append(removes, existing[r.IntN(len(existing))])
			continue
		}
		// Unknown edge: removing it must be a no-op on both paths.
		removes = append(removes, graph.Edge{Src: graph.NodeID(r.IntN(n)), Dst: graph.NodeID(r.IntN(n))})
	}
	return adds, removes
}

// rebuiltReference replays base + delta through the legacy Builder +
// Freeze + WithoutEdges path — the ground truth the overlay must match.
func rebuiltReference(tb testing.TB, base *graph.Graph, adds, removes []graph.Edge) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(base.Vocabulary(), base.NumNodes())
	for u := 0; u < base.NumNodes(); u++ {
		b.SetNodeTopics(graph.NodeID(u), base.NodeTopics(graph.NodeID(u)))
	}
	for _, e := range base.Edges() {
		b.AddEdge(e.Src, e.Dst, e.Label)
	}
	for _, e := range adds {
		b.AddEdge(e.Src, e.Dst, e.Label)
	}
	g, err := b.Freeze()
	if err != nil {
		tb.Fatalf("reference rebuild: %v", err)
	}
	if len(removes) > 0 {
		g = g.WithoutEdges(removes)
	}
	return g
}

// requireSameObservations checks the View accessors the engines consume.
func requireSameObservations(tb testing.TB, got graph.View, want *graph.Graph) {
	tb.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		tb.Fatalf("size: got %d nodes/%d edges, want %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	counts := make([]uint32, want.Vocabulary().Len())
	wantCounts := make([]uint32, want.Vocabulary().Len())
	for u := 0; u < want.NumNodes(); u++ {
		id := graph.NodeID(u)
		gd, gl := got.Out(id)
		wd, wl := want.Out(id)
		if len(gd) != len(wd) {
			tb.Fatalf("node %d: out degree %d, want %d", u, len(gd), len(wd))
		}
		for i := range wd {
			if gd[i] != wd[i] || gl[i] != wl[i] {
				tb.Fatalf("node %d out[%d]: (%d,%v), want (%d,%v)", u, i, gd[i], gl[i], wd[i], wl[i])
			}
			if lbl, ok := got.EdgeLabel(id, wd[i]); !ok || lbl != wl[i] {
				tb.Fatalf("node %d: EdgeLabel(%d) = %v,%v, want %v", u, wd[i], lbl, ok, wl[i])
			}
		}
		gs, gsl := got.In(id)
		ws, wsl := want.In(id)
		if len(gs) != len(ws) {
			tb.Fatalf("node %d: in degree %d, want %d", u, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i] != ws[i] || gsl[i] != wsl[i] {
				tb.Fatalf("node %d in[%d]: (%d,%v), want (%d,%v)", u, i, gs[i], gsl[i], ws[i], wsl[i])
			}
		}
		got.FollowerTopicCounts(id, counts)
		want.FollowerTopicCounts(id, wantCounts)
		for i := range wantCounts {
			if counts[i] != wantCounts[i] {
				tb.Fatalf("node %d topic %d: follower count %d, want %d", u, i, counts[i], wantCounts[i])
			}
		}
	}
}

// requireSameScores explores from every node over both engines and
// compares σ per topic plus both topological scores with exact float64
// equality — the bit-identical contract.
func requireSameScores(tb testing.TB, eng, ref *Engine, maxDepth int) {
	tb.Helper()
	n := ref.Graph().NumNodes()
	for u := 0; u < n; u++ {
		src := graph.NodeID(u)
		xe := eng.Explore(src, nil, maxDepth)
		xr := ref.Explore(src, nil, maxDepth)
		if xe.Iterations != xr.Iterations || xe.Converged != xr.Converged {
			tb.Fatalf("%v src %d: iterations %d/%v, want %d/%v",
				ref.Params().Variant, u, xe.Iterations, xe.Converged, xr.Iterations, xr.Converged)
		}
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			if got, want := xe.TopoB(id), xr.TopoB(id); got != want {
				tb.Fatalf("%v src %d: topoB(%d) = %v, want %v", ref.Params().Variant, u, v, got, want)
			}
			if got, want := xe.TopoAB(id), xr.TopoAB(id); got != want {
				tb.Fatalf("%v src %d: topoAB(%d) = %v, want %v", ref.Params().Variant, u, v, got, want)
			}
			for ti := range xr.Topics {
				if got, want := xe.Sigma(id, ti), xr.Sigma(id, ti); got != want {
					tb.Fatalf("%v src %d: sigma(%d, t%d) = %v, want %v", ref.Params().Variant, u, v, ti, got, want)
				}
			}
		}
	}
}

func equivalenceParams(v Variant) Params {
	p := DefaultParams()
	p.Beta = 0.05
	p.MaxDepth = 4
	p.Variant = v
	return p
}

// TestOverlayScoresMatchRebuild is the differential contract of the
// snapshot/delta design: for every engine variant, scoring over an
// overlay stack must be bit-identical to scoring over the graph the
// legacy full rebuild produces — including engines derived from a base
// engine, sharing its similarity byte table.
func TestOverlayScoresMatchRebuild(t *testing.T) {
	for _, variant := range []Variant{TrFull, TrNoAuth, TrNoSim, TopoOnly} {
		t.Run(variant.String(), func(t *testing.T) {
			ds := gen.RandomWith(40, 260, 11)
			r := rand.New(rand.NewPCG(23, uint64(variant)))
			params := equivalenceParams(variant)
			baseEng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, params)
			if err != nil {
				t.Fatal(err)
			}

			// Stack three overlay layers, re-deriving the engine each time
			// — exactly the dynamic.Manager.Apply sequence. The reference
			// replays each layer through the legacy Builder rebuild.
			var view graph.View = ds.Graph
			ref := ds.Graph
			derived := baseEng
			for layer := 0; layer < 3; layer++ {
				adds, removes := randomDelta(ref, r, 12, 6)
				ov, err := graph.NewOverlay(view, adds, removes)
				if err != nil {
					t.Fatal(err)
				}
				view = ov
				ref = rebuiltReference(t, ref, adds, removes)

				requireSameObservations(t, ov, ref)

				derived, err = derived.Derive(ov, authority.Compute(ov))
				if err != nil {
					t.Fatal(err)
				}
				refEng, err := NewEngine(ref, authority.Compute(ref), ds.Sim, params)
				if err != nil {
					t.Fatal(err)
				}
				requireSameScores(t, derived, refEng, params.MaxDepth)

				// Compacting the stack must not change a single bit either.
				csr := ov.Compact()
				requireSameObservations(t, csr, ref)
				compEng, err := derived.Derive(csr, authority.Compute(csr))
				if err != nil {
					t.Fatal(err)
				}
				requireSameScores(t, compEng, refEng, params.MaxDepth)
			}
		})
	}
}

// FuzzOverlayEquivalence drives random batches through the overlay and
// the legacy rebuild and requires agreement on every observation and on
// Tr and Katz scores.
func FuzzOverlayEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(4))
	f.Add(uint64(7), uint8(0), uint8(9))
	f.Add(uint64(42), uint8(30), uint8(0))
	f.Add(uint64(99), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nAdd, nRemove uint8) {
		ds := gen.RandomWith(24, 120, seed%64)
		r := rand.New(rand.NewPCG(seed, 77))
		adds, removes := randomDelta(ds.Graph, r, int(nAdd%32), int(nRemove%32))
		ov, err := graph.NewOverlay(ds.Graph, adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		ref := rebuiltReference(t, ds.Graph, adds, removes)
		requireSameObservations(t, ov, ref)

		for _, variant := range []Variant{TrFull, TopoOnly} {
			params := equivalenceParams(variant)
			params.MaxDepth = 3
			baseEng, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, params)
			if err != nil {
				t.Fatal(err)
			}
			derived, err := baseEng.Derive(ov, authority.Compute(ov))
			if err != nil {
				t.Fatal(err)
			}
			refEng, err := NewEngine(ref, authority.Compute(ref), ds.Sim, params)
			if err != nil {
				t.Fatal(err)
			}
			requireSameScores(t, derived, refEng, params.MaxDepth)
		}
	})
}
