package core

import (
	"fmt"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// Tests for the per-edge weight contract (WithEdgeWeights): weights scale
// each edge's topical contribution to σ and nothing else, both result
// forms match the weighted path sums, and a uniform weight rescales all
// scores by that constant — which is what makes tRef re-anchoring a
// ranking no-op in the decay model.

func weightedPair(t *testing.T, seed uint64) (*Engine, *Engine, *gen.Dataset) {
	t.Helper()
	ds := gen.RandomWith(40, 350, seed)
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	w := graph.BuildWeights(ds.Graph, func(src, dst graph.NodeID) float32 {
		return 0.25 + float32((src*31+dst*17)%100)/100 // deterministic, non-uniform, in (0, 1.25)
	})
	return e, e.WithEdgeWeights(w), ds
}

// TestWeightedModesAgree: under a weighted engine both result forms — read
// in place and copied out — are the same exploration bit for bit, and it
// matches the weighted path enumeration.
func TestWeightedModesAgree(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		_, we, _ := weightedPair(t, seed)
		ts := []topics.ID{topics.ID(seed % 18), topics.ID((seed + 7) % 18)}
		scratch := NewScratch(we)
		for _, src := range []graph.NodeID{0, 11, 29} {
			label := fmt.Sprintf("seed %d src %d", seed, src)
			copied := we.ExploreOpts(src, ts, ExploreOptions{MaxDepth: 3})
			inPlace := we.ExploreOpts(src, ts, ExploreOptions{MaxDepth: 3, Scratch: scratch})
			requireSameExploration(t, label, we, inPlace, copied)
			requireMatchesPaths(t, label, we, inPlace, inPlace.Iterations, nil)
		}
	}
}

// TestWeightsScaleOnlySigma: the topological scores are the structural
// decay sums — weights must not touch them — while σ of a node whose
// every contributing edge carries weight c scales by exactly c.
func TestWeightsScaleOnlySigma(t *testing.T) {
	base, _, ds := weightedPair(t, 4)
	const c = 0.375 // exactly representable: σ scaling is then bit-exact per term
	uw := base.WithEdgeWeights(graph.BuildWeights(ds.Graph,
		func(src, dst graph.NodeID) float32 { return c }))
	ts := []topics.ID{2, 9}
	for _, src := range []graph.NodeID{3, 17, 33} {
		a := base.Explore(src, ts, 3)
		b := uw.Explore(src, ts, 3)
		if len(a.Reached) != len(b.Reached) {
			t.Fatalf("src %d: weighting changed reachability %d vs %d", src, len(a.Reached), len(b.Reached))
		}
		for _, v := range a.Reached {
			if !almostEqual(a.TopoB(v), b.TopoB(v), 0) || !almostEqual(a.TopoAB(v), b.TopoAB(v), 0) {
				t.Fatalf("src %d: weights leaked into topo scores at %d", src, v)
			}
			for ti := range ts {
				if !almostEqual(a.Sigma(v, ti)*c, b.Sigma(v, ti), 1e-12) {
					t.Fatalf("src %d sigma(%d): %g × %g != %g", src, v, a.Sigma(v, ti), c, b.Sigma(v, ti))
				}
			}
		}
	}
}

// TestUniformWeightPreservesRankings: a uniform rescale of σ cannot
// reorder results — the decay model's tRef shift invariance.
func TestUniformWeightPreservesRankings(t *testing.T) {
	ds := gen.RandomWith(40, 350, 6)
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	uw := e.WithEdgeWeights(graph.BuildWeights(ds.Graph,
		func(graph.NodeID, graph.NodeID) float32 { return 0.5 }))
	ra := NewRecommender(e, WithDepth(3))
	rb := NewRecommender(uw, WithDepth(3))
	for _, src := range []graph.NodeID{1, 13, 37} {
		a := ra.Recommend(src, 5, 10)
		b := rb.Recommend(src, 5, 10)
		if len(a) != len(b) {
			t.Fatalf("src %d: %d vs %d results", src, len(a), len(b))
		}
		for i := range a {
			if a[i].Node != b[i].Node {
				t.Fatalf("src %d rank %d: %d vs %d", src, i, a[i].Node, b[i].Node)
			}
			if !almostEqual(a[i].Score*0.5, b[i].Score, 1e-12) {
				t.Fatalf("src %d rank %d: score %g × 0.5 != %g", src, i, a[i].Score, b[i].Score)
			}
		}
	}
}

// TestLayeredWeightsMatchFlat: a layered weight set (the overlay-apply
// path) must serve the same weights as a flat rebuild (the compaction
// path) — the two forms are interchangeable by construction.
func TestLayeredWeightsMatchFlat(t *testing.T) {
	ds := gen.RandomWith(40, 350, 8)
	f := func(src, dst graph.NodeID) float32 {
		return 0.1 + float32((src*13+dst*7)%50)/50
	}
	flat := graph.BuildWeights(ds.Graph, f)
	// Layer a patch over rows 0..9 with the SAME function: serving must be
	// indistinguishable from the flat form.
	rows := make(map[graph.NodeID][]float32)
	for u := graph.NodeID(0); u < 10; u++ {
		dsts, _ := ds.Graph.Out(u)
		ws := make([]float32, len(dsts))
		for i, v := range dsts {
			ws[i] = f(u, v)
		}
		rows[u] = ws
	}
	layered := flat.Layer(rows)
	if layered.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1", layered.Depth())
	}
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		a, b := flat.OutWeights(graph.NodeID(u)), layered.OutWeights(graph.NodeID(u))
		if len(a) != len(b) {
			t.Fatalf("node %d: row lengths %d vs %d", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d edge %d: %g vs %g", u, i, a[i], b[i])
			}
		}
	}
	var nilw *graph.EdgeWeights
	if nilw.OutWeights(0) != nil {
		t.Fatal("nil weight set must serve nil rows")
	}
}
