package landmark

import (
	"math/rand"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/graph"
)

// testDecay is a pure per-edge weight in (0.25, 1]: the same function
// weights an overlay stack layer by layer and its compacted rebuild, so
// both carry identical weights.
func testDecay(src, dst graph.NodeID) float32 {
	h := (uint32(src)*2654435761 ^ uint32(dst)*40503) >> 8
	return 0.25 + 0.75*float32(h%1024+1)/1024
}

// streamedEngine puts eng in the state the dynamic manager refreshes
// landmarks in: derived over a stack of `layers` overlays (each removes
// and adds a few edges) and, when decay is set, carrying per-edge weights
// layered in lockstep with the overlays.
func streamedEngine(tb testing.TB, eng *core.Engine, layers int, decay bool) (*core.Engine, *graph.Overlay) {
	tb.Helper()
	g := eng.Graph().(*graph.Graph)
	var wts *graph.EdgeWeights
	if decay {
		wts = graph.BuildWeights(g, testDecay)
	}
	rng := rand.New(rand.NewSource(7))
	n := g.NumNodes()
	var view graph.View = g
	var top *graph.Overlay
	for l := 0; l < layers; l++ {
		var adds, removes []graph.Edge
		for len(adds) < 3 {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v && !view.HasEdge(u, v) {
				adds = append(adds, graph.Edge{Src: u, Dst: v, Label: view.NodeTopics(v)})
			}
		}
		for len(removes) < 2 {
			u := graph.NodeID(rng.Intn(n))
			if dsts, _ := view.Out(u); len(dsts) > 0 {
				removes = append(removes, graph.Edge{Src: u, Dst: dsts[rng.Intn(len(dsts))]})
			}
		}
		ov, err := graph.NewOverlay(view, adds, removes)
		if err != nil {
			tb.Fatal(err)
		}
		if decay {
			rows := make(map[graph.NodeID][]float32)
			ov.PatchedOut(func(u graph.NodeID, ids []graph.NodeID) {
				ws := make([]float32, len(ids))
				for i, v := range ids {
					ws[i] = testDecay(u, v)
				}
				rows[u] = ws
			})
			wts = wts.Layer(rows)
		}
		view, top = ov, ov
	}
	derived, err := eng.Derive(view, authority.Compute(view))
	if err != nil {
		tb.Fatal(err)
	}
	if decay {
		derived = derived.WithEdgeWeights(wts)
	}
	return derived, top
}
