package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// decayedOverlayEngine stacks three random overlay layers on ds's graph,
// each with its own decay-weight layer, the way a streaming manager
// derives its engines.
func decayedOverlayEngine(t *testing.T, ds *gen.Dataset) *Engine {
	t.Helper()
	decay := func(src, dst graph.NodeID) float32 {
		return 0.25 + 0.75*float32((uint32(src)*2654435761^uint32(dst)*40503)>>8%1024+1)/1024
	}
	base := ds.Graph
	wts := graph.BuildWeights(base, decay)
	e, err := NewEngine(base, authority.Compute(base), ds.Sim, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 9))
	var view graph.View = base
	ref := base
	for layer := 0; layer < 3; layer++ {
		adds, removes := randomDelta(ref, r, 12, 6)
		ov, err := graph.NewOverlay(view, adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[graph.NodeID][]float32)
		ov.PatchedOut(func(u graph.NodeID, ids []graph.NodeID) {
			ws := make([]float32, len(ids))
			for i, v := range ids {
				ws[i] = decay(u, v)
			}
			rows[u] = ws
		})
		wts = wts.Layer(rows)
		view, ref = ov, rebuiltReference(t, ref, adds, removes)
		if e, err = e.Derive(ov, authority.Compute(ov)); err != nil {
			t.Fatal(err)
		}
	}
	return e.WithEdgeWeights(wts)
}

// TestExploreShapesAgree: the factored kernel's two shapes — one source
// over every topic, as a landmark's preprocessing runs it, and many
// sources over one topic, as a per-topic refresh does — compute every
// (source, topic) σ column, topo_β and topo_βα bit for bit alike, so
// the nodes with σ_t > 0 are the same too, for the first, a middle and
// the last topic. It covers the Figure 1
// fixture (a DAG, so every β below 1 converges), random graphs and a
// decay-weighted overlay stack, with β swept up to MaxBeta; a call that
// does not converge within MaxDepth is left out of the comparison.
func TestExploreShapesAgree(t *testing.T) {
	f := figure1(t)
	cases := []struct {
		name string
		e    *Engine
	}{
		{"figure1", f.engine(t, DefaultParams())},
		{"random", func() *Engine {
			ds := gen.RandomWith(80, 500, 4)
			e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			return e
		}()},
		{"sparse random", func() *Engine {
			ds := gen.RandomWith(90, 140, 8)
			e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			return e
		}()},
		{"decayed overlay stack", decayedOverlayEngine(t, gen.RandomWith(70, 420, 6))},
	}
	for _, tc := range cases {
		n := tc.e.g.NumNodes()
		bound := MaxBeta(tc.e.g)
		for _, frac := range []float64{0, 0.05, 0.3, 0.9, 0.999} {
			e := *tc.e
			if frac > 0 {
				e.params.Beta = min(frac*bound, 0.999)
				e.params.MaxDepth = 400
			}
			in := e.InAdjacency()
			all, one := NewScratch(&e), NewScratch(&e)
			c := in.MaxSources(1)
			compared := 0
			for _, tp := range []int{0, 7, len(in.all) - 1} {
				for lo := 0; lo < n; lo += c {
					srcs := make([]graph.NodeID, 0, c)
					for v := lo; v < min(n, lo+c); v++ {
						srcs = append(srcs, graph.NodeID(v))
					}
					xs := in.Explore(srcs, []topics.ID{topics.ID(tp)}, one)
					if xs == nil {
						continue
					}
					for i, src := range srcs {
						x := exploreOne(in, src, all)
						if x == nil {
							continue
						}
						compared++
						label := fmt.Sprintf("%s β=%g src %d topic %d", tc.name, e.params.Beta, src, tp)
						y := &xs[i]
						for v := 0; v < n; v++ {
							id := graph.NodeID(v)
							if a, b := y.Sigma(id, 0), x.Sigma(id, tp); a != b {
								t.Fatalf("%s node %d: σ %v one topic, %v all topics", label, v, a, b)
							}
							if a, b := y.TopoB(id), x.TopoB(id); a != b {
								t.Fatalf("%s node %d: topo_β %v one topic, %v all topics", label, v, a, b)
							}
							if a, b := y.TopoAB(id), x.TopoAB(id); a != b {
								t.Fatalf("%s node %d: topo_βα %v one topic, %v all topics", label, v, a, b)
							}
						}
						if y.Iterations > x.Iterations {
							t.Fatalf("%s: one topic ran %d hops, all topics %d", label, y.Iterations, x.Iterations)
						}
					}
				}
			}
			t.Logf("%s β=%g: %d (source, topic) pairs compared", tc.name, e.params.Beta, compared)
			if compared == 0 && frac <= 0.3 {
				t.Fatalf("%s β=%g: no exploration converged in both shapes", tc.name, e.params.Beta)
			}
		}
	}
}
