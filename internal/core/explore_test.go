package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol || d <= tol*m
}

// pathSums is the literal evaluation of Definition 1 and Equation 2 for
// the paths an exploration counts: per end node, Σ ω_p(t) for each topic
// of the call, Σ β^|p| and Σ (αβ)^|p|.
type pathSums struct {
	sigma         map[graph.NodeID][]float64
	topoB, topoAB map[graph.NodeID]float64
}

// enumeratePaths walks every path from src of 1..maxLen edges by DFS. A
// path counts iff no interior node other than src is stopped — the pruned
// exploration of Algorithm 2 expands neither. ω_p(t) includes the
// engine's per-edge weights, which scale each edge's topical factor.
func enumeratePaths(e *Engine, src graph.NodeID, ts []topics.ID, maxLen int, stop func(graph.NodeID) bool) pathSums {
	beta, alpha := e.params.Beta, e.params.Alpha
	ps := pathSums{sigma: map[graph.NodeID][]float64{}, topoB: map[graph.NodeID]float64{}, topoAB: map[graph.NodeID]float64{}}
	// partial[d][ti] is Σ α^i·w_t(e_i) over the first d edges of the path.
	partial := make([][]float64, maxLen+1)
	for d := range partial {
		partial[d] = make([]float64, len(ts))
	}
	var walk func(cur graph.NodeID, depth int, ap, bp float64)
	walk = func(cur graph.NodeID, depth int, ap, bp float64) {
		if depth == maxLen || (cur != src && stop != nil && stop(cur)) {
			return
		}
		dsts, lbls := e.g.Out(cur)
		wrow := e.outWeights(cur)
		for i, v := range dsts {
			ew := 1.0
			if wrow != nil {
				ew = float64(wrow[i])
			}
			nap, nbp := ap*alpha, bp*beta
			row := ps.sigma[v]
			if row == nil {
				row = make([]float64, len(ts))
				ps.sigma[v] = row
			}
			for ti, t := range ts {
				partial[depth+1][ti] = partial[depth][ti] + nap*e.edgeTopicWeight(lbls[i], v, t)*ew
				row[ti] += nbp * partial[depth+1][ti]
			}
			ps.topoB[v] += nbp
			ps.topoAB[v] += nbp * nap
			walk(v, depth+1, nap, nbp)
		}
	}
	walk(src, 0, 1, 1)
	return ps
}

// requireMatchesPaths holds x, an exploration of maxLen hops from x.Src
// with stop, to the path enumeration: the same reached set and every σ,
// topo_β and topo_αβ within 1e-12, the source's cycles included.
func requireMatchesPaths(t *testing.T, label string, e *Engine, x *Exploration, maxLen int, stop func(graph.NodeID) bool) {
	t.Helper()
	ps := enumeratePaths(e, x.Src, x.Topics, maxLen, stop)
	reached := len(ps.sigma)
	if _, ok := ps.sigma[x.Src]; ok {
		reached--
	}
	if len(x.Reached) != reached {
		t.Fatalf("%s: reached %d nodes, the enumeration %d", label, len(x.Reached), reached)
	}
	for v := 0; v < e.g.NumNodes(); v++ {
		id := graph.NodeID(v)
		for ti := range x.Topics {
			var want float64
			if row := ps.sigma[id]; row != nil {
				want = row[ti]
			}
			if got := x.Sigma(id, ti); !almostEqual(got, want, 1e-12) {
				t.Fatalf("%s: σ(%d, t%d) = %g, want %g", label, v, x.Topics[ti], got, want)
			}
		}
		if got, want := x.TopoB(id), ps.topoB[id]; !almostEqual(got, want, 1e-12) {
			t.Fatalf("%s: topoB(%d) = %g, want %g", label, v, got, want)
		}
		if got, want := x.TopoAB(id), ps.topoAB[id]; !almostEqual(got, want, 1e-12) {
			t.Fatalf("%s: topoAB(%d) = %g, want %g", label, v, got, want)
		}
	}
}

// TestExploreMatchesBruteForce cross-checks the hop recurrence
// (Proposition 1) against literal path enumeration (Definition 1) on
// random graphs, for σ, topo_β and topo_αβ: every variant, depths 1, 2
// and 5, pruned at stopped nodes or not, two topics per call, with the
// results read in place (TestDenseMatchesMap holds the copied-out form to
// them). With Tol 0 every call runs exactly its depth. Unpruned, the
// enumeration also agrees with the exported oracles BruteForceSigma and
// BruteForceTopo.
func TestExploreMatchesBruteForce(t *testing.T) {
	stop := func(v graph.NodeID) bool { return v%7 == 3 }
	for seed := uint64(0); seed < 5; seed++ {
		ds := gen.RandomWith(30, 250, seed)
		auth := authority.Compute(ds.Graph)
		for _, variant := range []Variant{TrFull, TrNoAuth, TrNoSim, TopoOnly} {
			p := DefaultParams()
			p.Beta, p.Alpha = 0.2, 0.7 // large decays stress cycle handling
			p.Tol = 0
			p.Variant = variant
			e, err := NewEngine(ds.Graph, auth, ds.Sim, p)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			scratch := NewScratch(e)
			src := graph.NodeID(seed % 30)
			ts := []topics.ID{topics.ID(seed % 18), topics.ID((seed + 5) % 18)}
			for _, depth := range []int{1, 2, 5} {
				for _, st := range []func(graph.NodeID) bool{nil, stop} {
					label := fmt.Sprintf("seed %d %v depth %d stop %v", seed, variant, depth, st != nil)
					inPlace := e.ExploreOpts(src, ts, ExploreOptions{MaxDepth: depth, Stop: st, Scratch: scratch})
					if inPlace.Iterations != depth || inPlace.Converged {
						t.Fatalf("%s: %d hops (converged %v) at Tol 0", label, inPlace.Iterations, inPlace.Converged)
					}
					requireMatchesPaths(t, label, e, inPlace, depth, st)
				}
			}
			if variant == TrFull {
				ps := enumeratePaths(e, src, ts[:1], 2, nil)
				for v := 0; v < ds.Graph.NumNodes(); v++ {
					id := graph.NodeID(v)
					var sigma float64
					if row := ps.sigma[id]; row != nil {
						sigma = row[0]
					}
					if want := e.BruteForceSigma(src, id, ts[0], 2); !almostEqual(sigma, want, 1e-12) {
						t.Fatalf("seed %d: enumerated σ(%d) = %g, BruteForceSigma %g", seed, v, sigma, want)
					}
					if want := e.BruteForceTopo(src, id, p.Beta, 2); !almostEqual(ps.topoB[id], want, 1e-12) {
						t.Fatalf("seed %d: enumerated topoB(%d) = %g, BruteForceTopo %g", seed, v, ps.topoB[id], want)
					}
				}
			}
		}
	}
}

// TestExploreAllTopicsConsistent verifies that a multi-topic exploration
// yields the same per-topic scores as independent single-topic ones.
func TestExploreAllTopicsConsistent(t *testing.T) {
	ds := gen.RandomWith(20, 80, 7)
	auth := authority.Compute(ds.Graph)
	p := DefaultParams()
	p.Beta = 0.05
	e, err := NewEngine(ds.Graph, auth, ds.Sim, p)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.NodeID(3)
	all := e.Explore(src, nil, 0)
	if len(all.Topics) != ds.Vocabulary().Len() {
		t.Fatalf("nil topics should mean all: got %d", len(all.Topics))
	}
	for ti := 0; ti < ds.Vocabulary().Len(); ti += 5 {
		single := e.Explore(src, []topics.ID{topics.ID(ti)}, 0)
		for _, v := range all.Reached {
			if got, want := single.Sigma(v, 0), all.Sigma(v, ti); !almostEqual(got, want, 1e-12) {
				t.Errorf("topic %d node %d: single %g vs all %g", ti, v, got, want)
			}
		}
	}
	// A list repeating one topic past the vocabulary's size outgrows the
	// engine's pooled scratch; every column still equals the topic alone.
	single := e.Explore(src, []topics.ID{2}, 0)
	repeated := make([]topics.ID, ds.Vocabulary().Len()+2)
	for i := range repeated {
		repeated[i] = 2
	}
	wide := e.Explore(src, repeated, 0)
	for _, v := range single.Reached {
		for ti := range repeated {
			if wide.Sigma(v, ti) != single.Sigma(v, 0) {
				t.Fatalf("node %d column %d: %g vs %g alone", v, ti, wide.Sigma(v, ti), single.Sigma(v, 0))
			}
		}
	}
}

// TestExploreConvergence checks that with the paper's tiny β the
// computation converges well before the depth cap and that deeper caps do
// not change converged scores materially.
func TestExploreConvergence(t *testing.T) {
	ds := gen.RandomWith(30, 200, 11)
	auth := authority.Compute(ds.Graph)
	p := DefaultParams() // β = 0.0005
	e, err := NewEngine(ds.Graph, auth, ds.Sim, p)
	if err != nil {
		t.Fatal(err)
	}
	x := e.Explore(graph.NodeID(0), []topics.ID{0}, 0)
	if !x.Converged {
		t.Fatalf("expected convergence within %d hops (got %d iterations)", p.MaxDepth, x.Iterations)
	}
	if x.Iterations >= p.MaxDepth {
		t.Errorf("convergence should beat the cap: %d iterations", x.Iterations)
	}
	// Doubling the cap must not change scores beyond the tolerance scale.
	p2 := p
	p2.MaxDepth = p.MaxDepth * 2
	e2, _ := NewEngine(ds.Graph, auth, ds.Sim, p2)
	y := e2.Explore(graph.NodeID(0), []topics.ID{0}, 0)
	for _, v := range x.Reached {
		if !almostEqual(x.Sigma(v, 0), y.Sigma(v, 0), 1e-9) {
			t.Errorf("node %d: scores diverge after convergence: %g vs %g", v, x.Sigma(v, 0), y.Sigma(v, 0))
		}
	}
}

// TestExploreSourceWithoutEdges covers isolated sources.
func TestExploreSourceWithoutEdges(t *testing.T) {
	vocab := topics.MustVocabulary([]string{"a", "b"})
	b := graph.NewBuilder(vocab, 3)
	b.AddEdge(1, 2, topics.NewSet(0))
	g := b.MustFreeze()
	tax := topics.NewTaxonomyBuilder(vocab).Topic("a", "root").Topic("b", "root").MustBuild()
	e, err := NewEngine(g, authority.Compute(g), tax.SimMatrix(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	x := e.Explore(0, []topics.ID{0}, 0)
	if len(x.Reached) != 0 {
		t.Errorf("isolated source reached %d nodes", len(x.Reached))
	}
	if x.Sigma(2, 0) != 0 || x.TopoB(2) != 0 {
		t.Errorf("isolated source must score nothing")
	}
}

// TestFigure1Ordering reproduces Example 2: recommending technology
// accounts to A at range 2 must rank D (via the high-authority,
// tech-labeled path through B) above E.
func TestFigure1Ordering(t *testing.T) {
	f := figure1(t)
	e := f.engine(t, defaultTestParams())
	x := e.Explore(f.A, []topics.ID{f.tech}, 2)
	sd, se := x.Sigma(f.D, 0), x.Sigma(f.E, 0)
	if sd <= se {
		t.Fatalf("Example 2 violated: sigma(D)=%g should exceed sigma(E)=%g", sd, se)
	}
}

// TestFigure1Authority reproduces Example 1: B has higher technology
// authority than C (specialization), while C has at least B's authority
// on science ("bigdata": more followers on it).
func TestFigure1Authority(t *testing.T) {
	f := figure1(t)
	bTech, cTech := f.auth.Score(f.B, f.tech), f.auth.Score(f.C, f.tech)
	if bTech <= cTech {
		t.Errorf("auth(B,tech)=%g should exceed auth(C,tech)=%g", bTech, cTech)
	}
	bSci, cSci := f.auth.Score(f.B, f.science), f.auth.Score(f.C, f.science)
	if cSci <= 0 || bSci <= 0 {
		t.Fatalf("science authorities must be positive: B=%g C=%g", bSci, cSci)
	}
}
