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

// relClose reports whether a and b agree within tol relative to the
// larger of the two.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestNormTimesSigmaIsPaperSigma: explorations fold the local authority
// factor num and hold σ/g(t); Norm(t) times what they hold is the paper's
// σ, which MatrixExplore and BruteForceSigma compute with auth = num·g(t)
// on every edge. It checks the hop recurrence at fixed depths on the
// Figure 1 fixture and on random graphs, and the factored form on the
// fixture (a DAG, where it sums every path), for every variant, with β
// swept up to MaxBeta; Norm is 1 for the variants without authority.
func TestNormTimesSigmaIsPaperSigma(t *testing.T) {
	f := figure1(t)
	type tcase struct {
		name string
		g    *graph.Graph
		auth *authority.Table
		sim  *topics.SimMatrix
	}
	cases := []tcase{{"figure1", f.g, f.auth, f.sim}}
	for seed := uint64(0); seed < 3; seed++ {
		ds := gen.RandomWith(20, 120, seed+60)
		cases = append(cases, tcase{fmt.Sprintf("random seed %d", seed), ds.Graph, authority.Compute(ds.Graph), ds.Sim})
	}
	for _, tc := range cases {
		n := tc.g.NumNodes()
		bound := MaxBeta(tc.g)
		for _, variant := range []Variant{TrFull, TrNoSim, TrNoAuth, TopoOnly} {
			for _, frac := range []float64{0, 0.05, 0.3, 0.9, 0.999} {
				p := DefaultParams()
				p.Variant = variant
				if frac > 0 {
					p.Beta = min(frac*bound, 0.999)
				}
				e, err := NewEngine(tc.g, tc.auth, tc.sim, p)
				if err != nil {
					t.Fatal(err)
				}
				for tp := 0; tp < tc.g.Vocabulary().Len(); tp += 5 {
					tt := topics.ID(tp)
					g := e.Norm(tt)
					if (variant == TrNoAuth || variant == TopoOnly) && g != 1 {
						t.Fatalf("%s %v: Norm(%d) = %v without authority, want 1", tc.name, variant, tp, g)
					}
					for src := graph.NodeID(0); int(src) < n; src += 3 {
						label := fmt.Sprintf("%s %v β=%g src %d topic %d", tc.name, variant, p.Beta, src, tp)
						for _, depth := range []int{1, 2, 3} {
							x := e.ExploreOpts(src, []topics.ID{tt}, ExploreOptions{MaxDepth: depth})
							mat := e.MatrixExplore(src, tt, depth)
							for v := 0; v < n; v++ {
								id := graph.NodeID(v)
								if id == src {
									continue
								}
								got := g * x.Sigma(id, 0)
								if !relClose(got, mat[v], 1e-12) {
									t.Fatalf("%s depth %d node %d: g·σ %v, MatrixExplore %v", label, depth, v, got, mat[v])
								}
								if want := e.BruteForceSigma(src, id, tt, depth); !relClose(got, want, 1e-12) {
									t.Fatalf("%s depth %d node %d: g·σ %v, BruteForceSigma %v", label, depth, v, got, want)
								}
							}
						}
						if tc.name != "figure1" {
							continue
						}
						// The fixture is a DAG of depth 2: the factored form
						// converges on it and holds every path.
						in := e.InAdjacency()
						xs := in.Explore([]graph.NodeID{src}, []topics.ID{tt}, NewScratch(e))
						if xs == nil {
							t.Fatalf("%s: factored exploration did not converge on a DAG", label)
						}
						mat := e.MatrixExplore(src, tt, n)
						for v := 0; v < n; v++ {
							if graph.NodeID(v) == src {
								continue
							}
							if got := g * xs[0].Sigma(graph.NodeID(v), 0); !relClose(got, mat[v], 1e-12) {
								t.Fatalf("%s factored node %d: g·σ %v, MatrixExplore %v", label, v, got, mat[v])
							}
						}
					}
				}
			}
		}
	}
}
