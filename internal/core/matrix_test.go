package core

import (
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// TestMatrixFormMatchesExploration cross-validates the two computations
// of the same fixpoint: Equation 6's matrix iteration and the frontier
// exploration of Proposition 1 must agree for every node, variant and
// depth: the matrix form computes the paper's σ, the exploration σ/g(t).
func TestMatrixFormMatchesExploration(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		ds := gen.RandomWith(20, 120, seed+40)
		auth := authority.Compute(ds.Graph)
		p := DefaultParams()
		p.Beta, p.Alpha = 0.25, 0.75
		p.Tol = 0
		p.Variant = Variant(seed % 4)
		e, err := NewEngine(ds.Graph, auth, ds.Sim, p)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.NodeID(seed % 20)
		tt := topics.ID(seed % 18)
		for _, depth := range []int{1, 2, 4, 7} {
			mat := e.MatrixExplore(src, tt, depth)
			exp := e.Explore(src, []topics.ID{tt}, depth)
			for v := 0; v < 20; v++ {
				vid := graph.NodeID(v)
				if vid == src {
					continue
				}
				if got := e.Norm(tt) * exp.Sigma(vid, 0); !almostEqual(mat[v], got, 1e-10) {
					t.Fatalf("seed %d depth %d variant %v node %d: matrix %g vs exploration %g",
						seed, depth, p.Variant, v, mat[v], got)
				}
			}
		}
	}
}

// TestMatrixFormConverges: with the paper's β, successive iterations stop
// changing (Proposition 3 in action on the literal Equation 6).
func TestMatrixFormConverges(t *testing.T) {
	ds := gen.RandomWith(30, 250, 2)
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := e.MatrixExplore(0, 0, 12)
	b := e.MatrixExplore(0, 0, 24)
	for v := range a {
		if !almostEqual(a[v], b[v], 1e-12) {
			t.Fatalf("node %d: %g vs %g after doubling iterations", v, a[v], b[v])
		}
	}
}
