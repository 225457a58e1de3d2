package core

import (
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// TestDenseMatchesMap: both frontier representations must produce
// bit-identical scores... floating-point accumulation order differs, so
// identical-within-epsilon, across variants, depths, stops and reuse.
func TestDenseMatchesMap(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		ds := gen.RandomWith(30, 250, seed)
		auth := authority.Compute(ds.Graph)
		p := DefaultParams()
		p.Beta, p.Alpha = 0.2, 0.7
		p.Tol = 0
		p.Variant = Variant(seed % 4)
		e, err := NewEngine(ds.Graph, auth, ds.Sim, p)
		if err != nil {
			t.Fatal(err)
		}
		scratch := NewScratch(e)
		stop := func(v graph.NodeID) bool { return v%7 == 3 }
		for _, depth := range []int{1, 2, 5} {
			for _, withStop := range []bool{false, true} {
				var st func(graph.NodeID) bool
				if withStop {
					st = stop
				}
				src := graph.NodeID(seed % 30)
				ts := []topics.ID{topics.ID(seed % 18), topics.ID((seed + 5) % 18)}
				m := e.ExploreOpts(src, ts, ExploreOptions{MaxDepth: depth, Stop: st, Mode: MapMode})
				d := e.ExploreOpts(src, ts, ExploreOptions{MaxDepth: depth, Stop: st, Mode: DenseMode, Scratch: scratch})
				if len(m.Reached) != len(d.Reached) {
					t.Fatalf("seed %d depth %d stop %v: reached %d vs %d",
						seed, depth, withStop, len(m.Reached), len(d.Reached))
				}
				if m.Iterations != d.Iterations || m.Converged != d.Converged {
					t.Fatalf("seed %d: iteration bookkeeping differs (%d,%v) vs (%d,%v)",
						seed, m.Iterations, m.Converged, d.Iterations, d.Converged)
				}
				for _, v := range m.Reached {
					for ti := range ts {
						if !almostEqual(m.Sigma(v, ti), d.Sigma(v, ti), 1e-12) {
							t.Fatalf("sigma(%d) differs: %g vs %g", v, m.Sigma(v, ti), d.Sigma(v, ti))
						}
					}
					if !almostEqual(m.TopoB(v), d.TopoB(v), 1e-12) ||
						!almostEqual(m.TopoAB(v), d.TopoAB(v), 1e-12) {
						t.Fatalf("topo(%d) differs", v)
					}
				}
			}
		}
	}
}

// TestScratchReuseIsClean: interleaved explorations from different sources
// through one scratch must not leak state.
func TestScratchReuseIsClean(t *testing.T) {
	ds := gen.RandomWith(25, 200, 9)
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewScratch(e)
	fresh := func(src graph.NodeID) *Exploration {
		return e.ExploreOpts(src, []topics.ID{0}, ExploreOptions{Mode: DenseMode})
	}
	reused := func(src graph.NodeID) *Exploration {
		return e.ExploreOpts(src, []topics.ID{0}, ExploreOptions{Mode: DenseMode, Scratch: scratch})
	}
	for src := graph.NodeID(0); src < 25; src += 3 {
		a, b := fresh(src), reused(src)
		if len(a.Reached) != len(b.Reached) {
			t.Fatalf("src %d: reached %d vs %d", src, len(a.Reached), len(b.Reached))
		}
		for _, v := range a.Reached {
			if !almostEqual(a.Sigma(v, 0), b.Sigma(v, 0), 1e-12) {
				t.Fatalf("src %d node %d: %g vs %g", src, v, a.Sigma(v, 0), b.Sigma(v, 0))
			}
		}
	}
}

// TestScratchWrongSizeFallsBack: a scratch sized for another graph must
// not corrupt results.
func TestScratchWrongSizeFallsBack(t *testing.T) {
	small := gen.RandomWith(10, 40, 1)
	big := gen.RandomWith(40, 300, 2)
	eSmall, _ := NewEngine(small.Graph, authority.Compute(small.Graph), small.Sim, DefaultParams())
	eBig, _ := NewEngine(big.Graph, authority.Compute(big.Graph), big.Sim, DefaultParams())
	scr := NewScratch(eSmall)
	x := eBig.ExploreOpts(0, []topics.ID{0}, ExploreOptions{Mode: DenseMode, Scratch: scr})
	y := eBig.ExploreOpts(0, []topics.ID{0}, ExploreOptions{Mode: MapMode})
	if len(x.Reached) != len(y.Reached) {
		t.Fatalf("mis-sized scratch corrupted the exploration: %d vs %d", len(x.Reached), len(y.Reached))
	}
}

func BenchmarkExploreMap(b *testing.B)   { benchExplore(b, MapMode) }
func BenchmarkExploreDense(b *testing.B) { benchExplore(b, DenseMode) }

// The kernel benchmarks run the same workload through the cache-aware
// float32 kernel under each relabeling order; comparing them against
// BenchmarkExploreDense is the tentpole speedup measurement (and the
// Makefile's kernel-gate regression guard).
func BenchmarkExploreKernelDegree(b *testing.B) { benchExplore(b, KernelMode, graph.DegreeOrder) }
func BenchmarkExploreKernelBFS(b *testing.B)    { benchExplore(b, KernelMode, graph.BFSOrder) }

func benchExplore(b *testing.B, mode Mode, order ...graph.Order) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 3000
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	if mode == KernelMode {
		e = e.Optimized(order[0])
	}
	scratch := NewScratch(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := e.ExploreOpts(graph.NodeID(i%ds.Graph.NumNodes()), nil, ExploreOptions{
			Mode:    mode,
			Scratch: scratch,
		})
		if x.Iterations == 0 {
			b.Fatal("no propagation")
		}
	}
}

// BenchmarkExploreQueryDepth2 measures the shallow query-time exploration
// (Algorithm 2's first phase).
func BenchmarkExploreQueryDepth2(b *testing.B) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 3000
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Explore(graph.NodeID(i%ds.Graph.NumNodes()), []topics.ID{0}, 2)
	}
}
