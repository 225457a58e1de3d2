package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// diffExploration reports the first way got differs from want — hop
// bookkeeping, the reached list in order, or any node's scores, compared
// with == — or "" when they are the same exploration.
func diffExploration(e *Engine, got, want *Exploration) string {
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Cancelled != want.Cancelled {
		return fmt.Sprintf("ran %d hops (converged %v), want %d (%v)",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if !slices.Equal(got.Topics, want.Topics) || !slices.Equal(got.Reached, want.Reached) {
		return fmt.Sprintf("reached %d nodes over %d topics, want %d over %d (or another order)",
			len(got.Reached), len(got.Topics), len(want.Reached), len(want.Topics))
	}
	for v := 0; v < e.g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if got.TopoB(id) != want.TopoB(id) || got.TopoAB(id) != want.TopoAB(id) {
			return fmt.Sprintf("node %d: topo (%g, %g), want (%g, %g)", v,
				got.TopoB(id), got.TopoAB(id), want.TopoB(id), want.TopoAB(id))
		}
		if g, w := got.SigmaRow(id), want.SigmaRow(id); (g == nil) != (w == nil) || !slices.Equal(g, w) {
			return fmt.Sprintf("node %d: σ %v, want %v", v, g, w)
		}
	}
	return ""
}

func requireSameExploration(t *testing.T, label string, e *Engine, got, want *Exploration) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: no exploration (got %v, want %v)", label, got != nil, want != nil)
	}
	if msg := diffExploration(e, got, want); msg != "" {
		t.Fatalf("%s: %s", label, msg)
	}
}

// TestDenseMatchesMap: an exploration read in place from a caller's
// scratch rows and the same exploration copied out into the Exploration's
// maps (no scratch passed, one borrowed from the engine's pool) must be
// the same bit for bit — across variants, depths, stops and one scratch
// reused through the whole grid.
func TestDenseMatchesMap(t *testing.T) {
	stop := func(v graph.NodeID) bool { return v%7 == 3 }
	for seed := uint64(0); seed < 5; seed++ {
		ds := gen.RandomWith(30, 250, seed)
		auth := authority.Compute(ds.Graph)
		for _, variant := range []Variant{TrFull, TrNoAuth, TrNoSim, TopoOnly} {
			p := DefaultParams()
			p.Beta, p.Alpha = 0.2, 0.7
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
					m := e.ExploreOpts(src, ts, ExploreOptions{MaxDepth: depth, Stop: st})
					d := e.ExploreOpts(src, ts, ExploreOptions{MaxDepth: depth, Stop: st, Scratch: scratch})
					requireSameExploration(t, label, e, d, m)
				}
			}
		}
	}
}

// TestScratchReuseIsClean runs one scratch through explorations of
// changing row width — one topic, every topic, the factored form, one
// topic again — from several sources, each read in place and copied out.
// Every result must equal the same exploration on a fresh scratch bit for
// bit: rows written at one width may not leak into a call of another. The
// graph is sparse, so successive sources reach different node sets and a
// row left dirty is read by a later call.
func TestScratchReuseIsClean(t *testing.T) {
	ds := gen.RandomWith(60, 150, 9)
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	in := e.InAdjacency()
	oneTopic := func(tp topics.ID) func(graph.NodeID, *Scratch) *Exploration {
		return func(src graph.NodeID, s *Scratch) *Exploration {
			return e.ExploreOpts(src, []topics.ID{tp}, ExploreOptions{Scratch: s})
		}
	}
	steps := []struct {
		name string
		run  func(graph.NodeID, *Scratch) *Exploration
	}{
		{"one topic", oneTopic(3)},
		{"all topics", func(src graph.NodeID, s *Scratch) *Exploration {
			return e.ExploreOpts(src, nil, ExploreOptions{Scratch: s})
		}},
		{"factored", func(src graph.NodeID, s *Scratch) *Exploration { return exploreOne(in, src, s) }},
		{"factored, one topic, many sources", func(src graph.NodeID, s *Scratch) *Exploration {
			srcs := make([]graph.NodeID, in.MaxSources(1))
			for i := range srcs {
				srcs[i] = (src + graph.NodeID(7*i)) % 60
			}
			return &in.Explore(srcs, []topics.ID{5}, s)[0]
		}},
		{"one topic again", oneTopic(11)},
	}
	shared := NewScratch(e)
	for src := graph.NodeID(0); src < 60; src += 3 {
		for _, copied := range []bool{false, true} {
			for _, st := range steps {
				got := st.run(src, shared)
				if copied && got != nil {
					got = got.detach()
				}
				want := st.run(src, NewScratch(e))
				requireSameExploration(t, fmt.Sprintf("src %d %s (copied %v)", src, st.name, copied), e, got, want)
			}
		}
	}
}

// TestFoldClearedOnPut: a fold buffer lists each touched node once, in
// first-touch order, and goes back to the pool all-zero.
func TestFoldClearedOnPut(t *testing.T) {
	p := newScratchPool(10, 2)
	s := p.Get()
	f := s.Fold()
	f.Add(7, 0.5)
	f.Add(2, 0.25)
	f.Add(7, 0.125)
	if got := f.Touched(); !slices.Equal(got, []graph.NodeID{7, 2}) {
		t.Fatalf("touched %v, want [7 2]", got)
	}
	if f.At(7) != 0.625 || f.At(2) != 0.25 || f.At(3) != 0 {
		t.Fatalf("sums %v %v %v", f.At(7), f.At(2), f.At(3))
	}
	p.Put(s)
	if len(f.Touched()) != 0 || slices.ContainsFunc(f.val, func(x float64) bool { return x != 0 }) {
		t.Fatal("fold buffer went back to the pool dirty")
	}
}

// TestScratchWrongSizeFallsBack: a scratch sized for another graph is not
// used — the exploration borrows a fitting one and copies its results out
// — so it matches the exploration through a fitting scratch.
func TestScratchWrongSizeFallsBack(t *testing.T) {
	small := gen.RandomWith(10, 40, 1)
	big := gen.RandomWith(40, 300, 2)
	eSmall, _ := NewEngine(small.Graph, authority.Compute(small.Graph), small.Sim, DefaultParams())
	eBig, _ := NewEngine(big.Graph, authority.Compute(big.Graph), big.Sim, DefaultParams())
	ts := []topics.ID{0}
	got := eBig.ExploreOpts(0, ts, ExploreOptions{Scratch: NewScratch(eSmall)})
	want := eBig.ExploreOpts(0, ts, ExploreOptions{Scratch: NewScratch(eBig)})
	requireSameExploration(t, "mis-sized scratch", eBig, got, want)
}

// BenchmarkExploreDense is one all-topic hop-recurrence exploration on
// the 3000-node Twitter graph through a reused scratch, results read in
// place. allocs/op is gated by `make kernel-gate`.
func BenchmarkExploreDense(b *testing.B) {
	e := twitterEngine(b, 3000, TrFull)
	scratch := NewScratch(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := e.ExploreOpts(graph.NodeID(i%3000), nil, ExploreOptions{Scratch: scratch})
		if x.Iterations == 0 {
			b.Fatal("no propagation")
		}
	}
}

// BenchmarkExploreQueryDepth2 measures the shallow query-time exploration
// (Algorithm 2's first phase) with its results copied out.
func BenchmarkExploreQueryDepth2(b *testing.B) {
	e := twitterEngine(b, 3000, TrFull)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Explore(graph.NodeID(i%3000), []topics.ID{0}, 2)
	}
}
