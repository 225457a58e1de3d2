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

// Tests for the factored converged exploration (converged.go). Its
// contract is the converged score itself: against the float64 hop
// recurrence run far past Algorithm 1's cut-off, every σ, topo_β and
// topo_αβ agrees to 1e-5 relative or lies under Tol (where both forms cut
// the tail), for every variant, weighted or not. The landmark package
// holds the stored lists to the hop-recurrence reference.

// twitterEngine builds a default-parameter engine over the synthetic
// Twitter graph of the given size.
func twitterEngine(tb testing.TB, nodes int, v Variant) *Engine {
	tb.Helper()
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = nodes
	ds, err := gen.Twitter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	p := DefaultParams()
	p.Variant = v
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, p)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// deepReference is the float64 hop recurrence from src run with no
// tolerance for maxDepth hops: the converged score to float64 resolution.
func deepReference(e *Engine, src graph.NodeID, maxDepth int) *Exploration {
	deep := *e
	deep.params.Tol = 0
	deep.params.MaxDepth = maxDepth
	return deep.Explore(src, nil, 0)
}

// requireConvergedClose holds x to the deep reference: every score within
// 1e-5 relative or Tol absolute, the hop recurrence's reached set covered,
// and a horizon at least the hop recurrence's.
func requireConvergedClose(t *testing.T, label string, e *Engine, x *Exploration) {
	t.Helper()
	if x == nil {
		t.Fatalf("%s: factored exploration did not converge", label)
	}
	ref := deepReference(e, x.Src, 40)
	hop := e.Explore(x.Src, nil, 0)
	if x.Iterations < hop.Iterations || !x.Converged {
		t.Fatalf("%s: horizon %d (converged %v), hop recurrence ran %d", label, x.Iterations, x.Converged, hop.Iterations)
	}
	if len(x.Reached) < len(hop.Reached) {
		t.Fatalf("%s: reached %d nodes, hop recurrence %d", label, len(x.Reached), len(hop.Reached))
	}
	near := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= 1e-5*math.Max(math.Abs(a), math.Abs(b)) || d < e.params.Tol
	}
	reached := make(map[graph.NodeID]bool, len(x.Reached))
	for _, v := range x.Reached {
		reached[v] = true
	}
	for v := 0; v < e.g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if !near(x.TopoB(id), ref.TopoB(id)) || !near(x.TopoAB(id), ref.TopoAB(id)) {
			t.Fatalf("%s node %d: topo (%g, %g), reference (%g, %g)", label, v,
				x.TopoB(id), x.TopoAB(id), ref.TopoB(id), ref.TopoAB(id))
		}
		for ti := range ref.Topics {
			if !near(x.Sigma(id, ti), ref.Sigma(id, ti)) {
				t.Fatalf("%s node %d topic %d: σ %g, reference %g", label, v, ti, x.Sigma(id, ti), ref.Sigma(id, ti))
			}
			// A σ column may outrun its source's topo column, but every
			// node it scores is listed, so list building sees it.
			if x.Sigma(id, ti) > 0 && id != x.Src && !reached[id] {
				t.Fatalf("%s node %d: σ %g on topic %d but not in Reached", label, v, x.Sigma(id, ti), ti)
			}
		}
	}
}

// TestExploreConvergedMatchesDeepRecurrence: on a Twitter-shaped graph at
// the paper's parameters, for every variant, unweighted and
// decay-weighted, the factored form is the converged score.
func TestExploreConvergedMatchesDeepRecurrence(t *testing.T) {
	for _, v := range []Variant{TrFull, TrNoAuth, TrNoSim, TopoOnly} {
		e := twitterEngine(t, 500, v)
		g := e.g.(*graph.Graph)
		weighted := e.WithEdgeWeights(graph.BuildWeights(g, func(src, dst graph.NodeID) float32 {
			return 0.25 + 0.75*float32((uint32(src)*2654435761^uint32(dst)*40503)>>8%1024+1)/1024
		}))
		for _, eng := range []*Engine{e, weighted} {
			in := eng.InAdjacency()
			s := NewScratch(eng)
			for _, src := range []graph.NodeID{0, 7, 123, 499} {
				label := fmt.Sprintf("%v weighted=%v src=%d", v, eng.wts != nil, src)
				requireConvergedClose(t, label, eng, exploreOne(in, src, s))
			}
		}
	}
}

// TestExploreConvergedSmallGraphs covers the shapes a Twitter graph
// hides: a lone node, a node with no out-edges, a cycle through the
// source, an unreachable component and a chain whose tail lies past the
// hop recurrence's cut-off.
func TestExploreConvergedSmallGraphs(t *testing.T) {
	vocab := topics.WebTaxonomy().Vocabulary()
	T := vocab.Len()
	lbl := func(i int) topics.Set { return topics.NewSet(topics.ID(i%T), topics.ID((i+3)%T)) }
	build := func(n int, edges [][2]int) *Engine {
		b := graph.NewBuilder(vocab, n)
		for u := 0; u < n; u++ {
			b.SetNodeTopics(graph.NodeID(u), lbl(u))
		}
		for i, ed := range edges {
			b.AddEdge(graph.NodeID(ed[0]), graph.NodeID(ed[1]), lbl(i))
		}
		g := b.MustFreeze()
		e, err := NewEngine(g, authority.Compute(g), topics.WebTaxonomy().SimMatrix(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	chain := make([][2]int, 0, 39)
	for u := 0; u < 39; u++ {
		chain = append(chain, [2]int{u, u + 1})
	}
	cases := []struct {
		name string
		e    *Engine
		srcs []graph.NodeID
	}{
		{"single node", build(1, nil), []graph.NodeID{0}},
		{"no out-edges", build(4, [][2]int{{1, 0}, {2, 0}, {3, 1}}), []graph.NodeID{0, 3}},
		{"cycle through the source", build(5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 0}}), []graph.NodeID{0, 2}},
		{"two components", build(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}}), []graph.NodeID{0, 4}},
		{"chain", build(40, chain), []graph.NodeID{0, 30}},
	}
	for _, tc := range cases {
		in := tc.e.InAdjacency()
		s := NewScratch(tc.e)
		for _, src := range tc.srcs {
			x := exploreOne(in, src, s)
			requireConvergedClose(t, fmt.Sprintf("%s src=%d", tc.name, src), tc.e, x)
			for _, v := range x.Reached {
				if v == src {
					t.Fatalf("%s: Reached lists the source", tc.name)
				}
			}
		}
	}
}

// TestExploreConvergedFallsBack: at β = 0.05 on a dense random graph
// pass 1 does not converge within MaxDepth, so Explore returns nil — and
// leaves the scratch clean: a converging exploration through it afterwards
// is bit-identical to one through a fresh scratch.
func TestExploreConvergedFallsBack(t *testing.T) {
	ds := gen.RandomWith(120, 1500, 3)
	p := DefaultParams()
	slow, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, p.withBeta(0.05))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, p)
	if err != nil {
		t.Fatal(err)
	}
	// A MaxDepth under the hops pass 1 needs at the paper's β is the same
	// verdict.
	capped := *fast
	capped.params.MaxDepth = 5
	shared := NewScratch(fast)
	fastIn := fast.InAdjacency()
	for _, src := range []graph.NodeID{3, 17, 99} {
		if x := exploreOne(slow.InAdjacency(), src, shared); x != nil {
			t.Fatalf("src %d: β = 0.05 converged in factored form after %d hops", src, x.Iterations)
		}
		if x := exploreOne(capped.InAdjacency(), src, shared); x != nil {
			t.Fatalf("src %d: converged in factored form after %d hops with MaxDepth 5", src, x.Iterations)
		}
		got := exploreOne(fastIn, src, shared)
		want := exploreOne(fastIn, src, NewScratch(fast))
		if got.Iterations != want.Iterations || len(got.Reached) != len(want.Reached) {
			t.Fatalf("src %d: reused scratch ran %d hops over %d nodes, fresh %d over %d",
				src, got.Iterations, len(got.Reached), want.Iterations, len(want.Reached))
		}
		for v := 0; v < ds.Graph.NumNodes(); v++ {
			id := graph.NodeID(v)
			if got.TopoB(id) != want.TopoB(id) || got.TopoAB(id) != want.TopoAB(id) {
				t.Fatalf("src %d: reused scratch topo differs at node %d", src, v)
			}
			for ti := range want.Topics {
				if got.Sigma(id, ti) != want.Sigma(id, ti) {
					t.Fatalf("src %d: reused scratch σ differs at (%d, t%d)", src, v, ti)
				}
			}
		}
	}
}

// exploreOne is the all-topic factored exploration from src alone.
func exploreOne(in *InAdjacency, src graph.NodeID, s *Scratch) *Exploration {
	xs := in.Explore([]graph.NodeID{src}, nil, s)
	if xs == nil {
		return nil
	}
	return &xs[0]
}

func (p Params) withBeta(beta float64) Params {
	p.Beta = beta
	return p
}

// BenchmarkExploreConverged is one all-topic converged exploration in
// factored form — a landmark's preprocessing — on the 2000- and 8000-node
// graphs, through a reused scratch. allocs/op is gated by `make
// kernel-gate`: the passes run in the scratch's rows and allocate only
// the result and its Reached list.
func BenchmarkExploreConverged(b *testing.B) {
	for _, nodes := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			e := twitterEngine(b, nodes, TrFull)
			in := e.InAdjacency()
			s := NewScratch(e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if exploreOne(in, graph.NodeID(i%nodes), s) == nil {
					b.Fatal("factored exploration did not converge")
				}
			}
		})
	}
}
