package authority

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

func buildGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(topics.MustVocabulary([]string{"t0", "t1", "t2"}), n)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst, e.Label)
	}
	return b.MustFreeze()
}

func TestScoreClosedForm(t *testing.T) {
	// Node 0: followed by 1 on {t0}, by 2 on {t0,t1}. Node 3: followed by
	// 4 on {t0} only.
	g := buildGraph(t, 5, []graph.Edge{
		{Src: 1, Dst: 0, Label: topics.NewSet(0)},
		{Src: 2, Dst: 0, Label: topics.NewSet(0, 1)},
		{Src: 4, Dst: 3, Label: topics.NewSet(0)},
	})
	tab := Compute(g)

	// max followers on t0 is 2 (node 0).
	if m := tab.MaxFollowersOnTopic(0); m != 2 {
		t.Fatalf("max followers on t0 = %d, want 2", m)
	}
	// auth(0, t0) = (2/2) × log(3)/log(3) = 1.
	if got := tab.Score(0, 0); !near(got, 1) {
		t.Errorf("auth(0,t0) = %g, want 1", got)
	}
	// auth(0, t1) = (1/2) × log(2)/log(2... max on t1 is 1) = 0.5.
	if got := tab.Score(0, 1); !near(got, 0.5) {
		t.Errorf("auth(0,t1) = %g, want 0.5", got)
	}
	// auth(3, t0) = (1/1) × log(2)/log(3).
	want := math.Log(2) / math.Log(3)
	if got := tab.Score(3, 0); !near(got, want) {
		t.Errorf("auth(3,t0) = %g, want %g", got, want)
	}
	// Nobody follows node 1: all zeros.
	for ti := 0; ti < 3; ti++ {
		if tab.Score(1, topics.ID(ti)) != 0 {
			t.Errorf("auth(1,t%d) must be 0", ti)
		}
	}
	// No follower on t2 anywhere: zero even for followed nodes, and so is
	// the topic's global factor.
	if tab.Score(0, 2) != 0 {
		t.Error("auth(0,t2) must be 0")
	}
	if g := tab.Norm(2); g != 0 {
		t.Errorf("g(t2) = %g with nobody followed on t2, want 0", g)
	}
	requireFinite(t, tab)
	// The factors: num(0, t0) = (2/2)·log(3) and g(t0) = 1/log(3).
	if got := tab.Num(0)[0]; !near(got, math.Log(3)) {
		t.Errorf("num(0,t0) = %g, want log 3", got)
	}
	if got := tab.Norm(0); !near(got, 1/math.Log(3)) {
		t.Errorf("g(t0) = %g, want 1/log 3", got)
	}
}

// requireFinite requires every factor of tab to be a finite number.
func requireFinite(t testing.TB, tab *Table) {
	t.Helper()
	for i, x := range tab.num {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("num: topic %d node %d is %v", i/tab.n, i%tab.n, x)
		}
	}
	for i, x := range tab.g {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("g(t%d) is %v", i, x)
		}
	}
}

func TestExample1FromPaper(t *testing.T) {
	// Paper Example 1: B and C equally popular on technology (2 each);
	// B more specialized (2 of 3 topic-follows) than C (2 of 6) ⇒
	// auth(B,tech) > auth(C,tech). On bigdata both have the same local
	// share but C has 2 followers vs B's 1 ⇒ auth(C,bigdata) higher.
	vocab := topics.MustVocabulary([]string{"technology", "bigdata", "other"})
	b := graph.NewBuilder(vocab, 8)
	B, C := graph.NodeID(0), graph.NodeID(1)
	// B's followers: 2 on tech, 1 on bigdata (3 topic-follows over 3 followers).
	b.AddEdge(2, B, topics.NewSet(0))
	b.AddEdge(3, B, topics.NewSet(0))
	b.AddEdge(4, B, topics.NewSet(1))
	// C's followers: 2 on tech, 2 on bigdata, 2 on other (6 over 6).
	b.AddEdge(2, C, topics.NewSet(0))
	b.AddEdge(3, C, topics.NewSet(0))
	b.AddEdge(4, C, topics.NewSet(1))
	b.AddEdge(5, C, topics.NewSet(1))
	b.AddEdge(6, C, topics.NewSet(2))
	b.AddEdge(7, C, topics.NewSet(2))
	g := b.MustFreeze()
	tab := Compute(g)
	if tab.Score(B, 0) <= tab.Score(C, 0) {
		t.Errorf("auth(B,tech)=%g must exceed auth(C,tech)=%g", tab.Score(B, 0), tab.Score(C, 0))
	}
	if tab.Score(C, 1) <= tab.Score(B, 1) {
		t.Errorf("auth(C,bigdata)=%g must exceed auth(B,bigdata)=%g", tab.Score(C, 1), tab.Score(B, 1))
	}
}

func TestScoreRange(t *testing.T) {
	ds := gen.RandomWith(60, 500, 3)
	tab := Compute(ds.Graph)
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		for ti := 0; ti < ds.Graph.Vocabulary().Len(); ti++ {
			if s := tab.Score(graph.NodeID(u), topics.ID(ti)); s < 0 || s > 1 {
				t.Fatalf("auth(%d,%d) = %g out of [0,1]", u, ti, s)
			}
		}
	}
}

func TestRecomputeAfterRemoval(t *testing.T) {
	ds := gen.RandomWith(40, 300, 9)
	tab := Compute(ds.Graph)
	edges := ds.Graph.Edges()
	reduced := ds.Graph.WithoutEdges(edges[:50])
	tab2 := Compute(reduced)
	// Same table recomputed in place must match a fresh one.
	tab.recompute(reduced)
	requireSameTable(t, tab, tab2)
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestApplyDeltaSingleAddition: ApplyDelta of one added follow edge
// equals a fresh Compute.
func TestApplyDeltaSingleAddition(t *testing.T) {
	ds := gen.RandomWith(50, 400, 11)
	g := ds.Graph
	tab := Compute(g)

	// Add an edge toward node 7 by rebuilding the graph, then update
	// incrementally and compare against a full recompute.
	b := graph.NewBuilder(g.Vocabulary(), g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		b.SetNodeTopics(graph.NodeID(u), g.NodeTopics(graph.NodeID(u)))
		dsts, lbls := g.Out(graph.NodeID(u))
		for i, v := range dsts {
			b.AddEdge(graph.NodeID(u), v, lbls[i])
		}
	}
	b.AddEdge(49, 7, topics.NewSet(0, 1))
	g2 := b.MustFreeze()

	tab.ApplyDelta(g2, []graph.NodeID{7})
	requireSameTable(t, tab, Compute(g2))
}

// TestApplyDeltaSingleRemoval: likewise for one removed edge.
func TestApplyDeltaSingleRemoval(t *testing.T) {
	ds := gen.RandomWith(30, 250, 13)
	g := ds.Graph
	tab := Compute(g)
	e := g.Edges()[0]
	g2 := g.WithoutEdges([]graph.Edge{e})
	tab.ApplyDelta(g2, []graph.NodeID{e.Dst})
	requireSameTable(t, tab, Compute(g2))
}

// requireSameTable requires got to equal want bit for bit: both factors,
// and the counts, in-degrees and maxima they were computed from.
func requireSameTable(t testing.TB, got, want *Table) {
	t.Helper()
	for i := range want.num {
		if got.num[i] != want.num[i] {
			t.Fatalf("num: topic %d node %d: incremental %v, computed %v", i/want.n, i%want.n, got.num[i], want.num[i])
		}
	}
	if !slices.Equal(got.g, want.g) {
		t.Fatalf("g: incremental %v, computed %v", got.g, want.g)
	}
	if !slices.Equal(got.maxFol, want.maxFol) {
		t.Fatalf("maxima: incremental %v, computed %v", got.maxFol, want.maxFol)
	}
	if !slices.Equal(got.counts, want.counts) || !slices.Equal(got.indeg, want.indeg) {
		t.Fatal("follower counts or in-degrees diverged from a fresh count")
	}
}

// applyChecked layers one delta over view, shows it to tab, and requires
// the table to equal a fresh Compute of the result, every factor to be
// finite, and no num entry outside the delta's destination rows to have
// been written, whether or not a maximum moved. It returns the new view
// and the number of per-topic maxima that moved.
func applyChecked(t testing.TB, tab *Table, view graph.View, adds, removes []graph.Edge) (*graph.Overlay, int) {
	t.Helper()
	before := slices.Clone(tab.maxFol)
	ov, err := graph.NewOverlay(view, adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	var dsts []graph.NodeID
	for _, e := range adds {
		dsts = append(dsts, e.Dst)
	}
	for _, e := range removes {
		dsts = append(dsts, e.Dst)
	}
	// Poison every entry outside the destination rows: ApplyDelta may not
	// write one, so each must come back as the poison, bit for bit.
	isDst := make([]bool, tab.n)
	for _, d := range dsts {
		isDst[d] = true
	}
	kept := slices.Clone(tab.num)
	poison := math.Float64frombits(0x7ff8dead0000beef)
	for i := range tab.num {
		if !isDst[i%tab.n] {
			tab.num[i] = poison
		}
	}
	tab.ApplyDelta(ov, dsts)
	for i, x := range tab.num {
		if !isDst[i%tab.n] {
			if math.Float64bits(x) != math.Float64bits(poison) {
				t.Fatalf("ApplyDelta wrote num(%d, t%d), outside its destination rows", i%tab.n, i/tab.n)
			}
			tab.num[i] = kept[i]
		}
	}
	fresh := Compute(ov)
	requireSameTable(t, tab, fresh)
	requireFinite(t, tab)
	moved := 0
	for i := range before {
		if before[i] != fresh.maxFol[i] {
			moved++
		}
	}
	return ov, moved
}

// TestApplyDeltaMaxima walks the ways a per-topic maximum can (fail to)
// move, on topic t0 of a stack of overlays: nodes 0 and 1 start tied at
// two followers, node 2 has one.
func TestApplyDeltaMaxima(t *testing.T) {
	t0 := topics.NewSet(0)
	e := func(src, dst graph.NodeID) graph.Edge { return graph.Edge{Src: src, Dst: dst, Label: t0} }
	g := buildGraph(t, 8, []graph.Edge{e(3, 0), e(4, 0), e(3, 1), e(4, 1), e(3, 2)})
	tab := Compute(g)
	steps := []struct {
		name          string
		adds, removes []graph.Edge
		max, moved    int
	}{
		{"one of two tied leaders drops", nil, []graph.Edge{e(4, 1)}, 2, 0},
		{"new leader raises", []graph.Edge{e(4, 2), e(5, 2)}, nil, 3, 1},
		{"sole leader drops", nil, []graph.Edge{e(5, 2)}, 2, 1},
		{"leader drops, another row takes over at the same value", []graph.Edge{e(4, 1)}, []graph.Edge{e(4, 0)}, 2, 0},
		{"leaders drop, another row rises past them", []graph.Edge{e(5, 0), e(6, 0), e(7, 0)}, []graph.Edge{e(4, 1), e(4, 2)}, 4, 1},
		{"duplicate destinations, other topic only", []graph.Edge{
			{Src: 5, Dst: 1, Label: topics.NewSet(1)}, {Src: 6, Dst: 1, Label: topics.NewSet(1)}}, nil, 4, 1},
		{"unchanged destination", nil, []graph.Edge{e(7, 1)}, 4, 0},
	}
	var view graph.View = g
	for _, st := range steps {
		ov, moved := applyChecked(t, tab, view, st.adds, st.removes)
		view = ov
		if got := tab.MaxFollowersOnTopic(0); got != st.max {
			t.Fatalf("%s: max followers on t0 = %d, want %d", st.name, got, st.max)
		}
		if moved != st.moved {
			t.Fatalf("%s: %d maxima moved, want %d", st.name, moved, st.moved)
		}
	}
}

// driveRandomDeltas applies steps random add/remove batches of 1–64 edges
// over stacked overlays, folding the stack at random, and requires the
// incrementally maintained table to equal a fresh Compute after each.
func driveRandomDeltas(t testing.TB, seed uint64, steps int) {
	ds := gen.RandomWith(30, 200, seed)
	rng := rand.New(rand.NewSource(int64(seed)))
	n, T := ds.Graph.NumNodes(), ds.Graph.Vocabulary().Len()
	var view graph.View = ds.Graph
	tab := Compute(view)
	for s := 0; s < steps; s++ {
		live := view.Edges()
		var adds, removes []graph.Edge
		for i, size := 0, 1+rng.Intn(64); i < size; i++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				removes = append(removes, live[rng.Intn(len(live))])
				continue
			}
			lbl := topics.NewSet(topics.ID(rng.Intn(T)))
			if rng.Intn(3) == 0 {
				lbl = lbl.Add(topics.ID(rng.Intn(T)))
			}
			adds = append(adds, graph.Edge{Src: graph.NodeID(rng.Intn(n)), Dst: graph.NodeID(rng.Intn(n)), Label: lbl})
		}
		ov, _ := applyChecked(t, tab, view, adds, removes)
		view = ov
		if rng.Intn(4) == 0 {
			// A compaction shows the table nothing: same edges, new view.
			view = ov.Compact()
		}
	}
}

func TestApplyDeltaExactRandom(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		driveRandomDeltas(t, seed, 40)
	}
}

func FuzzApplyDeltaExact(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(7), uint8(24))
	f.Add(uint64(1<<40+3), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8) {
		driveRandomDeltas(t, seed, int(steps%32))
	})
}
