package graph

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/topics"
)

// chainPlus is 0→1→2→3 plus a shortcut 0→2 and a back edge 3→0.
func chainPlus(t *testing.T) *Graph {
	t.Helper()
	return build(t, 4, []Edge{
		{0, 1, topics.NewSet(0)},
		{1, 2, topics.NewSet(0)},
		{2, 3, topics.NewSet(0)},
		{0, 2, topics.NewSet(0)},
		{3, 0, topics.NewSet(0)},
	})
}

func TestBFSOutDepths(t *testing.T) {
	g := chainPlus(t)
	depths := map[NodeID]int{}
	BFSOut(g, 0, 10, func(u NodeID, d int) bool {
		depths[u] = d
		return true
	})
	want := map[NodeID]int{0: 0, 1: 1, 2: 1, 3: 2}
	for u, d := range want {
		if depths[u] != d {
			t.Errorf("depth(%d) = %d, want %d", u, depths[u], d)
		}
	}
}

func TestBFSDepthLimit(t *testing.T) {
	g := chainPlus(t)
	var got []NodeID
	BFSOut(g, 0, 1, func(u NodeID, d int) bool {
		got = append(got, u)
		return true
	})
	if len(got) != 3 { // 0, 1, 2
		t.Errorf("depth-1 BFS visited %v", got)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := chainPlus(t)
	count := 0
	BFSOut(g, 0, 10, func(u NodeID, d int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d, want 2", count)
	}
}

func TestBFSIn(t *testing.T) {
	g := chainPlus(t)
	depths := map[NodeID]int{}
	BFSIn(g, 2, 1, func(u NodeID, d int) bool {
		depths[u] = d
		return true
	})
	// Followers of 2 at one hop: 0 and 1.
	if len(depths) != 3 || depths[0] != 1 || depths[1] != 1 {
		t.Errorf("BFSIn wrong: %v", depths)
	}
}

// mapBFS is the reference traversal: a per-level frontier and a map of
// visited nodes, the form bfs took before its bitset and single queue.
func mapBFS(src NodeID, maxDepth int, visit Visit, adj func(NodeID) ([]NodeID, []topics.Set)) {
	seen := map[NodeID]bool{src: true}
	if !visit(src, 0) {
		return
	}
	frontier := []NodeID{src}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []NodeID
		for _, u := range frontier {
			nbrs, _ := adj(u)
			for _, v := range nbrs {
				if seen[v] {
					continue
				}
				seen[v] = true
				if !visit(v, depth) {
					return
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
}

// TestBFSMatchesMapReference: BFSOut and BFSIn visit the same nodes at
// the same depths in the same order as the map-based reference, with and
// without an early stop, from every node of random graphs (including
// node ids on both sides of a 64-bit word boundary) and of a 3-layer
// overlay stack over one.
func TestBFSMatchesMapReference(t *testing.T) {
	type step struct {
		v NodeID
		d int
	}
	trace := func(run func(Visit), limit int) []step {
		var out []step
		run(func(v NodeID, d int) bool {
			out = append(out, step{v, d})
			return limit == 0 || len(out) < limit
		})
		return out
	}
	check := func(label string, g View) {
		t.Helper()
		for u := 0; u < g.NumNodes(); u++ {
			src := NodeID(u)
			for _, depth := range []int{0, 1, 2, 3, 10} {
				for _, limit := range []int{0, 1, 5} {
					for _, dir := range []struct {
						name string
						bfs  func(View, NodeID, int, Visit)
						adj  func(NodeID) ([]NodeID, []topics.Set)
					}{{"out", BFSOut, g.Out}, {"in", BFSIn, g.In}} {
						got := trace(func(f Visit) { dir.bfs(g, src, depth, f) }, limit)
						want := trace(func(f Visit) { mapBFS(src, depth, f, dir.adj) }, limit)
						if !slices.Equal(got, want) {
							t.Fatalf("%s BFS%s from %d, depth %d, stop after %d: visited %v, reference %v",
								label, dir.name, src, depth, limit, got, want)
						}
					}
				}
			}
		}
	}
	r := rand.New(rand.NewPCG(5, 9))
	edges := func(n, m int) []Edge {
		out := make([]Edge, 0, m)
		for len(out) < m {
			if u, v := NodeID(r.IntN(n)), NodeID(r.IntN(n)); u != v {
				out = append(out, Edge{Src: u, Dst: v, Label: topics.NewSet(topics.ID(r.IntN(2)))})
			}
		}
		return out
	}
	for _, shape := range [][2]int{{1, 0}, {63, 150}, {64, 40}, {65, 300}, {200, 900}} {
		check("random", build(t, shape[0], edges(shape[0], shape[1])))
	}
	base := build(t, 150, edges(150, 600))
	var view View = base
	for layer := 0; layer < 3; layer++ {
		adds := edges(150, 25)
		var removes []Edge
		for len(removes) < 20 {
			u := NodeID(r.IntN(150))
			if dsts, _ := view.Out(u); len(dsts) > 0 {
				removes = append(removes, Edge{Src: u, Dst: dsts[r.IntN(len(dsts))]})
			}
		}
		ov, err := NewOverlay(view, adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		view = ov
		check("overlay", view)
	}
}

func TestStatsAndDistribution(t *testing.T) {
	g := build(t, 5, []Edge{
		{0, 1, topics.NewSet(0)},
		{2, 1, topics.NewSet(0, 1)},
		{3, 1, topics.NewSet(1)},
		{1, 0, topics.NewSet(2)},
	})
	s := ComputeStats(g)
	if s.Nodes != 5 || s.Edges != 4 {
		t.Fatalf("stats size wrong: %+v", s)
	}
	if s.MaxIn != 3 || s.MaxInNode != 1 {
		t.Errorf("max in = (%d,%d), want (3,1)", s.MaxIn, s.MaxInNode)
	}
	// Avg out over active-out nodes: 4 edges / 4 sources = 1.
	if s.AvgOut != 1 {
		t.Errorf("avg out = %g, want 1", s.AvgOut)
	}
	// Avg in over active-in nodes: 4 edges / 2 targets = 2.
	if s.AvgIn != 2 {
		t.Errorf("avg in = %g, want 2", s.AvgIn)
	}
	dist := EdgeTopicDistribution(g)
	if dist[0] != 2 || dist[1] != 2 || dist[2] != 1 {
		t.Errorf("distribution = %v", dist)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestInDegreePercentileCutoffs(t *testing.T) {
	// In-degrees: node 0 has 10 followers, nodes 1..10 have 1 each.
	var edges []Edge
	for i := 1; i <= 10; i++ {
		edges = append(edges, Edge{Src: NodeID(i), Dst: 0, Label: topics.NewSet(0)})
		edges = append(edges, Edge{Src: 0, Dst: NodeID(i), Label: topics.NewSet(0)})
	}
	g := build(t, 12, edges)
	low, high := InDegreePercentileCutoffs(g, 0.10)
	if low != 1 {
		t.Errorf("low cutoff = %d, want 1", low)
	}
	if high != 10 {
		t.Errorf("high cutoff = %d, want 10", high)
	}
	// Degenerate graph with no in-edges.
	g2 := build(t, 2, []Edge{})
	if l, h := InDegreePercentileCutoffs(g2, 0.1); l != 0 || h != 0 {
		t.Errorf("empty cutoffs = (%d,%d)", l, h)
	}
}

func TestReciprocity(t *testing.T) {
	g := build(t, 4, []Edge{
		{0, 1, topics.NewSet(0)},
		{1, 0, topics.NewSet(0)},
		{2, 3, topics.NewSet(0)},
	})
	// Edges 0→1 and 1→0 are mutual, 2→3 is not: 2 of 3.
	if got := Reciprocity(g); !floatNear(got, 2.0/3) {
		t.Errorf("reciprocity = %g, want 2/3", got)
	}
	empty := build(t, 2, nil)
	if Reciprocity(empty) != 0 {
		t.Error("empty graph reciprocity must be 0")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle 0-1-2 (all directed one way) plus a pendant 3.
	tri := build(t, 4, []Edge{
		{0, 1, topics.NewSet(0)},
		{1, 2, topics.NewSet(0)},
		{2, 0, topics.NewSet(0)},
		{0, 3, topics.NewSet(0)},
	})
	// Nodes 1, 2 have exactly the two triangle neighbors (connected): 1.0.
	// Node 0 has neighbors {1, 2, 3}: pairs (1,2) connected, (1,3) and
	// (2,3) not: 1/3. Node 3 has 1 neighbor: skipped.
	want := (1.0 + 1.0 + 1.0/3) / 3
	if got := ClusteringCoefficient(tri, 0); !floatNear(got, want) {
		t.Errorf("clustering = %g, want %g", got, want)
	}
	// A directed 4-cycle has no triangles.
	cyc := build(t, 4, []Edge{
		{0, 1, topics.NewSet(0)},
		{1, 2, topics.NewSet(0)},
		{2, 3, topics.NewSet(0)},
		{3, 0, topics.NewSet(0)},
	})
	if got := ClusteringCoefficient(cyc, 0); got != 0 {
		t.Errorf("cycle clustering = %g, want 0", got)
	}
}

func floatNear(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}
