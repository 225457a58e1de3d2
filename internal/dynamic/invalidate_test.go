package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/topics"
)

// affectedLandmarksRef is the invalidation the multi-source pass
// replaced, kept as its reference: one reverse BFS per endpoint of every
// update, the landmarks met collected in a set. It also returns the size
// of the union of the per-endpoint balls — what a pass that never stops
// early visits.
func affectedLandmarksRef(m *Manager, batch []Update) ([]graph.NodeID, int) {
	hit := make(map[graph.NodeID]bool)
	ball := make(map[graph.NodeID]bool)
	for _, up := range batch {
		for _, end := range []graph.NodeID{up.Edge.Src, up.Edge.Dst} {
			graph.BFSIn(m.view, end, m.maxIter, func(u graph.NodeID, _ int) bool {
				ball[u] = true
				if m.isLandmark[u] {
					hit[u] = true
				}
				return true
			})
		}
	}
	out := make([]graph.NodeID, 0, len(hit))
	for lm := range hit {
		out = append(out, lm)
	}
	slices.Sort(out)
	return out, len(ball)
}

// randomBatch draws size updates with both endpoints from nodes: adds
// with a random one-topic label, and removals of an edge the current view
// holds between two such nodes when it can find one.
func randomBatch(rng *rand.Rand, view graph.View, nodes []graph.NodeID, size int) []Update {
	batch := make([]Update, size)
	for i := range batch {
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		for dst == src {
			dst = nodes[rng.Intn(len(nodes))]
		}
		e := graph.Edge{Src: src, Dst: dst, Label: topics.NewSet(topics.ID(rng.Intn(view.Vocabulary().Len())))}
		add := rng.Intn(2) == 0
		if out, _ := view.Out(src); !add && len(out) > 0 {
			if v := out[rng.Intn(len(out))]; slices.Contains(nodes, v) {
				e.Dst = v
			}
		}
		batch[i] = Update{Edge: e, Add: add}
	}
	return batch
}

// applyAndCompare applies batch and requires the stale set the manager
// reported to equal the per-endpoint reference over the resulting view,
// the pass to have visited no more than the reference's ball, and the
// authority table to equal a from-scratch Compute. It returns whether the
// pass visited the whole ball (no early stop).
func applyAndCompare(t *testing.T, m *Manager, batch []Update) bool {
	t.Helper()
	var got []graph.NodeID
	m.SetBatchHook(func(fx BatchEffect) { got = fx.StaleLandmarks })
	before := m.Stats().InvalidationVisited
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	visited := m.Stats().InvalidationVisited - before
	want, ball := affectedLandmarksRef(m, batch)
	if !slices.Equal(got, want) {
		t.Fatalf("batch of %d, maxIter %d: stale landmarks %v, per-endpoint reference %v", len(batch), m.maxIter, got, want)
	}
	if visited > ball || visited < len(want) {
		t.Fatalf("batch of %d: visited %d nodes, reference ball holds %d, %d landmarks found", len(batch), visited, ball, len(want))
	}
	requireSameAuthority(t, fmt.Sprintf("after a batch of %d, maintained", len(batch)), m.auth, authority.Compute(m.view))
	return visited == ball
}

func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// TestInvalidationMatchesPerEndpointReference, cases (i), (iii) and (iv):
// on a dense graph every landmark reaches every endpoint, so the pass
// stops early; with the horizon cut to 1 or 2 hops it may not; and an
// endpoint that is a landmark is stale at depth 0. The managers are Lazy:
// Apply never refreshes, so maxIter stays where the test put it.
func TestInvalidationMatchesPerEndpointReference(t *testing.T) {
	for _, maxIter := range []int{0, 1, 2} { // 0: keep the recorded horizon
		m, _ := newManager(t, Lazy, 21)
		if maxIter > 0 {
			m.maxIter = maxIter
		}
		rng := rand.New(rand.NewSource(int64(maxIter) + 1))
		stoppedEarly := false
		for round := 0; round < 12; round++ {
			for _, size := range []int{1, 4, 16, 64} {
				if !applyAndCompare(t, m, randomBatch(rng, m.view, allNodes(60), size)) {
					stoppedEarly = true
				}
			}
		}
		if maxIter == 0 && !stoppedEarly {
			t.Fatal("no pass stopped before exhausting its ball on a graph where every landmark is reached")
		}
		// An endpoint that is itself a landmark, alone and in company.
		lm := m.lms[rng.Intn(len(m.lms))]
		applyAndCompare(t, m, []Update{{Edge: graph.Edge{Src: lm, Dst: (lm + 1) % 60, Label: topics.NewSet(0)}, Add: true}})
		applyAndCompare(t, m, append(randomBatch(rng, m.view, allNodes(60), 15),
			Update{Edge: graph.Edge{Src: (lm + 7) % 60, Dst: lm, Label: topics.NewSet(1)}, Add: true}))
	}
}

// TestInvalidationUnreachedLandmarks, case (ii): two components and a
// landmark that follows nobody. Updates inside one component never reach
// the other component's landmarks nor the sink, so every pass runs its
// full horizon and visits exactly the reference ball.
func TestInvalidationUnreachedLandmarks(t *testing.T) {
	ds := gen.RandomWith(60, 600, 22)
	const sink = graph.NodeID(5)
	var cut []graph.Edge
	for _, e := range ds.Graph.Edges() {
		if (e.Src < 30) != (e.Dst < 30) || e.Src == sink {
			cut = append(cut, e)
		}
	}
	g := ds.Graph.WithoutEdges(cut)
	m, err := NewManager(g, []graph.NodeID{sink, 3, 17, 33, 48}, Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2, Strategy: Lazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	left := allNodes(30)
	left = slices.DeleteFunc(left, func(v graph.NodeID) bool { return v == sink })
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 12; round++ {
		for _, size := range []int{1, 4, 16, 64} {
			if !applyAndCompare(t, m, randomBatch(rng, m.view, left, size)) {
				t.Fatalf("round %d, batch of %d: the pass stopped early with landmarks out of reach", round, size)
			}
		}
	}
	for _, lm := range []graph.NodeID{sink, 33, 48} {
		if m.store.Stale(lm) != 0 {
			t.Fatalf("landmark %d is out of every endpoint's reach, yet stale", lm)
		}
	}
}

// TestInvalidationThousandBatches, case (v): 1000 consecutive batches on
// one manager — compactions included — with the visited-generation
// counter forced to wrap halfway, over stamps that the generations after
// the wrap would mistake for their own unless the wrap clears them.
func TestInvalidationThousandBatches(t *testing.T) {
	m, _ := newManager(t, Lazy, 23)
	m.maxIter = 2 // a cut horizon keeps stale sets varied instead of "all"
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if i == 500 {
			m.inv.gen = math.MaxUint32
			for v := range m.inv.seen {
				m.inv.seen[v] = uint32(1 + v%8)
			}
		}
		applyAndCompare(t, m, randomBatch(rng, m.view, allNodes(60), []int{1, 4, 16, 64}[i%4]))
	}
	if m.inv.gen != 500 {
		t.Fatalf("generation counter at %d after 500 passes from its wrap", m.inv.gen)
	}
	if m.Stats().Compactions == 0 {
		t.Fatal("the drill crossed no compaction")
	}
}

// TestInvalidationVisitedBound is the deterministic stand-in for a
// wall-clock gate on the apply path: one 16-update batch visits each node
// at most once, and the registry counter mirrors Stats.
func TestInvalidationVisitedBound(t *testing.T) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 1500
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 8, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m, err := NewManager(ds.Graph, lms, Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2, Strategy: Lazy, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := randomBatch(rand.New(rand.NewSource(4)), m.view, allNodes(cfg.Nodes), 16)
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.InvalidationVisited < 2 || st.InvalidationVisited > ds.Graph.NumNodes() {
		t.Fatalf("a 16-update batch visited %d nodes of %d", st.InvalidationVisited, ds.Graph.NumNodes())
	}
	if got := exposedCounter(t, reg, "dynamic_invalidation_visited_nodes_total"); got != uint64(st.InvalidationVisited) {
		t.Fatalf("dynamic_invalidation_visited_nodes_total = %d, Stats.InvalidationVisited = %d", got, st.InvalidationVisited)
	}
}

// TestInvalidationHorizonCoversFactoredPaths: a factored preprocessing
// exploration holds paths up to (pass-1 hops + 1 + pass-3 hops) long and
// records that length as Iterations, which is the invalidation horizon. On
// a chain, an edge added at a node further from the landmark than the hop
// recurrence ever reaches — and so further than pass 1 runs — but within
// Iterations, on the path of the σ column that runs longest, still stales
// the landmark. Lazy queries on every topic then
// refresh it topic by topic; the refreshed lists, which now reach the
// edge's new endpoint, equal a fresh Preprocess of the new view, and no
// per-topic refresh lowers the recorded horizon below it.
func TestInvalidationHorizonCoversFactoredPaths(t *testing.T) {
	tax := topics.WebTaxonomy()
	T := tax.Vocabulary().Len()
	lbl := func(i int) topics.Set { return topics.NewSet(topics.ID(i%T), topics.ID((i+3)%T)) }
	// A chain 0 → 1 → … → 39, a querier 40 → 0 and a spare node 41.
	b := graph.NewBuilder(tax.Vocabulary(), 42)
	for u := 0; u < 42; u++ {
		b.SetNodeTopics(graph.NodeID(u), lbl(u))
	}
	for u := 0; u < 39; u++ {
		b.AddEdge(graph.NodeID(u), graph.NodeID(u+1), lbl(u))
	}
	b.AddEdge(40, 0, lbl(40))
	const lm, querier, spare = graph.NodeID(0), graph.NodeID(40), graph.NodeID(41)
	cfg := Config{Params: core.DefaultParams(), Sim: tax.SimMatrix(), StoreTopN: 50, QueryDepth: 2, Strategy: Lazy}
	m, err := NewManager(b.MustFreeze(), []graph.NodeID{lm}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The new edge leaves the node before the deepest one a topical list
	// ranks, so the σ column that reached that node reaches the edge's
	// endpoint at the same hop.
	horizon := m.store.Get(lm).Iterations
	hop := m.eng.Explore(lm, nil, 0).Iterations
	deepest := graph.NodeID(0)
	for _, l := range m.store.Get(lm).Topical {
		for _, v := range l.Nodes {
			deepest = max(deepest, v)
		}
	}
	far := deepest - 1
	if m.maxIter != horizon || int(far) <= hop || int(far) >= horizon {
		t.Fatalf("horizon %d (maxIter %d), hop recurrence %d, edge source %d: not between them", horizon, m.maxIter, hop, far)
	}
	// listed reports whether any of d's lists ranks the spare node.
	listed := func(d *landmark.Data) bool {
		for _, l := range d.Topical {
			if slices.Contains(l.Nodes, spare) {
				return true
			}
		}
		return false
	}
	if listed(m.store.Get(lm)) {
		t.Fatal("the spare node is ranked before any edge reaches it")
	}

	if err := m.Apply([]Update{{Edge: graph.Edge{Src: far, Dst: spare, Label: lbl(7)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	if m.store.Stale(lm) != m.allTopics {
		t.Fatalf("an edge %d hops from the landmark, inside its horizon %d, left topics %v fresh",
			far, horizon, (m.allTopics &^ m.store.Stale(lm)).Topics())
	}
	for tp := 0; tp < T; tp++ {
		if _, err := m.Recommend(querier, topics.ID(tp), 5); err != nil {
			t.Fatal(err)
		}
		if m.store.Stale(lm).Has(topics.ID(tp)) {
			t.Fatalf("the querier's lazy refresh left topic %d stale", tp)
		}
	}
	if m.store.Stale(lm) != 0 {
		t.Fatalf("topics %v still stale after a query on each", m.store.Stale(lm).Topics())
	}
	got := m.store.Get(lm)
	want, _ := landmark.Preprocess(m.eng, []graph.NodeID{lm}, landmark.PreprocessConfig{TopN: cfg.StoreTopN})
	wd := want.Get(lm)
	if !listed(got) || got.Iterations < wd.Iterations {
		t.Fatalf("refreshed lists: spare node ranked %v, horizon %d; fresh preprocessing %d", listed(got), got.Iterations, wd.Iterations)
	}
	for ti := 0; ti < T; ti++ {
		g, w := got.Topical[ti], wd.Topical[ti]
		if !slices.Equal(g.Nodes, w.Nodes) || !slices.Equal(g.Sigma, w.Sigma) || !slices.Equal(g.Topo, w.Topo) {
			t.Fatalf("list %d: refreshed %v, fresh preprocessing %v", ti, g, w)
		}
	}
}
