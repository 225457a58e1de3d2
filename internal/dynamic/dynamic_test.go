package dynamic

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/topics"
)

func newManager(t *testing.T, strategy Strategy, seed uint64) (*Manager, *gen.Dataset) {
	t.Helper()
	ds := gen.RandomWith(60, 600, seed)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 6, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ds.Graph, lms, Config{
		Params:     core.DefaultParams(),
		Sim:        ds.Sim,
		StoreTopN:  200,
		QueryDepth: 2,
		Strategy:   strategy,
		StaleBound: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

func TestApplyAddsAndRemoves(t *testing.T) {
	m, ds := newManager(t, Eager, 1)
	before := m.Graph().NumEdges()
	// Add two fresh edges, remove one existing.
	existing := ds.Graph.Edges()[0]
	batch := []Update{
		{Edge: graph.Edge{Src: 0, Dst: 59, Label: topics.NewSet(0)}, Add: true},
		{Edge: graph.Edge{Src: 59, Dst: 1, Label: topics.NewSet(1)}, Add: true},
		{Edge: existing, Add: false},
	}
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	g := m.Graph()
	if g.NumEdges() != before+1 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), before+1)
	}
	if !g.HasEdge(0, 59) || !g.HasEdge(59, 1) {
		t.Error("added edges missing")
	}
	if g.HasEdge(existing.Src, existing.Dst) {
		t.Error("removed edge still present")
	}
	st := m.Stats()
	if st.Batches != 1 || st.EdgesAdded != 2 || st.EdgesRemoved != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEagerRefreshMatchesRebuild(t *testing.T) {
	m, ds := newManager(t, Eager, 2)
	// Mutate around a landmark: remove some of its out-edges and add new
	// ones so its stored lists are genuinely wrong.
	lm := m.store.Landmarks()[0]
	dsts, lbls := ds.Graph.Out(lm)
	if len(dsts) == 0 {
		t.Skip("landmark without followees")
	}
	batch := []Update{
		{Edge: graph.Edge{Src: lm, Dst: dsts[0], Label: lbls[0]}, Add: false},
		{Edge: graph.Edge{Src: lm, Dst: (lm + 17) % 60, Label: topics.NewSet(2)}, Add: true},
	}
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Refreshes == 0 {
		t.Fatal("eager strategy must refresh the touched landmark")
	}
	if m.Stats().StaleNow != 0 {
		t.Fatal("eager strategy must leave nothing stale")
	}
	// The refreshed store must equal a from-scratch preprocessing of the
	// new graph.
	fresh, _ := landmark.Preprocess(m.eng, m.store.Landmarks(), landmark.PreprocessConfig{TopN: 200})
	for _, l := range m.store.Landmarks() {
		a, b := m.store.Get(l), fresh.Get(l)
		for ti := range a.Topical {
			la, lb := a.Topical[ti], b.Topical[ti]
			if la.Len() != lb.Len() {
				t.Fatalf("landmark %d topic %d: %d vs %d entries", l, ti, la.Len(), lb.Len())
			}
			for i := range la.Nodes {
				if la.Nodes[i] != lb.Nodes[i] {
					t.Fatalf("landmark %d topic %d rank %d: %d vs %d", l, ti, i, la.Nodes[i], lb.Nodes[i])
				}
			}
		}
	}
}

func TestLazyRefreshOnQuery(t *testing.T) {
	m, ds := newManager(t, Lazy, 3)
	lm := m.store.Landmarks()[0]
	// Find a user whose 2-hop vicinity contains the landmark, so a query
	// from it must trigger the lazy refresh.
	var querier graph.NodeID
	found := false
	for u := 0; u < ds.Graph.NumNodes() && !found; u++ {
		graph.BFSOut(m.Graph(), graph.NodeID(u), 2, func(v graph.NodeID, d int) bool {
			if v == lm && d > 0 {
				querier = graph.NodeID(u)
				found = true
				return false
			}
			return true
		})
	}
	if !found {
		t.Skip("no 2-hop querier for the landmark")
	}
	if err := m.Apply([]Update{{Edge: graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Refreshes != 0 {
		t.Fatal("lazy strategy must not refresh at Apply time")
	}
	if m.Stats().StaleNow == 0 {
		t.Fatal("the touched landmark must be stale")
	}
	if _, err := m.Recommend(querier, 0, 5); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Refreshes == 0 {
		t.Fatal("query meeting a stale landmark must refresh it")
	}
}

// TestStaleLandmarksSorted: a batch reports the landmarks it staled in
// node-id order, not in map-iteration order.
func TestStaleLandmarksSorted(t *testing.T) {
	m, _ := newManager(t, Lazy, 3)
	var fx []BatchEffect
	m.SetBatchHook(func(f BatchEffect) { fx = append(fx, f) })
	lms := m.store.Landmarks()
	var batch []Update
	for _, lm := range lms {
		batch = append(batch, Update{Edge: graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}, Add: true})
	}
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if len(fx) != 1 || len(fx[0].StaleLandmarks) != len(lms) {
		t.Fatalf("effects = %+v, want one staling all %d landmarks", fx, len(lms))
	}
	if !slices.IsSorted(fx[0].StaleLandmarks) {
		t.Fatalf("StaleLandmarks = %v, want ascending", fx[0].StaleLandmarks)
	}
}

func TestThresholdBatchesRefreshes(t *testing.T) {
	m, _ := newManager(t, Threshold, 4)
	// Apply single-edge batches touching distinct landmarks until the
	// bound (3) trips.
	lms := m.store.Landmarks()
	if len(lms) < 3 {
		t.Skip("not enough landmarks")
	}
	for i := 0; i < 3; i++ {
		up := Update{Edge: graph.Edge{Src: lms[i], Dst: (lms[i] + 31) % 60, Label: topics.NewSet(0)}, Add: true}
		if err := m.Apply([]Update{up}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Refreshes == 0 {
		t.Fatalf("threshold (3) should have tripped: %+v", st)
	}
	if st.StaleNow != 0 {
		t.Errorf("threshold refresh must clear staleness: %+v", st)
	}
}

func TestRecommendTracksGraphChanges(t *testing.T) {
	m, ds := newManager(t, Eager, 5)
	// Give node 0 a brand-new strong connection into a region and check
	// the recommendation reflects it.
	var target graph.NodeID = 42
	if ds.Graph.OutDegree(target) == 0 {
		target = 43
	}
	if err := m.Apply([]Update{{Edge: graph.Edge{Src: 0, Dst: target, Label: topics.NewSet(0)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	exact := m.RecommendExact(0, 0, 10)
	if len(exact) == 0 {
		t.Skip("no recommendations from node 0")
	}
	// The approximate answer must come from the refreshed state and not
	// error.
	if _, err := m.Recommend(0, 0, 10); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	m, _ := newManager(t, Eager, 6)
	if err := m.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Batches != 0 {
		t.Error("empty batch must not count")
	}
}

func TestApplyBelowThresholdNeverRebuilds(t *testing.T) {
	m, ds := newManager(t, Lazy, 7)
	base := ds.Graph
	for i := 1; i <= 3; i++ {
		up := Update{Edge: graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + 40), Label: topics.NewSet(0)}, Add: true}
		if err := m.Apply([]Update{up}); err != nil {
			t.Fatal(err)
		}
		ov, ok := m.Graph().(*graph.Overlay)
		if !ok {
			t.Fatalf("batch %d: below the compaction threshold Apply must install an overlay, got %T", i, m.Graph())
		}
		// Pointer identity with the preprocessing graph proves no CSR was
		// rebuilt anywhere on the update path.
		if ov.Bottom() != base {
			t.Fatalf("batch %d: overlay bottom is not the original frozen graph — a full rebuild happened", i)
		}
		st := m.Stats()
		if st.Compactions != 0 {
			t.Fatalf("batch %d: compactions = %d, want 0", i, st.Compactions)
		}
		if st.OverlayDepth != i {
			t.Fatalf("batch %d: overlay depth = %d, want %d", i, st.OverlayDepth, i)
		}
		if st.Epoch != uint64(i) {
			t.Fatalf("batch %d: epoch = %d, want %d", i, st.Epoch, i)
		}
	}
}

func TestCompactionAtMostOncePerBatch(t *testing.T) {
	ds := gen.RandomWith(60, 600, 8)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 4, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	// CompactDepth 1 makes every batch cross the threshold immediately —
	// the regression this guards: one batch must trigger exactly one
	// compaction (the old code path rebuilt the CSR twice per removal
	// batch).
	m, err := NewManager(ds.Graph, lms, Config{
		Params:       core.DefaultParams(),
		Sim:          ds.Sim,
		StoreTopN:    50,
		QueryDepth:   2,
		Strategy:     Lazy,
		CompactDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	existing := ds.Graph.Edges()
	for i := 1; i <= 3; i++ {
		batch := []Update{
			{Edge: graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + 50), Label: topics.NewSet(1)}, Add: true},
			{Edge: existing[i], Add: false},
		}
		if err := m.Apply(batch); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Compactions != i {
			t.Fatalf("batch %d: compactions = %d, want exactly %d (at most one per batch)", i, st.Compactions, i)
		}
		if _, ok := m.Graph().(*graph.Graph); !ok {
			t.Fatalf("batch %d: after compaction the view must be a frozen graph, got %T", i, m.Graph())
		}
		if st.OverlayDepth != 0 || st.OverlayDelta != 0 {
			t.Fatalf("batch %d: compaction must reset overlay stats, got %+v", i, st)
		}
		// Each batch installs the overlay epoch and the compacted epoch.
		if st.Epoch != uint64(2*i) {
			t.Fatalf("batch %d: epoch = %d, want %d", i, st.Epoch, 2*i)
		}
	}
}

func TestCompactionByDeltaFraction(t *testing.T) {
	ds := gen.RandomWith(60, 600, 9)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 4, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	// With ~600 edges, a 1% fraction trips once the accumulated delta
	// reaches 6 edges even though the depth bound is far away.
	m, err := NewManager(ds.Graph, lms, Config{
		Params:          core.DefaultParams(),
		Sim:             ds.Sim,
		StoreTopN:       50,
		QueryDepth:      2,
		Strategy:        Lazy,
		CompactDepth:    1000,
		CompactFraction: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	threshold := int(0.01 * float64(ds.Graph.NumEdges()))
	applied := 0
	for i := 0; m.Stats().Compactions == 0 && i < 50; i++ {
		up := Update{Edge: graph.Edge{Src: graph.NodeID(i % 60), Dst: graph.NodeID((i + 13) % 60), Label: topics.NewSet(2)}, Add: true}
		if err := m.Apply([]Update{up}); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	if got := m.Stats().Compactions; got != 1 {
		t.Fatalf("compactions = %d after %d single-edge batches, want 1", got, applied)
	}
	if applied < threshold {
		t.Fatalf("compacted after %d edges, before the %d-edge fraction threshold", applied, threshold)
	}
}

// TestRefreshBackoffAbsorbsFailures exercises the refresh retry/backoff:
// a failing refresh must neither fail the triggering query nor be
// retried before its backoff window passes, and once the fault clears
// the next opportunity refreshes normally.
func TestRefreshBackoffAbsorbsFailures(t *testing.T) {
	m, ds := newManager(t, Lazy, 3)
	m.cfg.RefreshBackoff = 20 * time.Millisecond
	lm := m.store.Landmarks()[0]
	// A querier whose 2-hop vicinity contains the landmark, so its query
	// triggers the lazy refresh.
	var querier graph.NodeID
	found := false
	for u := 0; u < ds.Graph.NumNodes() && !found; u++ {
		graph.BFSOut(m.Graph(), graph.NodeID(u), 2, func(v graph.NodeID, d int) bool {
			if v == lm && d > 0 {
				querier = graph.NodeID(u)
				found = true
				return false
			}
			return true
		})
	}
	if !found {
		t.Skip("no 2-hop querier for the landmark")
	}
	if err := m.Apply([]Update{{Edge: graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().StaleNow == 0 {
		t.Fatal("the touched landmark must be stale")
	}

	m.refreshErrHook = func() error { return errors.New("injected refresh fault") }
	// The query meets the stale landmark, the refresh fails — but the
	// failure is absorbed and the query still answers from the old store.
	if _, err := m.Recommend(querier, 0, 5); err != nil {
		t.Fatalf("query failed alongside the refresh: %v", err)
	}
	st := m.Stats()
	if st.RefreshFailures != 1 || st.Refreshes != 0 {
		t.Fatalf("failures = %d, refreshes = %d; want 1 and 0", st.RefreshFailures, st.Refreshes)
	}
	if st.StaleNow == 0 {
		t.Fatal("failed refresh cleared the stale mark")
	}
	// Within the backoff window no refresh is attempted at all: the next
	// query defers instead of hammering the failing path.
	if _, err := m.Recommend(querier, 0, 5); err != nil {
		t.Fatalf("query during backoff failed: %v", err)
	}
	st = m.Stats()
	if st.RefreshDeferred == 0 {
		t.Fatal("no refresh was deferred during the backoff window")
	}
	if st.RefreshFailures != 1 {
		t.Fatalf("refresh retried inside the backoff window: %d failures", st.RefreshFailures)
	}

	// Fault clears, window passes: the next query refreshes normally.
	m.refreshErrHook = nil
	time.Sleep(40 * time.Millisecond)
	if _, err := m.Recommend(querier, 0, 5); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.Refreshes == 0 {
		t.Fatal("refresh did not resume after the backoff window")
	}
	if st.StaleNow != 0 {
		t.Fatalf("%d landmarks still stale after a successful refresh", st.StaleNow)
	}
}

// TestInstrumentSameRegistryTwiceIsIdempotent: trserver passes one
// registry via Config.Metrics and server.New re-instruments the manager
// with the same registry; the second call must not re-add the current
// Stats to counters that already carry them (visible as
// dynamic_batches_total = 2 after a single batch).
func TestInstrumentSameRegistryTwiceIsIdempotent(t *testing.T) {
	ds := gen.RandomWith(40, 300, 13)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 3, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m, err := NewManager(ds.Graph, lms, Config{
		Params:     core.DefaultParams(),
		Sim:        ds.Sim,
		StoreTopN:  20,
		QueryDepth: 2,
		Strategy:   Lazy,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply([]Update{{Edge: graph.Edge{Src: 1, Dst: 2, Label: topics.NewSet(0)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	m.Instrument(reg) // what server.New does with the shared registry
	if got := reg.Counter("dynamic_batches_total", "").Value(); got != 1 {
		t.Fatalf("dynamic_batches_total = %d after re-instrumenting the same registry, want 1", got)
	}
}
