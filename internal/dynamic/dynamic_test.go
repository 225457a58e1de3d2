package dynamic

import (
	"bytes"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/store"
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
	if st := m.Stats(); st.Refreshes != 0 || st.TopicRefreshes != 0 {
		t.Fatal("lazy strategy must not refresh at Apply time")
	}
	if m.store.Stale(lm) != m.allTopics {
		t.Fatal("the touched landmark must be stale on every topic")
	}
	if _, err := m.Recommend(querier, 0, 5); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.TopicRefreshes == 0 || st.Refreshes != 0 {
		t.Fatalf("query meeting a stale landmark must refresh its topic only: %d topic refreshes, %d whole", st.TopicRefreshes, st.Refreshes)
	}
	if m.store.Stale(lm) != m.allTopics.Remove(0) {
		t.Fatalf("after a topic-0 query the landmark is stale on %v, want every topic but 0", m.store.Stale(lm).Topics())
	}
}

// TestLazyRefreshIgnoresBudget pins that RefreshBudget does not bound
// Lazy maintenance: Apply never schedules under Lazy, and one query
// refreshes its topic on every stale landmark in its depth-2 vicinity,
// however small the priority scheduler's budget.
func TestLazyRefreshIgnoresBudget(t *testing.T) {
	ds := gen.RandomWith(60, 600, 3)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 6, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ds.Graph, lms, Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2,
		Strategy: Lazy, Scheduler: SchedPriority, RefreshBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Update, 0, len(lms))
	for _, lm := range lms {
		batch = append(batch, Update{Edge: graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}, Add: true})
	}
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Refreshes != 0 || st.TopicRefreshes != 0 {
		t.Fatal("lazy strategy must not refresh at Apply time")
	}
	// The querier whose depth-2 vicinity meets the most stale landmarks.
	stale := m.Stats().StaleNow
	var querier graph.NodeID
	best := 0
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		met := 0
		graph.BFSOut(m.Graph(), graph.NodeID(u), 2, func(v graph.NodeID, _ int) bool {
			if m.store.Stale(v) != 0 {
				met++
			}
			return true
		})
		if met > best {
			querier, best = graph.NodeID(u), met
		}
	}
	if best < 3 {
		t.Fatalf("best querier meets %d of %d stale landmarks, want >= 3", best, stale)
	}
	if _, err := m.Recommend(querier, 0, 5); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.TopicRefreshes != best || st.Refreshes != 0 {
		t.Errorf("one query refreshed topic 0 on %d landmarks and %d whole, want all %d it met (budget 1) and none whole",
			st.TopicRefreshes, st.Refreshes, best)
	}
	onTopic := 0
	for _, lm := range lms {
		if m.store.Stale(lm).Has(0) {
			onTopic++
		}
	}
	if onTopic != stale-best || st.StaleNow != stale {
		t.Errorf("after the query %d landmarks stale on topic 0 and %d on some topic, want %d and %d",
			onTopic, st.StaleNow, stale-best, stale)
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

// TestTopicRefreshErrorReachesCaller: a refresh fails only on a broken
// invariant, here a node the store does not hold. The error comes back,
// the landmark after it in the same call keeps its stale mark, and no
// refresh is counted.
func TestTopicRefreshErrorReachesCaller(t *testing.T) {
	m, ds := newManager(t, Lazy, 3)
	lm := m.store.Landmarks()[0]
	if err := m.Apply([]Update{{Edge: graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	if !m.store.Stale(lm).Has(1) {
		t.Fatal("the touched landmark must be stale on topic 1")
	}
	stranger := graph.NodeID(0)
	for m.store.Contains(stranger) && int(stranger) < ds.Graph.NumNodes() {
		stranger++
	}
	before := m.Stats()
	m.mu.Lock()
	err := m.refreshTopicLocked([]graph.NodeID{stranger, lm}, 1)
	m.mu.Unlock()
	if err == nil {
		t.Fatalf("refreshing non-landmark %d succeeded", stranger)
	}
	if !m.store.Stale(lm).Has(1) {
		t.Fatal("a failed refresh cleared a stale mark")
	}
	after := m.Stats()
	if after.TopicRefreshes != before.TopicRefreshes || after.Refreshes != before.Refreshes || after.StaleNow != before.StaleNow {
		t.Fatalf("a failed refresh moved the counters: before %+v, after %+v", before, after)
	}
}

// TestApplyRefreshErrorAfterBatchLands: when an Eager refresh fails (here
// the store's vocabulary is one topic wider than the graph's, so Store.Put
// rejects every fresh landmark), Apply still installs the batch's epoch,
// delivers its effect and persists its compaction snapshot, and then
// returns the error; the landmarks stay stale.
func TestApplyRefreshErrorAfterBatchLands(t *testing.T) {
	m, _ := newManager(t, Eager, 3)
	wide := landmark.NewStore(m.store.VocabLen()+1, m.store.TopN())
	for _, lm := range m.store.Landmarks() {
		d := *m.store.Get(lm)
		d.Topical = append(slices.Clone(d.Topical), landmark.List{})
		if err := wide.Put(&d); err != nil {
			t.Fatal(err)
		}
	}
	m.store = wide
	m.cfg.CompactDepth = 1
	m.cfg.SnapshotPath = filepath.Join(t.TempDir(), "g.trg2")
	var fx []BatchEffect
	m.SetBatchHook(func(f BatchEffect) { fx = append(fx, f) })

	lm := wide.Landmarks()[0]
	edge := graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}
	err := m.Apply([]Update{{Edge: edge, Add: true}})
	if err == nil || !strings.Contains(err.Error(), "batch applied, landmarks still stale") {
		t.Fatalf("Apply = %v, want the refresh error after the batch applied", err)
	}
	st := m.Stats()
	if st.Batches != 1 || st.Compactions != 1 || st.SnapshotWrites != 1 {
		t.Fatalf("batches %d, compactions %d, snapshot writes %d; want 1 each", st.Batches, st.Compactions, st.SnapshotWrites)
	}
	if st.Refreshes != 0 || st.StaleNow == 0 || wide.Stale(lm) == 0 {
		t.Fatalf("refreshes %d, stale %d, landmark %d stale on %v: want no refresh and the landmarks still stale", st.Refreshes, st.StaleNow, lm, wide.Stale(lm))
	}
	if len(fx) != 1 || fx[0].Epoch != st.Epoch || !slices.Contains(fx[0].StaleLandmarks, lm) || len(fx[0].Refreshed) != 0 {
		t.Fatalf("effects %+v, want one at epoch %d marking %d stale and refreshing none", fx, st.Epoch, lm)
	}
	if !m.Graph().HasEdge(edge.Src, edge.Dst) {
		t.Fatal("the applied edge is not in the installed view")
	}
}

// TestInstrumentSameRegistryTwiceIsIdempotent: trserver passes one
// registry via Config.Metrics and server.New re-instruments the manager
// with the same registry; the second call must not count anything twice
// (visible as dynamic_batches_total = 2 after a single batch).
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
	if got := exposedCounter(t, reg, "dynamic_batches_total"); got != 1 {
		t.Fatalf("dynamic_batches_total = %d after re-instrumenting the same registry, want 1", got)
	}
}

// exposedCounter reads the unlabeled counter name from reg's text
// exposition, the form /v1/metrics serves.
func exposedCounter(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s not exposed", name)
	return 0
}

// TestNewManagerRejectsMismatchedStore: an adopted store must hold
// exactly the manager's landmark set, in range, over the graph's
// vocabulary, and list only the graph's nodes. A stored landmark outside lms would be folded into every
// answer and never refreshed.
func TestNewManagerRejectsMismatchedStore(t *testing.T) {
	m, ds := newManager(t, Lazy, 3)
	lms := m.store.Landmarks()
	adopt := func(s *landmark.Store, lms []graph.NodeID) error {
		_, err := NewManager(ds.Graph, lms, Config{
			Params:       core.DefaultParams(),
			Sim:          ds.Sim,
			StoreTopN:    200,
			InitialStore: s,
		})
		return err
	}
	if err := adopt(m.store, lms); err != nil {
		t.Fatalf("matching store rejected: %v", err)
	}
	reversed := slices.Clone(lms)
	slices.Reverse(reversed)
	if err := adopt(m.store, reversed); err != nil {
		t.Fatalf("matching store in another order rejected: %v", err)
	}

	outside := graph.NodeID(0)
	for slices.Contains(lms, outside) {
		outside++
	}
	swapped := append(slices.Clone(lms[:len(lms)-1]), outside)
	if adopt(m.store, swapped) == nil {
		t.Error("store holding a landmark outside lms accepted")
	}
	if adopt(m.store, lms[1:]) == nil {
		t.Error("store holding more landmarks than lms accepted")
	}
	if adopt(m.store, append(slices.Clone(lms), outside)) == nil {
		t.Error("store lacking one of lms accepted")
	}

	vocabLen := ds.Graph.Vocabulary().Len()
	withData := func(vocabLen int, ids ...graph.NodeID) *landmark.Store {
		s := landmark.NewStore(vocabLen, 10)
		for _, id := range ids {
			if err := s.Put(&landmark.Data{Landmark: id, Topical: make([]landmark.List, vocabLen)}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	n := graph.NodeID(ds.Graph.NumNodes())
	if adopt(withData(vocabLen, append(slices.Clone(lms), n)...), lms) == nil {
		t.Error("store holding an out-of-range landmark accepted")
	}
	if adopt(withData(vocabLen+1, lms...), lms) == nil {
		t.Error("store over another vocabulary accepted")
	}
	// A list entry naming node n: the store of a larger graph would
	// recommend an account that does not exist.
	listing := m.store.Subset(func(graph.NodeID) bool { return true })
	d := *listing.Get(lms[0])
	d.Topical = slices.Clone(d.Topical)
	d.Topical[0] = landmark.List{Nodes: []graph.NodeID{n}, Sigma: []float32{0.5}, Topo: []float32{0.5}}
	if err := listing.Put(&d); err != nil {
		t.Fatal(err)
	}
	if adopt(listing, lms) == nil {
		t.Error("store listing node n accepted")
	}
	if adopt(nil, append(slices.Clone(lms), n)) == nil {
		t.Error("out-of-range landmark accepted")
	}
}

// TestAdoptedStoreKeepsItsListLength: refreshes write lists of the
// adopted store's own length whatever Config.StoreTopN says, so the store
// a compaction republishes reads back.
func TestAdoptedStoreKeepsItsListLength(t *testing.T) {
	m, ds := newManager(t, Eager, 4)
	lms := m.store.Landmarks()
	short, _ := landmark.Preprocess(m.eng, lms, landmark.PreprocessConfig{TopN: 5})
	adopted, err := NewManager(ds.Graph, lms, Config{
		Params:       core.DefaultParams(),
		Sim:          ds.Sim,
		StoreTopN:    200,
		Strategy:     Eager,
		InitialStore: short,
	})
	if err != nil {
		t.Fatal(err)
	}
	lm := lms[0]
	if err := adopted.Apply([]Update{{Edge: graph.Edge{Src: lm, Dst: (lm + 17) % 60, Label: topics.NewSet(0)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	if adopted.Stats().Refreshes == 0 {
		t.Fatal("the batch refreshed no landmark")
	}
	for _, l := range lms {
		d := adopted.store.Get(l)
		for _, list := range d.Topical {
			if list.Len() > short.TopN() {
				t.Fatalf("landmark %d holds a list of %d entries, the store's length is %d", l, list.Len(), short.TopN())
			}
		}
	}
	var buf bytes.Buffer
	if _, err := store.WriteLandmarks(&buf, adopted.store); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadLandmarks(&buf); err != nil {
		t.Fatalf("republished store does not read back: %v", err)
	}
}
