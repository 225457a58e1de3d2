package dynamic

import (
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/store"
	"repro/internal/topics"
)

// Per-topic lazy refresh: a query on topic t refreshes topic t, and
// nothing else, on the stale landmarks its vicinity meets.

// vicinity returns the landmarks a depth-2 query from u meets.
func vicinity(m *Manager, u graph.NodeID) []graph.NodeID {
	var met []graph.NodeID
	graph.BFSOut(m.Graph(), u, 2, func(v graph.NodeID, _ int) bool {
		if m.store.Get(v) != nil {
			met = append(met, v)
		}
		return true
	})
	return met
}

// TestLazyQueryRefreshesOnlyItsTopic: after a batch stales every
// landmark on every topic, a topic-t query rewrites exactly the topic-t
// lists of the landmarks it meets — to what a per-topic refresh of the
// current engine builds — and leaves every other list as it was, still
// stale. A second query on t, which meets no landmark stale on t, answers
// under the read lock alone.
func TestLazyQueryRefreshesOnlyItsTopic(t *testing.T) {
	m, ds := newManager(t, Lazy, 5)
	batch := make([]Update, 0, len(m.lms))
	for _, lm := range m.lms {
		batch = append(batch, Update{Edge: graph.Edge{Src: lm, Dst: (lm + 17) % 60, Label: topics.NewSet(2)}, Add: true})
	}
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	var querier graph.NodeID
	var met []graph.NodeID
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		if v := vicinity(m, graph.NodeID(u)); len(v) > len(met) {
			querier, met = graph.NodeID(u), v
		}
	}
	if len(met) < 2 {
		t.Fatalf("no querier meets two landmarks")
	}
	for _, lm := range m.lms {
		if m.store.Stale(lm) != m.allTopics {
			t.Fatalf("landmark %d stale on %v after the batch, want every topic", lm, m.store.Stale(lm).Topics())
		}
	}
	before := make(map[graph.NodeID]*landmark.Data, len(m.lms))
	for _, lm := range m.lms {
		before[lm] = m.store.Get(lm)
	}
	const tp = topics.ID(4)
	if _, err := m.Recommend(querier, tp, 10); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.TopicRefreshes != len(met) || st.Refreshes != 0 {
		t.Fatalf("%d topic refreshes and %d whole ones, want %d and 0", st.TopicRefreshes, st.Refreshes, len(met))
	}
	want, _ := landmark.PreprocessTopic(m.eng, met, tp, landmark.PreprocessConfig{TopN: m.cfg.StoreTopN})
	wantAt := make(map[graph.NodeID]landmark.TopicLists, len(want))
	for _, tl := range want {
		wantAt[tl.Landmark] = tl
	}
	same := func(a, b landmark.List) bool {
		return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Sigma, b.Sigma) && slices.Equal(a.Topo, b.Topo)
	}
	for _, lm := range m.lms {
		d, old := m.store.Get(lm), before[lm]
		tl, refreshed := wantAt[lm]
		if !refreshed {
			if d != old || m.store.Stale(lm) != m.allTopics {
				t.Fatalf("landmark %d, not met, was rewritten or marked fresh", lm)
			}
			continue
		}
		if m.store.Stale(lm) != m.allTopics.Remove(tp) {
			t.Fatalf("met landmark %d stale on %v, want every topic but %d", lm, m.store.Stale(lm).Topics(), tp)
		}
		if !same(d.Topical[tp], tl.Topical) || d.Iterations != max(old.Iterations, tl.Iterations) {
			t.Fatalf("met landmark %d: lists differ from a per-topic refresh", lm)
		}
		for ti := range d.Topical {
			if ti != int(tp) && !same(d.Topical[ti], old.Topical[ti]) {
				t.Fatalf("met landmark %d: the query rewrote topic %d", lm, ti)
			}
		}
	}

	// Nothing the querier meets is stale on tp any more: the next query
	// must not wait for a writer's lock.
	m.mu.RLock()
	returnsWithin(t, "Recommend on a refreshed topic", 5*time.Second, func() {
		if _, err := m.Recommend(querier, tp, 10); err != nil {
			t.Error(err)
		}
	})
	m.mu.RUnlock()
	if st := m.Stats(); st.TopicRefreshes != len(met) {
		t.Fatalf("the second query refreshed again: %d topic refreshes", st.TopicRefreshes)
	}
}

// TestLazyReadersBesideWriterMatchFreshManager is the Lazy form of
// TestReadersBesideWriterMatchFreshManager: four readers query keys over
// many topics, refreshing topics as they go, while a writer applies 20
// batches; afterwards every key answers bit for bit what a manager built
// on the final graph answers, although landmarks stay stale on topics no
// query asked for.
func TestLazyReadersBesideWriterMatchFreshManager(t *testing.T) {
	m, ds := newManager(t, Lazy, 7)
	type key struct {
		u graph.NodeID
		t topics.ID
	}
	rng := rand.New(rand.NewSource(9))
	T := ds.Graph.Vocabulary().Len()
	keys := make([]key, 48)
	for i := range keys {
		keys[i] = key{graph.NodeID(rng.Intn(ds.Graph.NumNodes())), topics.ID(i % T)}
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg, started sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		started.Add(1)
		go func(w int) {
			defer wg.Done()
			var first sync.Once
			defer first.Do(started.Done)
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[i%len(keys)]
				if _, err := m.Recommend(k.u, k.t, 10); err != nil {
					errs <- err
					return
				}
				first.Do(started.Done)
				m.Stats()
			}
		}(w)
	}
	started.Wait()
	var applyErr error
	for _, b := range recoveryBatches(ds.Graph, 20) {
		if applyErr = m.Apply(b); applyErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	for err := range errs {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Refreshes != 0 || st.TopicRefreshes == 0 {
		t.Fatalf("Lazy stream: %d whole refreshes, %d topic refreshes", st.Refreshes, st.TopicRefreshes)
	}

	final, ok := m.Graph().(*graph.Graph)
	if !ok {
		final = m.Graph().(*graph.Overlay).Compact()
	}
	fresh, err := NewManager(final, m.lms, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		got, err := m.Recommend(k.u, k.t, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Recommend(k.u, k.t, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("user %d topic %d: %v, fresh manager %v", k.u, k.t, got, want)
		}
	}
	requireSameRankings(t, fresh, m)
}

// TestRecoveryAfterCompactionKeepsStaleMarks: a compaction persists the
// store with the lists a Lazy manager has not refreshed yet, and
// truncates the WAL. A crash right after it must not lose the marks on
// those lists: the recovered manager holds the same stale marks and
// serves bit-identical rankings, refreshing what the live one refreshes.
func TestRecoveryAfterCompactionKeepsStaleMarks(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	snapPath := filepath.Join(dir, "graph.trg2")
	lmkPath := filepath.Join(dir, "landmarks.lmk3")
	ds := gen.RandomWith(50, 500, 5)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 5, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	const compactDepth = 3
	cfg := durableConfig(ds, w, snapPath, lmkPath, compactDepth)
	cfg.Strategy = Lazy
	live, err := NewManager(ds.Graph, lms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Six batches: compactions after the third and the sixth; the crash
	// lands right after the second.
	for _, b := range recoveryBatches(ds.Graph, 6) {
		if err := live.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	st := live.Stats()
	if st.SnapshotWrites != 2 || w.Records() != 0 {
		t.Fatalf("%d snapshots, %d WAL records; the drill needs a crash right after the second compaction", st.SnapshotWrites, w.Records())
	}
	if st.StaleNow == 0 {
		t.Fatal("no landmark is stale at the crash; the drill shows nothing")
	}

	snap, err := store.OpenSnapshot(snapPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	w2, replay, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lmks, err := store.OpenLandmarks(lmkPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lmks.Close()
	rcfg := durableConfig(ds, w2, snapPath, lmkPath, compactDepth)
	rcfg.Strategy = Lazy
	rcfg.InitialStore = lmks.Store()
	reborn, err := NewManager(snap.Graph(), lms, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reborn.Replay(replay); err != nil {
		t.Fatal(err)
	}
	if got := reborn.Stats().StaleNow; got != st.StaleNow {
		t.Fatalf("%d landmarks stale after recovery, %d before the crash", got, st.StaleNow)
	}
	for _, lm := range lms {
		if live.store.Stale(lm) != reborn.store.Stale(lm) {
			t.Fatalf("landmark %d stale on %v before the crash, %v after", lm, live.store.Stale(lm).Topics(), reborn.store.Stale(lm).Topics())
		}
	}
	requireSameRankings(t, live, reborn)
}

// TestQueryStalenessUsesTopicRefresh: QueryStaleness, measured against a
// per-topic refresh, reads what it read against a whole-landmark
// Preprocess of the met landmarks, on a fixture with stale lists.
func TestQueryStalenessUsesTopicRefresh(t *testing.T) {
	m, ds := newManager(t, Lazy, 11)
	for _, b := range recoveryBatches(ds.Graph, 8) {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	nonzero := 0
	for u := graph.NodeID(0); u < 60; u += 7 {
		for _, tp := range []topics.ID{0, 5, 13} {
			met := vicinity(m, u)
			got, n := m.QueryStaleness(u, tp, 10)
			if n != len(met) {
				t.Fatalf("user %d: %d landmarks met, want %d", u, n, len(met))
			}
			if n == 0 {
				continue
			}
			whole, _ := landmark.Preprocess(m.eng, met, landmark.PreprocessConfig{TopN: m.cfg.StoreTopN})
			var sum float64
			for _, lm := range met {
				sum += ranking.KendallTopK(
					topScored(&m.store.Get(lm).Topical[tp], 10),
					topScored(&whole.Get(lm).Topical[tp], 10))
			}
			if want := sum / float64(n); got != want {
				t.Fatalf("user %d topic %d: staleness %v, against whole refreshes %v", u, tp, got, want)
			}
			if got > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no query saw stale lists; the fixture shows nothing")
	}
}
