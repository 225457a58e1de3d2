package dynamic

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// The lock discipline of Manager.mu: readers share it, a writer excludes
// them. `make race` runs these tests at GOMAXPROCS 1 and 2 as well.

// returnsWithin fails the test unless fn returns within d. A call still
// blocked when the test ends is left running; the caller releases what
// it waits on.
func returnsWithin(t *testing.T, name string, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Errorf("%s did not return within %v while a reader held the lock", name, d)
	}
}

// TestReadersDoNotWaitForReaders: with a read lock held, every read-only
// method still answers.
func TestReadersDoNotWaitForReaders(t *testing.T) {
	m, _ := newManager(t, Eager, 4)
	if m.Stats().StaleNow != 0 {
		t.Fatal("a fresh manager has stale landmarks")
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	const wait = 5 * time.Second
	returnsWithin(t, "Recommend", wait, func() {
		if _, err := m.Recommend(3, 0, 5); err != nil {
			t.Error(err)
		}
	})
	returnsWithin(t, "RecommendExact", wait, func() { m.RecommendExact(3, 0, 5) })
	returnsWithin(t, "Stats", wait, func() { m.Stats() })
	returnsWithin(t, "QueryStaleness", wait, func() { m.QueryStaleness(3, 0, 5) })
}

// TestLazyPriorityQueryReadsUnderReadLock: under Lazy nothing schedules,
// so the priority scheduler's query hits have no reader and a query
// counts none. Once a query has refreshed its topic on the stale
// landmarks it meets, they stay stale on other topics, and the same
// query answers under the read lock: with a read lock held it still
// returns.
func TestLazyPriorityQueryReadsUnderReadLock(t *testing.T) {
	ds := gen.RandomWith(60, 600, 5)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 6, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ds.Graph, lms, Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2,
		Strategy: Lazy, Scheduler: SchedPriority,
	})
	if err != nil {
		t.Fatal(err)
	}
	lm := lms[0]
	if err := m.Apply([]Update{{Edge: graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}, Add: true}}); err != nil {
		t.Fatal(err)
	}
	const u, tp = graph.NodeID(3), topics.ID(1)
	if _, err := m.Recommend(u, tp, 5); err != nil { // refreshes topic 1 where it meets it stale
		t.Fatal(err)
	}
	if m.Stats().StaleNow == 0 {
		t.Fatal("no landmark stays stale on another topic")
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.meetsStaleLocked(u, tp, m.cfg.QueryDepth) {
		t.Fatal("the query still meets a landmark stale on its topic")
	}
	for lm, meta := range m.staleMeta {
		if meta.hits != 0 {
			t.Fatalf("landmark %d counted %d query hits under Lazy", lm, meta.hits)
		}
	}
	returnsWithin(t, "Recommend", 5*time.Second, func() {
		if _, err := m.Recommend(u, tp, 5); err != nil {
			t.Error(err)
		}
	})
}

// TestWriterExcludesReaders: a Recommend issued while Apply holds the
// write lock waits for the whole batch, then answers exactly what a call
// after the batch answers. Apply is held inside the lock by the clock
// that stamps its unstamped update (decay is on).
func TestWriterExcludesReaders(t *testing.T) {
	ds := gen.RandomWith(60, 600, 3)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 6, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ds.Graph, lms, Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2,
		Strategy: Eager, HalfLife: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	lm := m.store.Landmarks()[0]
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	stamp := m.nowFn()
	m.nowFn = func() int64 {
		once.Do(func() { close(entered) })
		<-release
		return stamp
	}
	applied := make(chan error, 1)
	go func() {
		applied <- m.Apply([]Update{{Edge: graph.Edge{Src: lm, Dst: (lm + 29) % 60, Label: topics.NewSet(1)}, Add: true}})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("Apply never stamped its update")
	}

	type answer struct {
		got []ranking.Scored
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		got, err := m.Recommend(lm, 1, 10)
		answered <- answer{got, err}
	}()
	select {
	case <-answered:
		close(release)
		t.Fatal("Recommend answered while Apply held the write lock")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	a := <-answered
	if a.err != nil {
		t.Fatal(a.err)
	}
	if m.Stats().Refreshes == 0 {
		t.Fatal("the batch refreshed no landmark")
	}
	want, err := m.Recommend(lm, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.got, want) {
		t.Fatalf("Recommend behind the writer = %v, after the batch = %v", a.got, want)
	}
}

// TestReadersBesideWriterMatchFreshManager: four readers query the
// manager while one writer applies 20 batches. Run under -race, this
// checks that no reader touches state the writer mutates; afterwards
// every key answers bit for bit what a manager built on the final graph
// answers.
func TestReadersBesideWriterMatchFreshManager(t *testing.T) {
	m, ds := newManager(t, Eager, 7)
	type key struct {
		u graph.NodeID
		t topics.ID
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]key, 32)
	T := ds.Graph.Vocabulary().Len()
	for i := range keys {
		keys[i] = key{graph.NodeID(rng.Intn(ds.Graph.NumNodes())), topics.ID(rng.Intn(T))}
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
				if i%4 == 0 {
					m.RecommendExact(k.u, k.t, 10)
				}
				m.Stats()
			}
		}(w)
	}
	// Every reader has answered once before the first batch applies.
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
	if st := m.Stats(); st.Batches != 20 || st.StaleNow != 0 {
		t.Fatalf("after the stream: %d batches applied, %d landmarks stale; want 20 and 0", st.Batches, st.StaleNow)
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
