package subscribe

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// fakeCompute is a controllable stand-in for the server's serving path:
// the top-k it returns is swappable, and it can be gated to hold the
// worker mid-re-score.
type fakeCompute struct {
	mu      sync.Mutex
	top     []ranking.Scored
	err     error
	started chan struct{} // one send per Compute entry, if non-nil
	gate    chan struct{} // one receive per Compute exit, if non-nil
	calls   atomic.Int64
}

func (f *fakeCompute) set(top []ranking.Scored) {
	f.mu.Lock()
	f.top = top
	f.mu.Unlock()
}

func (f *fakeCompute) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

func (f *fakeCompute) compute(ctx context.Context, k Key) (Result, error) {
	f.calls.Add(1)
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return Result{}, f.err
	}
	return Result{Scored: append([]ranking.Scored(nil), f.top...)}, nil
}

func scored(ids ...graph.NodeID) []ranking.Scored {
	out := make([]ranking.Scored, len(ids))
	for i, id := range ids {
		out[i] = ranking.Scored{Node: id, Score: float64(len(ids) - i)}
	}
	return out
}

// newTestHub wires a hub over fakeCompute with a fixed dependency set.
func newTestHub(t *testing.T, fc *fakeCompute, nodes []graph.NodeID, cfg Config) *Hub {
	t.Helper()
	cfg.Compute = fc.compute
	cfg.Neighborhood = func(Key) []graph.NodeID { return nodes }
	h := New(cfg)
	t.Cleanup(h.Close)
	return h
}

func flush(t *testing.T, h *Hub) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestRegisterPushesInitialReset(t *testing.T) {
	fc := &fakeCompute{top: scored(1, 2, 3)}
	h := newTestHub(t, fc, []graph.NodeID{1, 2, 3}, Config{})
	id, err := h.Register(Key{User: 7, N: 3, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	events, _, err := h.EventsSince(id, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("%d events after register, want 1 (Reset)", len(events))
	}
	ev := events[0]
	if !ev.Reset || ev.Seq != 1 || len(ev.Top) != 3 || ev.Top[0].User != 1 {
		t.Errorf("initial event = %+v, want a Reset snapshot of [1 2 3]", ev)
	}
	if len(ev.Added)+len(ev.Removed)+len(ev.Moved) != 0 {
		t.Errorf("Reset event carries diffs: %+v", ev)
	}
}

// TestMarksCoalesce pins the coalescing invariant: marks landing while a
// group is queued (or mid-re-score, then queued) fold into one pending
// entry — one re-score per (group, generation) no matter how many
// batches land first.
func TestMarksCoalesce(t *testing.T) {
	fc := &fakeCompute{top: scored(1, 2), started: make(chan struct{}), gate: make(chan struct{})}
	h := newTestHub(t, fc, []graph.NodeID{1, 2}, Config{})
	if _, err := h.Register(Key{User: 7, N: 2, Method: "landmark"}); err != nil {
		t.Fatal(err)
	}
	<-fc.started // worker is inside the initial re-score, group not pending
	for i := 0; i < 3; i++ {
		h.OnBatch(dynamic.BatchEffect{Epoch: uint64(i + 1), Endpoints: []graph.NodeID{1}})
	}
	fc.gate <- struct{}{} // finish the initial re-score
	<-fc.started          // the three marks collapsed into this one
	fc.gate <- struct{}{}
	flush(t, h)
	st := h.Stats()
	if st.Rescores != 2 {
		t.Errorf("rescores = %d, want 2 (initial + one coalesced batch)", st.Rescores)
	}
	if st.RescoresCoalesced != 2 {
		t.Errorf("rescores_coalesced = %d, want 2 (marks 2 and 3 absorbed)", st.RescoresCoalesced)
	}
	if st.RescoreMarks != 4 {
		t.Errorf("rescore_marks = %d, want 4 (register + 3 batches)", st.RescoreMarks)
	}
}

// TestDiffSuppressionAndDeltas drives the three delta outcomes: unchanged
// top-k pushes nothing, a reorder pushes Moved, membership change pushes
// Added/Removed — with contiguous sequence numbers.
func TestDiffSuppressionAndDeltas(t *testing.T) {
	fc := &fakeCompute{top: scored(1, 2, 3)}
	h := newTestHub(t, fc, []graph.NodeID{1, 2, 3}, Config{})
	id, err := h.Register(Key{User: 7, N: 3, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, h)

	// Same membership and order, different scores: suppressed.
	fc.set([]ranking.Scored{{Node: 1, Score: 9}, {Node: 2, Score: 8}, {Node: 3, Score: 7}})
	h.OnBatch(dynamic.BatchEffect{Epoch: 1, Endpoints: []graph.NodeID{2}})
	flush(t, h)
	if events, _, _ := h.EventsSince(id, 1, false); len(events) != 0 {
		t.Fatalf("score-only drift pushed %d events, want 0", len(events))
	}
	if st := h.Stats(); st.PushesSuppressed != 1 {
		t.Errorf("pushes_suppressed = %d, want 1", st.PushesSuppressed)
	}

	// Reorder: Moved only.
	fc.set(scored(2, 1, 3))
	h.OnBatch(dynamic.BatchEffect{Epoch: 2, Endpoints: []graph.NodeID{2}})
	flush(t, h)
	events, _, _ := h.EventsSince(id, 1, false)
	if len(events) != 1 {
		t.Fatalf("reorder pushed %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Seq != 2 || ev.Reset {
		t.Errorf("reorder event = %+v, want seq 2, not reset", ev)
	}
	if len(ev.Added) != 0 || len(ev.Removed) != 0 || len(ev.Moved) != 2 {
		t.Errorf("reorder diffs = added %v removed %v moved %v, want only [2 1] moved",
			ev.Added, ev.Removed, ev.Moved)
	}

	// Membership change: Added/Removed.
	fc.set(scored(2, 1, 9))
	h.OnBatch(dynamic.BatchEffect{Epoch: 3, Endpoints: []graph.NodeID{1}})
	flush(t, h)
	events, _, _ = h.EventsSince(id, 2, false)
	if len(events) != 1 {
		t.Fatalf("membership change pushed %d events, want 1", len(events))
	}
	ev = events[0]
	if ev.Seq != 3 {
		t.Errorf("seq = %d, want 3 (contiguous)", ev.Seq)
	}
	if len(ev.Added) != 1 || ev.Added[0] != 9 || len(ev.Removed) != 1 || ev.Removed[0] != 3 {
		t.Errorf("diffs = added %v removed %v, want added [9] removed [3]", ev.Added, ev.Removed)
	}
	if ev.Epoch != 3 {
		t.Errorf("event epoch = %d, want 3", ev.Epoch)
	}
}

// TestAffectedIndexBoundsRescores is the efficiency gate at hub scope:
// batches touching no subscribed neighborhood trigger zero re-scores;
// batches touching it (or global effects) trigger exactly one.
func TestAffectedIndexBoundsRescores(t *testing.T) {
	fc := &fakeCompute{top: scored(1, 2)}
	h := newTestHub(t, fc, []graph.NodeID{1, 2, 3}, Config{})
	if _, err := h.Register(Key{User: 7, N: 2, Method: "landmark"}); err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	base := h.Stats().Rescores

	// Disconnected region: no marks, no re-scores.
	for i := 0; i < 5; i++ {
		h.OnBatch(dynamic.BatchEffect{Epoch: uint64(i + 1), Endpoints: []graph.NodeID{100, 200}})
	}
	flush(t, h)
	if st := h.Stats(); st.Rescores != base || st.RescoreMarks != 1 {
		t.Errorf("disconnected batches: rescores %d (want %d), marks %d (want 1)",
			st.Rescores, base, st.RescoreMarks)
	}

	// A touched dependency node re-scores once.
	h.OnBatch(dynamic.BatchEffect{Epoch: 10, Endpoints: []graph.NodeID{3}})
	flush(t, h)
	if st := h.Stats(); st.Rescores != base+1 {
		t.Errorf("touching batch: rescores = %d, want %d", st.Rescores, base+1)
	}

	// Global effects always re-score.
	h.OnBatch(dynamic.BatchEffect{Epoch: 11, Global: true})
	flush(t, h)
	if st := h.Stats(); st.Rescores != base+2 {
		t.Errorf("global batch: rescores = %d, want %d", st.Rescores, base+2)
	}

	// Stale/refreshed landmark nodes mark through the same dependency set.
	h.OnBatch(dynamic.BatchEffect{Epoch: 12, StaleLandmarks: []graph.NodeID{2}})
	flush(t, h)
	if st := h.Stats(); st.Rescores != base+3 {
		t.Errorf("stale-landmark batch: rescores = %d, want %d", st.Rescores, base+3)
	}
}

// TestGlobalBatchRescoresTouchedGroupsFirst: a global effect re-scores
// every group, but the ones whose neighbourhood the batch touched go to
// the head of the queue.
func TestGlobalBatchRescoresTouchedGroupsFirst(t *testing.T) {
	var mu sync.Mutex
	var order []graph.NodeID
	h := New(Config{
		Compute: func(_ context.Context, k Key) (Result, error) {
			mu.Lock()
			order = append(order, k.User)
			mu.Unlock()
			return Result{Scored: scored(1, 2)}, nil
		},
		Neighborhood: func(k Key) []graph.NodeID { return []graph.NodeID{k.User} },
	})
	t.Cleanup(h.Close)
	for u := graph.NodeID(0); u < 12; u++ {
		if _, err := h.Register(Key{User: u, N: 2, Method: "landmark"}); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, h)
	for _, touched := range []graph.NodeID{3, 7, 10} {
		mu.Lock()
		order = order[:0]
		mu.Unlock()
		marks := h.Stats().RescoreMarks
		h.OnBatch(dynamic.BatchEffect{Epoch: uint64(touched), Endpoints: []graph.NodeID{touched}, Global: true})
		flush(t, h)
		mu.Lock()
		got := append([]graph.NodeID(nil), order...)
		mu.Unlock()
		if len(got) != 12 || got[0] != touched {
			t.Fatalf("global batch touching %d re-scored %v, want all 12 groups with %d first", touched, got, touched)
		}
		if d := h.Stats().RescoreMarks - marks; d != 12 {
			t.Fatalf("global batch touching %d left %d marks, want one per group", touched, d)
		}
	}
}

// orderHub registers keys on a hub whose Compute records the order keys
// are re-scored in, with every group indexed under its user and node 100.
// It returns a function that runs one batch effect and returns the order
// it re-scored groups in.
func orderHub(t *testing.T, keys []Key) func(dynamic.BatchEffect) []Key {
	t.Helper()
	var mu sync.Mutex
	var order []Key
	h := New(Config{
		Compute: func(_ context.Context, k Key) (Result, error) {
			mu.Lock()
			order = append(order, k)
			mu.Unlock()
			return Result{Scored: scored(1, 2)}, nil
		},
		Neighborhood:  func(k Key) []graph.NodeID { return []graph.NodeID{k.User, 100} },
		RescoreBudget: len(keys),
	})
	t.Cleanup(h.Close)
	for _, k := range keys {
		if _, err := h.Register(k); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, h)
	return func(fx dynamic.BatchEffect) []Key {
		mu.Lock()
		order = order[:0]
		mu.Unlock()
		h.OnBatch(fx)
		flush(t, h)
		mu.Lock()
		defer mu.Unlock()
		return append([]Key(nil), order...)
	}
}

// TestBatchActorsRescoredFirst: of the groups a batch touches, the ones
// keyed on an endpoint of the batch — whose own edges changed — are
// re-scored first, then the rest of the touched groups, each tier in Key
// order; a global effect queues the untouched groups last.
func TestBatchActorsRescoredFirst(t *testing.T) {
	var keys []Key
	for u := graph.NodeID(0); u < 6; u++ {
		keys = append(keys, Key{User: u, Topic: topics.ID(u % 2), N: 2, Method: "landmark"})
	}
	keys = append(keys, Key{User: 200, N: 2, Method: "landmark"}) // indexed under 200 and 100
	run := orderHub(t, keys)
	got := run(dynamic.BatchEffect{Epoch: 1, Endpoints: []graph.NodeID{4, 100, 1}})
	want := []Key{keys[1], keys[4], keys[0], keys[2], keys[3], keys[5], keys[6]}
	if !slices.Equal(got, want) {
		t.Fatalf("batch with endpoints 4, 100, 1 re-scored %v, want %v", got, want)
	}
	// Users 3 and 200 are endpoints and touch no other group, so the
	// global effect queues every other group behind theirs.
	got = run(dynamic.BatchEffect{Epoch: 2, Endpoints: []graph.NodeID{3, 200}, Global: true})
	want = []Key{keys[3], keys[6], keys[0], keys[1], keys[2], keys[4], keys[5]}
	if !slices.Equal(got, want) {
		t.Fatalf("global batch with endpoints 3, 200 re-scored %v, want %v", got, want)
	}
}

// TestRescoreOrderDeterministic: two hubs with the same registrations,
// made in different orders, re-score the same effects in the same order —
// map iteration order never leaks into the dirty queue.
func TestRescoreOrderDeterministic(t *testing.T) {
	var keys []Key
	for u := graph.NodeID(0); u < 24; u++ {
		keys = append(keys, Key{User: u % 8, Topic: topics.ID(u / 8), N: 3, Method: "landmark"})
	}
	reversed := slices.Clone(keys)
	slices.Reverse(reversed)
	a, b := orderHub(t, keys), orderHub(t, reversed)
	for i, fx := range []dynamic.BatchEffect{
		{Endpoints: []graph.NodeID{5, 2}},
		{StaleLandmarks: []graph.NodeID{100}},
		{Endpoints: []graph.NodeID{7}, Global: true},
		{Refreshed: []graph.NodeID{1, 3, 100}},
	} {
		fx.Epoch = uint64(i + 1)
		if ga, gb := a(fx), b(fx); !slices.Equal(ga, gb) || len(ga) == 0 {
			t.Fatalf("effect %d: re-score orders differ:\n%v\n%v", i, ga, gb)
		}
	}
}

// TestSharedGroupSingleRescore: S subscribers of one key cost one
// re-score per drain, and each gets its own event stream.
func TestSharedGroupSingleRescore(t *testing.T) {
	fc := &fakeCompute{top: scored(1, 2)}
	h := newTestHub(t, fc, []graph.NodeID{1, 2}, Config{})
	k := Key{User: 7, N: 2, Method: "landmark"}
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := h.Register(k)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	flush(t, h)
	if st := h.Stats(); st.Groups != 1 || st.Active != 4 {
		t.Fatalf("stats = %+v, want 1 group, 4 active", st)
	}
	preCalls := fc.calls.Load()
	fc.set(scored(2, 1))
	h.OnBatch(dynamic.BatchEffect{Epoch: 1, Endpoints: []graph.NodeID{1}})
	flush(t, h)
	if got := fc.calls.Load() - preCalls; got != 1 {
		t.Errorf("4 subscribers cost %d computes for one batch, want 1", got)
	}
	for _, id := range ids {
		events, _, err := h.EventsSince(id, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 || events[len(events)-1].Top[0].User != 2 {
			t.Errorf("sub %s missed the shared delta: %+v", id, events)
		}
	}
}

// TestLapseResyncAndDrop pins both lapse semantics on a tiny ring: a
// connect-time reader resyncs with one synthesized Reset snapshot; a
// mid-stream reader is dropped with ErrLapsed and counted.
func TestLapseResyncAndDrop(t *testing.T) {
	fc := &fakeCompute{top: scored(1, 2)}
	h := newTestHub(t, fc, []graph.NodeID{1, 2}, Config{EventBuffer: 2})
	id, err := h.Register(Key{User: 7, N: 2, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	// Push 4 more deltas; the ring keeps only the last 2.
	tops := [][]graph.NodeID{{2, 1}, {1, 2}, {2, 1}, {1, 2}}
	for i, ids := range tops {
		fc.set(scored(ids...))
		h.OnBatch(dynamic.BatchEffect{Epoch: uint64(i + 1), Endpoints: []graph.NodeID{1}})
		flush(t, h)
	}

	// after=0 lapsed out of the ring (oldest buffered seq is 4).
	events, _, err := h.EventsSince(id, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Reset || events[0].Seq != 5 {
		t.Fatalf("resync = %+v, want one Reset at seq 5", events)
	}
	if events[0].Top[0].User != 1 {
		t.Errorf("resync snapshot top = %+v, want current [1 2]", events[0].Top)
	}

	if _, _, err := h.EventsSince(id, 0, false); !errors.Is(err, ErrLapsed) {
		t.Fatalf("mid-stream lapse error = %v, want ErrLapsed", err)
	}
	if st := h.Stats(); st.DroppedSlowConsumers != 1 {
		t.Errorf("dropped_slow_consumers = %d, want 1", st.DroppedSlowConsumers)
	}

	// An in-window reader replays the tail without resync.
	events, _, err = h.EventsSince(id, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Seq != 4 || events[1].Seq != 5 {
		t.Errorf("tail replay = %+v, want seqs [4 5]", events)
	}
}

func TestLimitAndUnsubscribe(t *testing.T) {
	fc := &fakeCompute{top: scored(1)}
	h := newTestHub(t, fc, []graph.NodeID{1}, Config{MaxSubscriptions: 1})
	id, err := h.Register(Key{User: 1, N: 1, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register(Key{User: 2, N: 1, Method: "landmark"}); !errors.Is(err, ErrLimit) {
		t.Fatalf("over-limit register error = %v, want ErrLimit", err)
	}
	flush(t, h)

	// A blocked reader wakes on unsubscribe and then sees ErrUnknown.
	_, notify, err := h.EventsSince(id, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		<-notify
		close(done)
	}()
	if err := h.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader not woken by unsubscribe")
	}
	if _, _, err := h.EventsSince(id, 0, false); !errors.Is(err, ErrUnknown) {
		t.Errorf("events after unsubscribe: %v, want ErrUnknown", err)
	}
	if err := h.Unsubscribe(id); !errors.Is(err, ErrUnknown) {
		t.Errorf("double unsubscribe: %v, want ErrUnknown", err)
	}
	if st := h.Stats(); st.Active != 0 || st.Groups != 0 {
		t.Errorf("stats after teardown = %+v, want empty", st)
	}
	// Room freed: registering succeeds again.
	if _, err := h.Register(Key{User: 3, N: 1, Method: "landmark"}); err != nil {
		t.Fatal(err)
	}
}

// TestRescoreFailureRetries: a failing compute path re-queues the group
// and the delta arrives once compute recovers; the failure is counted.
func TestRescoreFailureRetries(t *testing.T) {
	fc := &fakeCompute{top: scored(1, 2)}
	fc.setErr(errors.New("engine saturated"))
	h := newTestHub(t, fc, []graph.NodeID{1, 2}, Config{})
	id, err := h.Register(Key{User: 7, N: 2, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().RescoreFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no failure recorded")
		}
		time.Sleep(time.Millisecond)
	}
	fc.setErr(nil)
	// The retried re-score (paced by the worker's backoff) delivers the
	// initial Reset.
	for {
		if time.Now().After(deadline) {
			t.Fatal("recovery never delivered the snapshot")
		}
		events, _, err := h.EventsSince(id, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 1 && events[0].Reset {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := h.Stats(); st.RescoreFailures == 0 {
		t.Error("rescore_failures = 0 after a failing compute")
	}
}

// TestClosedHub: operations on a closed hub fail cleanly and blocked
// readers wake.
func TestClosedHub(t *testing.T) {
	fc := &fakeCompute{top: scored(1)}
	cfg := Config{Compute: fc.compute, Neighborhood: func(Key) []graph.NodeID { return []graph.NodeID{1} }}
	h := New(cfg)
	id, err := h.Register(Key{User: 1, N: 1, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	_, notify, err := h.EventsSince(id, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	select {
	case <-notify:
	case <-time.After(5 * time.Second):
		t.Fatal("reader not woken by Close")
	}
	if _, _, err := h.EventsSince(id, 0, false); !errors.Is(err, ErrClosed) {
		t.Errorf("events on closed hub: %v, want ErrClosed", err)
	}
	if _, err := h.Register(Key{User: 2, N: 1, Method: "landmark"}); !errors.Is(err, ErrClosed) {
		t.Errorf("register on closed hub: %v, want ErrClosed", err)
	}
	h.Close() // idempotent
}

// TestLargeBatchElsewhereRescoresNothing runs the hub on a real manager:
// a 16-update batch that lands outside a subscription's neighbourhood is
// a local effect, so it triggers neither a mark nor a re-score, whether
// or not it moves a per-topic follower maximum. Neither batch size nor a
// moved maximum makes an effect Global.
func TestLargeBatchElsewhereRescoresNothing(t *testing.T) {
	ds := gen.RandomWith(60, 600, 31)
	// Two components: 0..29 holds the subscriber, 30..59 takes the batch.
	var cut []graph.Edge
	for _, e := range ds.Graph.Edges() {
		if (e.Src < 30) != (e.Dst < 30) {
			cut = append(cut, e)
		}
	}
	mgr, err := dynamic.NewManager(ds.Graph.WithoutEdges(cut), []graph.NodeID{3, 17, 33, 48}, dynamic.Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2,
		Strategy: dynamic.Lazy, CompactFraction: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 leads every topic but the last by a wide margin, so nothing
	// the first batch does in the other component can move a maximum.
	T := ds.Graph.Vocabulary().Len()
	var most topics.Set
	for i := 0; i < T-1; i++ {
		most = most.Add(topics.ID(i))
	}
	var lead []dynamic.Update
	for v := graph.NodeID(1); v < 30; v++ {
		lead = append(lead, dynamic.Update{Edge: graph.Edge{Src: v, Dst: 0, Label: most}, Add: true})
	}
	if err := mgr.Apply(lead); err != nil {
		t.Fatal(err)
	}

	h := New(Config{
		Compute: func(_ context.Context, k Key) (Result, error) {
			top, err := mgr.Recommend(k.User, k.Topic, k.N)
			return Result{Scored: top}, err
		},
		Neighborhood: func(k Key) []graph.NodeID { return mgr.Neighborhood(k.User, false) },
	})
	t.Cleanup(h.Close)
	var last dynamic.BatchEffect
	mgr.SetBatchHook(func(fx dynamic.BatchEffect) {
		last = fx
		h.OnBatch(fx)
	})
	if _, err := h.Register(Key{User: 7, Topic: 0, N: 5, Method: "landmark"}); err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	base := h.Stats()

	var batch []dynamic.Update
	for i := 0; i < 16; i++ {
		src, dst := graph.NodeID(30+i), graph.NodeID(30+(i*7+3)%30)
		if src == dst {
			dst = 30 + (dst-29)%30
		}
		batch = append(batch, dynamic.Update{Edge: graph.Edge{Src: src, Dst: dst, Label: topics.NewSet(topics.ID(i % 3))}, Add: i%4 != 3})
	}
	if err := mgr.Apply(batch); err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	if last.Global || len(last.Endpoints) < 16 {
		t.Fatalf("effect of the 16-update batch = %+v, want a local one", last)
	}
	if st := h.Stats(); st.Rescores != base.Rescores || st.RescoreMarks != base.RescoreMarks {
		t.Errorf("batch outside the neighbourhood: rescores %d -> %d, marks %d -> %d, want no change",
			base.Rescores, st.Rescores, base.RescoreMarks, st.RescoreMarks)
	}

	// The same batch size, still in the other component, moving a
	// maximum: node 30 takes the lead on the last topic. That changes the
	// topic's global authority factor alone, which reorders nothing, so
	// it re-scores nothing either.
	batch = batch[:0]
	for v := graph.NodeID(31); v < 47; v++ {
		batch = append(batch, dynamic.Update{Edge: graph.Edge{Src: v, Dst: 30, Label: topics.NewSet(topics.ID(T - 1))}, Add: true})
	}
	if err := mgr.Apply(batch); err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	if st := h.Stats(); last.Global || st.Rescores != base.Rescores || st.RescoreMarks != base.RescoreMarks {
		t.Errorf("batch moving a topic maximum elsewhere: global %v, rescores %d -> %d, marks %d -> %d, want no change",
			last.Global, base.Rescores, st.Rescores, base.RescoreMarks, st.RescoreMarks)
	}
}

// TestMovedMaximumElsewhereKeepsLandmarkAnswersExact: a batch in one
// component of the graph moves topic t's follower maximum, and with it
// the global authority factor g(t) of every score on t. A landmark answer
// on t from the other component, whose landmarks the batch does not
// reach and so does not stale, then equals bit for bit the answer of a
// manager built fresh on the post-batch graph: the stored lists hold
// σ/g(t), and g(t) is read afresh by every answer. The batch's effect is
// not Global, and the hub re-scores no subscription.
func TestMovedMaximumElsewhereKeepsLandmarkAnswersExact(t *testing.T) {
	ds := gen.RandomWith(60, 600, 31)
	// Two components: 0..29 holds the querier, 30..59 takes the batch.
	var cut []graph.Edge
	for _, e := range ds.Graph.Edges() {
		if (e.Src < 30) != (e.Dst < 30) {
			cut = append(cut, e)
		}
	}
	g0 := ds.Graph.WithoutEdges(cut)
	lms := []graph.NodeID{3, 17, 33, 48}
	cfg := dynamic.Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 200, QueryDepth: 2,
		Strategy: dynamic.Lazy, Scheduler: dynamic.SchedPriority, CompactFraction: 1000,
	}
	mgr, err := dynamic.NewManager(g0, lms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The querier follows landmark 3, so its answers fold 3's lists.
	u := graph.NodeID(0)
	for u < 30 && !g0.HasEdge(u, 3) {
		u++
	}
	if u == 30 || u == 3 {
		t.Fatalf("no querier follows landmark 3")
	}
	const topic = topics.ID(0)

	h := New(Config{
		Compute: func(_ context.Context, k Key) (Result, error) {
			top, err := mgr.Recommend(k.User, k.Topic, k.N)
			return Result{Scored: top}, err
		},
		Neighborhood: func(k Key) []graph.NodeID { return mgr.Neighborhood(k.User, false) },
	})
	t.Cleanup(h.Close)
	var last dynamic.BatchEffect
	mgr.SetBatchHook(func(fx dynamic.BatchEffect) {
		last = fx
		h.OnBatch(fx)
	})
	if _, err := h.Register(Key{User: u, Topic: topic, N: 5, Method: "landmark"}); err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	base := h.Stats()
	before, err := mgr.Recommend(u, topic, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Node 30 gains a follower on the topic from every other node of its
	// component, which takes it past the topic's maximum.
	var batch []dynamic.Update
	for v := graph.NodeID(31); v < 60; v++ {
		if !g0.HasEdge(v, 30) {
			batch = append(batch, dynamic.Update{Edge: graph.Edge{Src: v, Dst: 30, Label: topics.NewSet(topic)}, Add: true})
		}
	}
	if err := mgr.Apply(batch); err != nil {
		t.Fatal(err)
	}
	flush(t, h)
	post := mgr.Graph().(*graph.Overlay).Compact()
	if a, b := authority.Compute(g0).MaxFollowersOnTopic(topic), authority.Compute(post).MaxFollowersOnTopic(topic); a == b {
		t.Fatalf("the batch left topic %d's maximum at %d", topic, a)
	}
	if last.Global {
		t.Fatalf("effect of a batch moving a maximum elsewhere = %+v, want a local one", last)
	}
	if st := h.Stats(); st.Rescores != base.Rescores || st.RescoreMarks != base.RescoreMarks {
		t.Errorf("batch moving a maximum elsewhere: rescores %d -> %d, marks %d -> %d, want no change",
			base.Rescores, st.Rescores, base.RescoreMarks, st.RescoreMarks)
	}

	got, err := mgr.Recommend(u, topic, 10)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := dynamic.NewManager(post, lms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Recommend(u, topic, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("answer after the batch %v, fresh manager %v", got, want)
	}
	// The answer moved with g(t) alone: the same candidates in the same
	// order, every score rescaled.
	if len(before) != len(got) || before[0].Node != got[0].Node || before[0].Score == got[0].Score {
		t.Fatalf("answer before the batch %v, after %v: want the same ranking at another scale", before, got)
	}
}

// refHub is the reference model of the hub's marking: a plain map-based
// inverted index from node to the keys of the groups depending on it,
// beside each group's dependency set and member count.
type refHub struct {
	index   map[graph.NodeID]map[Key]bool
	deps    map[Key][]graph.NodeID
	members map[Key]int
}

// setDeps replaces k's dependency set with nodes (nil drops the group).
func (r *refHub) setDeps(k Key, nodes []graph.NodeID) {
	for _, n := range r.deps[k] {
		delete(r.index[n], k)
	}
	delete(r.deps, k)
	if nodes == nil {
		return
	}
	r.deps[k] = nodes
	for _, n := range nodes {
		if r.index[n] == nil {
			r.index[n] = make(map[Key]bool)
		}
		r.index[n][k] = true
	}
}

// marks returns the keys fx marks, in queue order: the touched groups
// keyed on an endpoint, the other touched groups, then on a global
// effect the untouched ones, each tier in Key order.
func (r *refHub) marks(fx dynamic.BatchEffect) []Key {
	touched := make(map[Key]bool)
	for _, nodes := range [][]graph.NodeID{fx.Endpoints, fx.StaleLandmarks, fx.Refreshed} {
		for _, n := range nodes {
			for k := range r.index[n] {
				touched[k] = true
			}
		}
	}
	var tiers [3][]Key
	for k := range r.deps {
		switch {
		case !touched[k]:
			if fx.Global {
				tiers[2] = append(tiers[2], k)
			}
		case slices.Contains(fx.Endpoints, k.User):
			tiers[0] = append(tiers[0], k)
		default:
			tiers[1] = append(tiers[1], k)
		}
	}
	var out []Key
	for _, tier := range tiers {
		slices.SortFunc(tier, compareKeys)
		out = append(out, tier...)
	}
	return out
}

// TestMarkingMatchesInvertedIndex drives a hub and the reference model
// through the same seeded sequence of registrations, unsubscriptions,
// local and global batch effects, with dependency sets that move between
// steps (and reach the hub unsorted, with duplicates), at 64 and 1024
// groups. After each step the hub must have re-scored exactly the groups
// the model marks, in the model's order, and each re-score must have
// taken up the group's current dependency set.
func TestMarkingMatchesInvertedIndex(t *testing.T) {
	for _, size := range []int{64, 1024} {
		t.Run(strconv.Itoa(size), func(t *testing.T) {
			const universe = 4000
			rng := rand.New(rand.NewSource(int64(size)))
			var mu sync.Mutex
			var order []Key
			nbr := make(map[graph.NodeID][]graph.NodeID)
			// neighborhood draws a fresh dependency set for user u.
			neighborhood := func(u graph.NodeID) []graph.NodeID {
				nodes := []graph.NodeID{u}
				for range rng.Intn(120) {
					nodes = append(nodes, graph.NodeID(rng.Intn(universe)))
				}
				return nodes
			}
			h := New(Config{
				MaxSubscriptions: 2 * size,
				Compute: func(_ context.Context, k Key) (Result, error) {
					mu.Lock()
					order = append(order, k)
					mu.Unlock()
					return Result{Scored: scored(1, 2)}, nil
				},
				Neighborhood: func(k Key) []graph.NodeID {
					mu.Lock()
					defer mu.Unlock()
					nodes := slices.Clone(nbr[k.User])
					rng := rand.New(rand.NewSource(int64(len(order))))
					rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
					return append(nodes, nodes[:len(nodes)/4]...)
				},
			})
			t.Cleanup(h.Close)
			ref := &refHub{index: make(map[graph.NodeID]map[Key]bool), deps: make(map[Key][]graph.NodeID), members: make(map[Key]int)}
			subs := make(map[string]Key)
			var ids []string
			users := make([]graph.NodeID, size)
			for i := range users {
				users[i] = graph.NodeID(rng.Intn(universe))
				mu.Lock()
				nbr[users[i]] = neighborhood(users[i])
				mu.Unlock()
			}
			key := func() Key {
				return Key{User: users[rng.Intn(size)], Topic: topics.ID(rng.Intn(2)), N: 5 + 5*rng.Intn(2), Method: "landmark"}
			}
			// step runs op, waits for the hub to drain, and checks it
			// re-scored want; every re-scored group then holds its
			// user's current set.
			step := func(what string, want []Key, op func()) {
				t.Helper()
				mu.Lock()
				order = order[:0]
				mu.Unlock()
				op()
				flush(t, h)
				mu.Lock()
				got := slices.Clone(order)
				mu.Unlock()
				if !slices.Equal(got, want) {
					t.Fatalf("%s: hub re-scored %d groups %v,\nmodel marks %d %v", what, len(got), got, len(want), want)
				}
				for _, k := range want {
					if ref.members[k] > 0 {
						ref.setDeps(k, slices.Clone(nbr[k.User]))
					}
				}
			}
			register := func(k Key) {
				id, err := h.Register(k)
				if err != nil {
					t.Fatal(err)
				}
				subs[id] = k
				ids = append(ids, id)
				if ref.members[k]++; ref.members[k] == 1 {
					ref.setDeps(k, slices.Clone(nbr[k.User]))
				}
			}
			for len(ref.deps) < size {
				register(key())
			}
			flush(t, h)
			for i := range 300 {
				// Move some dependency sets: the hub sees the change only
				// when it next re-scores the group.
				mu.Lock()
				for range rng.Intn(size/8 + 1) {
					u := users[rng.Intn(size)]
					nbr[u] = neighborhood(u)
				}
				mu.Unlock()
				switch op := rng.Intn(10); {
				case op < 2:
					k := key()
					step("register", []Key{k}, func() { register(k) })
				case op < 4 && len(ids) > 0:
					j := rng.Intn(len(ids))
					id := ids[j]
					ids = slices.Delete(ids, j, j+1)
					if err := h.Unsubscribe(id); err != nil {
						t.Fatal(err)
					}
					k := subs[id]
					delete(subs, id)
					if ref.members[k]--; ref.members[k] == 0 {
						delete(ref.members, k)
						ref.setDeps(k, nil)
					}
				default:
					fx := dynamic.BatchEffect{Epoch: uint64(i + 1), Global: op == 9}
					for range rng.Intn(24) {
						u := graph.NodeID(rng.Intn(universe))
						if rng.Intn(3) == 0 {
							u = users[rng.Intn(size)]
						}
						fx.Endpoints = append(fx.Endpoints, u)
					}
					for range rng.Intn(4) {
						fx.StaleLandmarks = append(fx.StaleLandmarks, graph.NodeID(rng.Intn(universe)))
					}
					for range rng.Intn(2) {
						fx.Refreshed = append(fx.Refreshed, graph.NodeID(rng.Intn(universe)))
					}
					step("batch "+strconv.Itoa(i), ref.marks(fx), func() { h.OnBatch(fx) })
				}
				if st := h.Stats(); st.Groups != len(ref.deps) || st.Active != len(subs) {
					t.Fatalf("step %d: hub holds %d groups, %d subscriptions; model %d, %d", i, st.Groups, st.Active, len(ref.deps), len(subs))
				}
			}
		})
	}
}
