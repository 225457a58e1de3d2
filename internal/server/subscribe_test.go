package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// flushHub drains the standing-query worker to quiescence.
func flushHub(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.hub.Flush(ctx); err != nil {
		t.Fatalf("hub flush: %v", err)
	}
}

// resultIDs projects a recommendation list to its ranked user ids.
func resultIDs(results []client.Recommendation) []uint32 {
	out := make([]uint32, len(results))
	for i, r := range results {
		out[i] = r.User
	}
	return out
}

func entryIDs(top []client.Entry) []uint32 {
	out := make([]uint32, len(top))
	for i, e := range top {
		out[i] = e.User
	}
	return out
}

func sameIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSubscribeLifecycle(t *testing.T) {
	s, base, _ := loadTestServer(t)
	c := client.New(base, nil)
	ctx := context.Background()

	sub, err := c.Subscribe(ctx, client.RecommendRequest{User: 11, Topic: "technology", N: 5, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.User != 11 || sub.Topic != "technology" || sub.N != 5 || sub.Method != "landmark" {
		t.Fatalf("subscription = %+v", sub)
	}
	flushHub(t, s)

	// The initial push is a Reset snapshot identical to a fresh GET.
	events, err := c.PollEvents(ctx, sub.ID, 0, "2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Reset {
		t.Fatalf("initial events = %+v, want one Reset", events)
	}
	rec, err := c.Recommend(ctx, client.RecommendRequest{User: 11, Topic: "technology", N: 5, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(entryIDs(events[0].Top), resultIDs(rec.Results)) {
		t.Errorf("reset snapshot %v != fresh GET %v", entryIDs(events[0].Top), resultIDs(rec.Results))
	}

	// An empty poll window answers an empty batch, not an error.
	events, err = c.PollEvents(ctx, sub.ID, events[0].Seq, "30ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("idle poll returned %+v", events)
	}

	if err := c.Unsubscribe(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := c.PollEvents(ctx, sub.ID, 0, "10ms"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != client.CodeNotFound {
		t.Errorf("events after unsubscribe: %v, want 404 %s", err, client.CodeNotFound)
	}
	if err := c.Unsubscribe(ctx, sub.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("double unsubscribe: %v, want 404", err)
	}

	// The offline baselines are not served, so they cannot subscribe.
	for _, m := range []string{"katz", "twitterrank"} {
		_, err := c.Subscribe(ctx, client.RecommendRequest{User: 11, Topic: "technology", Method: m})
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != client.CodeUnknownMethod {
			t.Errorf("subscribe method=%s: %v, want 400 %s", m, err, client.CodeUnknownMethod)
		}
	}
	// Validation runs the shared path.
	if _, err := c.Subscribe(ctx, client.RecommendRequest{User: -1, Topic: "technology"}); !errors.As(err, &apiErr) || apiErr.Code != client.CodeBadRequest {
		t.Errorf("subscribe bad user: %v", err)
	}
	if _, err := c.Subscribe(ctx, client.RecommendRequest{User: 1, Topic: "nope"}); !errors.As(err, &apiErr) || apiErr.Code != client.CodeUnknownTopic {
		t.Errorf("subscribe bad topic: %v", err)
	}
}

// TestSubscribeDifferentialCorrectness is the acceptance criterion: for a
// recorded trace of update batches, the pushed delta sequence must
// reconstruct exactly the top-k a fresh GET /v1/recommend returns at each
// batch epoch — identical ids in identical order.
func TestSubscribeDifferentialCorrectness(t *testing.T) {
	s, base, _ := loadTestServer(t)
	c := client.New(base, nil)
	ctx := context.Background()
	const user, n = 11, 5
	req := client.RecommendRequest{User: user, Topic: "technology", N: n, Method: "landmark"}

	sub, err := c.Subscribe(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	flushHub(t, s)
	events, err := c.PollEvents(ctx, sub.ID, 0, "2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Reset {
		t.Fatalf("initial events = %+v", events)
	}
	reconstructed := entryIDs(events[0].Top)
	lastSeq := events[0].Seq

	// The trace: adds and removes around the subscribed user (so marks
	// land), plus one 9-item batch elsewhere in the graph, whose effect
	// reaches the subscription only through the landmarks it stales or a
	// topic maximum it moves.
	g := s.mgr.Graph()
	var free []uint32
	for dst := uint32(400); dst < 600 && len(free) < 6; dst++ {
		if dst != user && !g.HasEdge(graph.NodeID(user), graph.NodeID(dst)) {
			free = append(free, dst)
		}
	}
	if len(free) < 6 {
		t.Fatal("dataset left no free edge slots for the trace")
	}
	var elsewhere []client.UpdateItem
	for i := 0; i < 9; i++ {
		elsewhere = append(elsewhere, client.UpdateItem{Src: uint32(300 + i), Dst: uint32(320 + i), Topics: []string{"technology"}})
	}
	trace := [][]client.UpdateItem{
		{{Src: user, Dst: free[0], Topics: []string{"technology"}}},
		{{Src: user, Dst: free[1], Topics: []string{"technology"}}, {Src: user, Dst: free[2], Topics: []string{"technology"}}},
		{{Src: user, Dst: free[0], Remove: true}},
		{{Src: free[3], Dst: user, Topics: []string{"technology"}}},
		elsewhere,
		{{Src: user, Dst: free[4], Topics: []string{"technology"}}, {Src: user, Dst: free[1], Remove: true}},
	}

	for epoch, batch := range trace {
		if _, err := c.Update(ctx, batch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		flushHub(t, s)
		events, err := c.PollEvents(ctx, sub.ID, lastSeq, "30ms")
		if err != nil {
			t.Fatalf("epoch %d: poll: %v", epoch, err)
		}
		for _, ev := range events {
			if ev.Seq != lastSeq+1 {
				t.Fatalf("epoch %d: seq %d after %d, want contiguous", epoch, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if ev.Reset {
				reconstructed = entryIDs(ev.Top)
				continue
			}
			// Replay the delta against the reconstruction: membership must
			// evolve by exactly Added/Removed, then adopt the pushed order.
			have := make(map[uint32]bool, len(reconstructed))
			for _, id := range reconstructed {
				have[id] = true
			}
			for _, id := range ev.Added {
				if have[id] {
					t.Errorf("epoch %d: delta adds %d already present", epoch, id)
				}
				have[id] = true
			}
			for _, id := range ev.Removed {
				if !have[id] {
					t.Errorf("epoch %d: delta removes %d not present", epoch, id)
				}
				delete(have, id)
			}
			next := entryIDs(ev.Top)
			if len(next) != len(have) {
				t.Errorf("epoch %d: delta reconstructs %d members, snapshot has %d", epoch, len(have), len(next))
			}
			for _, id := range next {
				if !have[id] {
					t.Errorf("epoch %d: snapshot member %d not derivable from deltas", epoch, id)
				}
			}
			reconstructed = next
		}
		rec, err := c.Recommend(ctx, req)
		if err != nil {
			t.Fatalf("epoch %d: recommend: %v", epoch, err)
		}
		if fresh := resultIDs(rec.Results); !sameIDs(reconstructed, fresh) {
			t.Errorf("epoch %d: reconstructed top-k %v != fresh GET %v", epoch, reconstructed, fresh)
		}
	}
}

// twoComponentServer builds a server over a graph with two disconnected
// components (A: 0..9, B: 10..19, landmarks 3 and 13) so "batch touching
// no subscribed neighborhood" is a structural fact, not a sampling
// accident.
func twoComponentServer(t *testing.T) (*Server, string) {
	t.Helper()
	vocab := topics.MustVocabulary([]string{"technology"})
	tech := vocab.MustLookup("technology")
	label := topics.NewSet(tech)
	b := graph.NewBuilder(vocab, 20)
	for u := graph.NodeID(0); u < 20; u++ {
		b.SetNodeTopics(u, label)
	}
	addComponent := func(base graph.NodeID) {
		edges := [][2]graph.NodeID{
			{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}, {3, 5}, {5, 6}, {1, 3}, {2, 5},
		}
		for _, e := range edges {
			b.AddEdge(base+e[0], base+e[1], label)
		}
	}
	addComponent(0)
	addComponent(10)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	mgr, err := dynamic.NewManager(g, []graph.NodeID{3, 13}, dynamic.Config{
		Params: core.DefaultParams(), Sim: topics.FlatTaxonomy(vocab).SimMatrix(),
		StoreTopN: 20, QueryDepth: 2, Strategy: dynamic.Lazy, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mgr, core.DefaultParams().Beta, WithMetrics(reg))
	srv := newTestHTTP(t, s)
	return s, srv.URL
}

// TestSubscribeEfficiencyGate is the other acceptance criterion, made
// deterministic by graph structure: a batch entirely inside the other
// component triggers zero re-scores (and zero marks), a batch touching
// the subscribed neighborhood exactly one.
func TestSubscribeEfficiencyGate(t *testing.T) {
	s, base := twoComponentServer(t)
	c := client.New(base, nil)
	ctx := context.Background()

	sub, err := c.Subscribe(ctx, client.RecommendRequest{User: 0, Topic: "technology", N: 5, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	flushHub(t, s)
	st0 := s.hub.Stats()

	// Batches confined to component B: the affected-subscription index
	// must not mark, the worker must not run.
	for i, e := range [][2]uint32{{15, 18}, {16, 19}, {17, 10}, {18, 12}} {
		if _, err := c.Update(ctx, []client.UpdateItem{
			{Src: e[0], Dst: e[1], Topics: []string{"technology"}},
		}); err != nil {
			t.Fatalf("B-side update %d: %v", i, err)
		}
	}
	flushHub(t, s)
	st1 := s.hub.Stats()
	if st1.Rescores != st0.Rescores {
		t.Errorf("disconnected batches re-scored: %d -> %d", st0.Rescores, st1.Rescores)
	}
	if st1.RescoreMarks != st0.RescoreMarks {
		t.Errorf("disconnected batches marked: %d -> %d", st0.RescoreMarks, st1.RescoreMarks)
	}

	// One batch touching the subscribed neighborhood: exactly one
	// re-score (the efficiency bound: executions <= affected groups).
	if _, err := c.Update(ctx, []client.UpdateItem{
		{Src: 0, Dst: 7, Topics: []string{"technology"}},
	}); err != nil {
		t.Fatal(err)
	}
	flushHub(t, s)
	st2 := s.hub.Stats()
	if got := st2.Rescores - st1.Rescores; got != 1 {
		t.Errorf("touching batch ran %d re-scores, want 1", got)
	}

	// The push still reconciles with a fresh GET after the B-side noise.
	events, err := c.PollEvents(ctx, sub.ID, 0, "2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events after touching batch")
	}
	last := events[len(events)-1]
	rec, err := c.Recommend(ctx, client.RecommendRequest{User: 0, Topic: "technology", N: 5, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(entryIDs(last.Top), resultIDs(rec.Results)) {
		t.Errorf("pushed top %v != fresh GET %v", entryIDs(last.Top), resultIDs(rec.Results))
	}
}

// TestSubscribeSharedKeySingleRescore: S subscribers of one standing
// query cost one coalesced re-score per batch, end to end over HTTP.
func TestSubscribeSharedKeySingleRescore(t *testing.T) {
	s, base, reg := loadTestServer(t)
	c := client.New(base, nil)
	ctx := context.Background()
	req := client.RecommendRequest{User: 11, Topic: "technology", N: 5, Method: "landmark"}
	var ids []string
	for i := 0; i < 4; i++ {
		sub, err := c.Subscribe(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	flushHub(t, s)
	before := s.hub.Stats()
	if before.Groups != 1 || before.Active != 4 {
		t.Fatalf("stats = %+v, want 4 subs in 1 group", before)
	}
	if _, err := c.Update(ctx, []client.UpdateItem{{Src: 11, Dst: 590, Topics: []string{"technology"}}}); err != nil {
		t.Fatal(err)
	}
	flushHub(t, s)
	after := s.hub.Stats()
	if got := after.Rescores - before.Rescores; got != 1 {
		t.Errorf("4 subscribers cost %d re-scores for one batch, want 1", got)
	}
	if got := exposition(t, reg)["subscribe_rescores_total"]; got != fmt.Sprint(after.Rescores) {
		t.Errorf("subscribe_rescores_total = %s, stats say %d", got, after.Rescores)
	}
	for _, id := range ids {
		if err := c.Unsubscribe(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubscribeSSE drives the push path through the typed client's SSE
// stream: Reset frame at connect, a delta frame after an update moves the
// top-k (the computeHook controls both rankings deterministically), and a
// clean stream end on unsubscribe.
func TestSubscribeSSE(t *testing.T) {
	s, base, _ := loadTestServer(t)
	var mu sync.Mutex
	top := []ranking.Scored{{Node: 42, Score: 2}, {Node: 43, Score: 1}}
	s.computeHook = func(ctx context.Context, key cacheKey) ([]ranking.Scored, error) {
		mu.Lock()
		defer mu.Unlock()
		return append([]ranking.Scored(nil), top...), nil
	}
	c := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sub, err := c.Subscribe(ctx, client.RecommendRequest{User: 11, Topic: "technology", N: 2, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := c.Events(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	first, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Reset || !sameIDs(entryIDs(first.Top), []uint32{42, 43}) {
		t.Fatalf("first frame = %+v, want Reset [42 43]", first)
	}

	// Swap the ranking and land a batch on the subscribed neighborhood.
	mu.Lock()
	top = []ranking.Scored{{Node: 43, Score: 3}, {Node: 44, Score: 2}}
	mu.Unlock()
	if _, err := c.Update(ctx, []client.UpdateItem{{Src: 11, Dst: 591, Topics: []string{"technology"}}}); err != nil {
		t.Fatal(err)
	}
	delta, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if delta.Reset || delta.Seq != first.Seq+1 {
		t.Fatalf("delta frame = %+v, want non-reset seq %d", delta, first.Seq+1)
	}
	if !sameIDs(delta.Added, []uint32{44}) || !sameIDs(delta.Removed, []uint32{42}) {
		t.Errorf("delta = added %v removed %v, want added [44] removed [42]", delta.Added, delta.Removed)
	}
	if !sameIDs(entryIDs(delta.Top), []uint32{43, 44}) {
		t.Errorf("delta top = %v, want [43 44]", entryIDs(delta.Top))
	}

	// Tear down server-side: the stream must end, not hang.
	if err := c.Unsubscribe(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err == nil {
		t.Error("stream still delivering after unsubscribe")
	}

	// Reconnect resume: a fresh stream with Last-Event-ID replays nothing
	// old and resynchronizes from the current snapshot on a lapse-free
	// position without duplicating frames.
	stream2, err := c.Events(ctx, sub.ID, 0)
	var apiErr *client.APIError
	if err == nil {
		stream2.Close()
		t.Fatal("stream for a deleted subscription opened")
	}
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("deleted-subscription stream error = %v, want 404", err)
	}
}

// TestSubscribeDegradedRescore: under pressure (impossible deadline,
// generous degrade budget) an exact-Tr standing query is re-scored by the
// landmark engine and its pushed events say so.
func TestSubscribeDegradedRescore(t *testing.T) {
	s, base, _ := loadTestServer(t,
		WithRequestTimeout(5*time.Millisecond), WithDegradeBudget(10*time.Second))
	c := client.New(base, nil)
	ctx := context.Background()
	req := client.RecommendRequest{User: 11, Topic: "technology", N: 5, Method: "tr"}
	sub, err := c.Subscribe(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	flushHub(t, s)
	events, err := c.PollEvents(ctx, sub.ID, 0, "2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Degraded {
		t.Fatalf("events = %+v, want one degraded push", events)
	}
	// Differential correctness holds under degradation too: the degraded
	// GET answers from the same landmark computation.
	rec, err := c.Recommend(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded {
		t.Fatal("fresh GET not degraded under the same pressure")
	}
	if !sameIDs(entryIDs(events[0].Top), resultIDs(rec.Results)) {
		t.Errorf("degraded push %v != degraded GET %v", entryIDs(events[0].Top), resultIDs(rec.Results))
	}
}

// TestStatsSubscriptionsBlock: /v1/stats reports the hub block and stays
// consistent under concurrent subscribe/unsubscribe churn (the race
// regression for the stats snapshot).
func TestStatsSubscriptionsBlock(t *testing.T) {
	s, base, _ := loadTestServer(t)
	c := client.New(base, nil)
	ctx := context.Background()

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions == nil {
		t.Fatal("stats missing subscriptions block")
	}
	if st.Subscriptions.Active != 0 || st.Subscriptions.Max == 0 {
		t.Errorf("idle subscriptions block = %+v", st.Subscriptions)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				req := client.RecommendRequest{User: (w*37 + i) % 600, Topic: "technology", N: 3, Method: "landmark"}
				sub, err := c.Subscribe(ctx, req)
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				if _, err := c.Stats(ctx); err != nil {
					t.Errorf("stats: %v", err)
					return
				}
				if err := c.Unsubscribe(ctx, sub.ID); err != nil {
					t.Errorf("unsubscribe: %v", err)
					return
				}
			}
		}(w)
	}
	// A writer keeps batch effects flowing through the hub meanwhile.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := c.Update(ctx, []client.UpdateItem{
				{Src: uint32(i + 20), Dst: uint32(i + 70), Topics: []string{"technology"}},
			}); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	flushHub(t, s)

	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sb := st.Subscriptions
	if sb.Active != 0 || sb.Registered != 32 || sb.Unsubscribed != 32 {
		t.Errorf("post-churn subscriptions block = %+v, want 32 registered, 32 unsubscribed, 0 active", sb)
	}
}

// TestSubscribeLimit: the registration cap answers the uniform 429
// envelope.
func TestSubscribeLimit(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	s := New(mgr, core.DefaultParams().Beta, WithMetrics(reg),
		WithSubscriptions(SubscriptionConfig{MaxSubscriptions: 2}))
	srv := newTestHTTP(t, s)
	c := client.New(srv.URL, nil)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Subscribe(ctx, client.RecommendRequest{User: i, Topic: "technology", N: 3, Method: "landmark"}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Subscribe(ctx, client.RecommendRequest{User: 7, Topic: "technology", N: 3, Method: "landmark"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != client.CodeOverloaded {
		t.Fatalf("over-limit subscribe: %v, want 429 %s", err, client.CodeOverloaded)
	}
}

// TestPollEventsLongPollWakes: a poll parked on an idle subscription
// returns as soon as a delta lands, not after the full wait.
func TestPollEventsLongPollWakes(t *testing.T) {
	s, base, _ := loadTestServer(t)
	var mu sync.Mutex
	top := []ranking.Scored{{Node: 42, Score: 2}}
	s.computeHook = func(ctx context.Context, key cacheKey) ([]ranking.Scored, error) {
		mu.Lock()
		defer mu.Unlock()
		return append([]ranking.Scored(nil), top...), nil
	}
	c := client.New(base, nil)
	ctx := context.Background()
	sub, err := c.Subscribe(ctx, client.RecommendRequest{User: 11, Topic: "technology", N: 1, Method: "landmark"})
	if err != nil {
		t.Fatal(err)
	}
	flushHub(t, s)
	first, err := c.PollEvents(ctx, sub.ID, 0, "2s")
	if err != nil || len(first) != 1 {
		t.Fatalf("initial poll = %v, %v", first, err)
	}

	got := make(chan []client.Event, 1)
	go func() {
		events, perr := c.PollEvents(ctx, sub.ID, first[0].Seq, "30s")
		if perr != nil {
			t.Errorf("parked poll: %v", perr)
		}
		got <- events
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	mu.Lock()
	top = []ranking.Scored{{Node: 77, Score: 9}}
	mu.Unlock()
	if _, err := c.Update(ctx, []client.UpdateItem{{Src: 11, Dst: 592, Topics: []string{"technology"}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case events := <-got:
		if len(events) != 1 || !sameIDs(entryIDs(events[0].Top), []uint32{77}) {
			t.Errorf("woken poll = %+v, want the [77] delta", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke on the delta")
	}
	_ = fmt.Sprint() // keep fmt for future debug formatting
}
