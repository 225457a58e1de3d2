package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/graph"
)

// subscribePush: the streaming quickstart on the 2000-node graph with
// standing queries. 64 landmark top-10 subscriptions are registered; a
// few of them are tailed over SSE, one connection each. Every round posts
// one follow/unfollow flip per tailed user, screened beforehand so that
// it moves that user's top-10, plus two churn updates elsewhere. The
// un-tailed subscriptions make the re-score volume realistic: the hub
// works through all the groups a batch dirtied, in queue order.
//
//	one phase, open loop: one POST per second, `at` = due time
//
//	latency_p50_ms      push_p50_ms: event trigger time (= due time of the POST) to event decoded off the stream
//	throughput_ops_s    push_delivered_ev_s: events delivered per second of the phase; below the
//	                    two per second the flips call for when a flip moves nothing or a push is lost
//	within_limit_share  events delivered within 1 s of their trigger time, of those the flips call for
var subscribePush = workload{
	Name:    "subscribe-push",
	Why:     "standing queries over SSE: ingest, apply, effect inversion, dirty-queue wait, re-score, diff and flush; no polling reads",
	Stack:   g2k.streaming(),
	Limit:   pushLimit,
	traffic: subscribePushTraffic,
}

const (
	pushSubs   = 64
	pushTailed = 2
	pushChurn  = 2 // churn updates per POST beside the flips
	pushEvery  = time.Second
	pushLimit  = time.Second
)

// tail is one SSE consumer.
type tail struct {
	sub    *client.Subscription
	key    readKey
	stream *client.EventStream

	mu      sync.Mutex
	events  []tailEvent
	gaps    int
	lastSeq uint64
	last    client.Event
	arrived chan int64 // trigger time of each event that carried one
}

type tailEvent struct {
	trigger, recv int64 // Unix ns
}

func (tl *tail) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		ev, err := tl.stream.Next()
		if err != nil {
			return // the stream was closed at the end of the run
		}
		recv := time.Now().UnixNano()
		tl.mu.Lock()
		if tl.lastSeq != 0 && ev.Seq != tl.lastSeq+1 {
			tl.gaps++
		}
		tl.lastSeq, tl.last = ev.Seq, ev
		if ev.TriggerUnixNs > 0 {
			tl.events = append(tl.events, tailEvent{trigger: ev.TriggerUnixNs, recv: recv})
		}
		tl.mu.Unlock()
		tl.arrived <- ev.TriggerUnixNs
	}
}

// await blocks until an event triggered at or after stamp has arrived (0
// awaits the registration snapshot), or the timeout passes.
func (tl *tail) await(stamp int64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		select {
		case trig := <-tl.arrived:
			if trig >= stamp {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

func subscribePushTraffic(e runEnv, s *stack, r *runResult, t *tally) error {
	warm, durA := e.warmup(), e.dur(1)
	ctx := context.Background()
	vocab := s.g.Vocabulary()

	keys, err := distinctUsers(s.g, pushSubs, e.Seed)
	if err != nil {
		return err
	}
	// The tailed subscriptions are the first keys for which a flip exists.
	flips, err := screenFlips(s, keys, pushTailed, 10)
	if err != nil {
		return err
	}
	tailed := make(map[readKey]bool)
	avoid := make(map[graph.NodeID]bool)
	for _, f := range flips {
		tailed[f.Key] = true
		avoid[f.Key.User], avoid[f.Dst] = true, true
	}
	rounds := int((warm+durA)/pushEvery) + 2
	stream, err := churnStream(s.g, rounds*pushChurn, e.Seed, avoid)
	if err != nil {
		return err
	}

	// Register, tail, and wait for the registration snapshots.
	var tails []*tail
	var readers sync.WaitGroup
	defer func() {
		for _, tl := range tails {
			tl.stream.Close() //nolint:errcheck // unblocks the reader
		}
		readers.Wait()
	}()
	for _, k := range keys {
		sub, err := s.cli.Subscribe(ctx, client.RecommendRequest{
			User: int(k.User), Topic: vocab.Name(k.Topic), N: 10, Method: "landmark"})
		if err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		if !tailed[k] {
			continue
		}
		es, err := s.cli.Events(ctx, sub.ID, 0)
		if err != nil {
			return fmt.Errorf("tailing %s: %w", sub.ID, err)
		}
		// One round's worth of events can be in flight per stream.
		tl := &tail{sub: sub, key: k, stream: es, arrived: make(chan int64, 64)}
		tails = append(tails, tl)
		readers.Add(1)
		go tl.run(&readers)
	}
	for _, tl := range tails {
		if !tl.await(0, 10*time.Second) {
			return fmt.Errorf("subscription %s never delivered its registration snapshot", tl.sub.ID)
		}
	}
	if err := awaitQuietHub(s); err != nil {
		return err
	}

	// round builds POST i: the flips alternate follow and unfollow.
	round := func(i int, at int64) []client.UpdateItem {
		items := make([]client.UpdateItem, 0, len(flips)+pushChurn)
		for _, f := range flips {
			items = append(items, f.item(vocab, i%2 == 1))
		}
		items = append(items, stream.Items[i*pushChurn:(i+1)*pushChurn]...)
		return stamped(items, at)
	}
	p := poster{s: s, t: &tally{}} // warm-up posts are not counted
	nWarm := int(warm / pushEvery)
	openLoop{Name: "warm-up", Rate: 1 / pushEvery.Seconds(), Dur: time.Duration(nWarm) * pushEvery, Grace: pushEvery, Workers: 1}.run(
		func(_, i int, due time.Time) (bool, uint8) {
			ok, _ := p.post(round(i, due.UnixNano()))
			return ok, 0
		})
	// A warm-up flip still queued when phase A posts the opposite flip
	// would share its batch, where the removal wins and nothing moves.
	if err := awaitQuietHub(s); err != nil {
		return err
	}
	p.t = t
	startA := time.Now().UnixNano()

	// Phase A.
	_, phA := openLoop{Name: "A", Rate: 1 / pushEvery.Seconds(), Dur: durA, Grace: pushEvery, Workers: 1}.run(
		func(_, i int, due time.Time) (bool, uint8) {
			ok, _ := p.post(round(nWarm+i, due.UnixNano()))
			return ok, 0
		})
	if err := awaitQuietHub(s); err != nil {
		return err
	}
	endA := time.Now().UnixNano()
	r.Phases = append(r.Phases, phA)

	// Latency over the events the phase triggered.
	var lat []float64
	within, gaps := 0, 0
	lastRecv := startA
	for _, tl := range tails {
		tl.mu.Lock()
		for _, ev := range tl.events {
			if ev.trigger < startA || ev.trigger >= endA {
				continue
			}
			lastRecv = max(lastRecv, ev.recv)
			lat = append(lat, msOf(ev.recv-ev.trigger))
			if time.Duration(ev.recv-ev.trigger) <= pushLimit {
				within++
			}
		}
		gaps += tl.gaps
		tl.mu.Unlock()
	}
	expected := phA.Sent * len(tails)
	if len(lat)*5 < expected*4 {
		t.flaw("%d events received for %d flips posted", len(lat), expected)
	}
	p50 := reportPercentiles(r.Named, "push", lat)
	delivered := float64(len(lat)) / max(float64(lastRecv-startA)/1e9, 1) // to the last delivery
	r.Named.set("push_delivered_ev_s", delivered, "ev/s")
	r.EndToEnd.setN(mLatP50, p50, "ms", len(lat))
	r.EndToEnd.set(mThroughput, delivered, "1/s")
	r.EndToEnd.set(mWithinLimit, float64(within)/float64(max(expected, 1)), "ratio")
	r.Layers.set("subscribe.seq_gaps", float64(gaps), "count")

	// Every stream is gap-free, nobody was dropped, and the last pushed
	// top-k is what a fresh GET returns.
	if gaps != 0 {
		t.flaw("%d sequence gaps on the tailed streams", gaps)
	}
	stats, err := s.cli.Stats(ctx)
	if err != nil {
		return err
	}
	if d := stats.Subscriptions.DroppedSlowConsumers; d != 0 {
		t.flaw("%d slow consumers dropped", d)
	}
	rd := newReader(e, s, t)
	for _, tl := range tails {
		resp := rd.get(tl.key, "landmark", 0)
		if resp == nil {
			continue
		}
		tl.mu.Lock()
		top := tl.last.Top
		tl.mu.Unlock()
		if flaw := topFlaw(top, resp.Results); flaw != "" {
			t.flaw("%s: last pushed top-k differs from a fresh GET: %s", tl.sub.ID, flaw)
		}
	}
	return nil
}

// awaitQuietHub waits until the ingest queue has drained and the hub has
// re-scored every group it marked: each mark that was not absorbed by an
// already queued group ends in exactly one re-score, successful or failed
// (a failed one marks again).
func awaitQuietHub(s *stack) error {
	if err := s.pipe.Flush(); err != nil {
		return err
	}
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		stats, err := s.cli.Stats(context.Background())
		if err != nil {
			return err
		}
		hub := stats.Subscriptions
		if hub.DirtyQueue == 0 && hub.RescoreMarks-hub.RescoresCoalesced == hub.Rescores+hub.RescoreFailures {
			return nil
		}
	}
	return fmt.Errorf("subscription hub still busy after 20 s")
}

// topFlaw compares a pushed top-k with a served ranking by membership and
// order only: the hub does not push score-only drift, so the scores of
// the last event may be older than the graph.
func topFlaw(top []client.Entry, fresh []client.Recommendation) string {
	if len(top) != len(fresh) {
		return fmt.Sprintf("%d entries pushed, %d served", len(top), len(fresh))
	}
	for i := range top {
		if top[i].User != fresh[i].User {
			return fmt.Sprintf("rank %d: pushed %d, served %d", i+1, top[i].User, fresh[i].User)
		}
	}
	return ""
}
