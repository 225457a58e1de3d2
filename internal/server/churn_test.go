package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// deltaReader tails one subscription's SSE stream and replays every delta
// against its own reconstruction of the top-k, counting sequence gaps and
// deltas that do not lead from the reconstruction to the pushed snapshot.
type deltaReader struct {
	sub *client.Subscription

	mu         sync.Mutex
	seq        uint64
	top        []uint32
	deltas     int
	gaps       int
	mismatches int
}

func (r *deltaReader) run(stream *client.EventStream) {
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			return // EOF after unsubscribe or server close
		}
		r.mu.Lock()
		if r.seq != 0 && ev.Seq != r.seq+1 {
			r.gaps++
		}
		r.seq = ev.Seq
		next := entryIDs(ev.Top)
		if !ev.Reset {
			r.deltas++
			have := make(map[uint32]bool, len(r.top))
			for _, id := range r.top {
				have[id] = true
			}
			ok := true
			for _, id := range ev.Added {
				ok = ok && !have[id]
				have[id] = true
			}
			for _, id := range ev.Removed {
				ok = ok && have[id]
				delete(have, id)
			}
			ok = ok && len(have) == len(next)
			for _, id := range next {
				ok = ok && have[id]
			}
			if !ok {
				r.mismatches++
			}
		}
		r.top = next
		r.mu.Unlock()
	}
}

// TestSubscribeZeroLostDeltasUnderChurn runs the push tier on a real
// listener with the ingest pipeline on: persistent SSE readers, one
// goroutine cycling subscribe → poll → unsubscribe, and concurrent
// POST /v1/update batches moving the readers' neighborhoods. Once the
// hub has quiesced, no reader saw a sequence gap or an inconsistent
// delta, no consumer was dropped as slow, and every reader's
// reconstructed top-k equals a fresh GET /v1/recommend.
func TestSubscribeZeroLostDeltasUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent push load")
	}
	const (
		readers   = 4
		senders   = 2
		batches   = 150 // per sender
		batchSize = 8
		topK      = 10
	)
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg)
	pipe := ingest.New(mgr, ingest.Config{QueueCap: 256, MaxBatch: 64, Metrics: reg})
	t.Cleanup(func() { pipe.Close() }) //nolint:errcheck
	s := New(mgr, core.DefaultParams().Beta, WithMetrics(reg), WithIngest(pipe))
	c := client.New(newTestHTTP(t, s).URL, nil)
	ctx := context.Background()
	g := ds.Graph

	// Distinct users: the first readers keys are tailed, the rest churn.
	qs, err := workload.Generate(g, workload.Config{Queries: 64, TopN: topK, MinOutDegree: 3, TopicBias: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]bool{}
	var keys []client.RecommendRequest
	for _, q := range qs {
		if !seen[q.User] {
			seen[q.User] = true
			keys = append(keys, client.RecommendRequest{
				User: int(q.User), Topic: g.Vocabulary().Name(q.Topic), N: topK, Method: "landmark",
			})
		}
	}
	if len(keys) < readers+4 {
		t.Fatalf("only %d distinct subscriber keys", len(keys))
	}

	tails := make([]*deltaReader, readers)
	var readWG sync.WaitGroup
	for i, key := range keys[:readers] {
		sub, err := c.Subscribe(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := c.Events(ctx, sub.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		tails[i] = &deltaReader{sub: sub}
		readWG.Add(1)
		go func(r *deltaReader) {
			defer readWG.Done()
			r.run(stream)
		}(tails[i])
	}

	stop := make(chan struct{})
	var churned atomic.Int64
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		churnKeys := keys[readers:]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := c.Subscribe(ctx, churnKeys[i%len(churnKeys)])
			if err != nil {
				continue
			}
			c.PollEvents(ctx, sub.ID, 0, "1ms") //nolint:errcheck // churn traffic
			if c.Unsubscribe(ctx, sub.ID) == nil {
				churned.Add(1)
			}
		}
	}()

	// Each sender flips its own non-edges out of the tailed users, so
	// every batch lands in a subscribed neighborhood and its adds and
	// removes reach the queue in order.
	var sendWG sync.WaitGroup
	sendErr := make(chan error, senders)
	for w := 0; w < senders; w++ {
		var pairs [][2]int
		for k := 0; len(pairs) < 2*batchSize; k++ {
			src := keys[k%readers].User
			dst := (src*131 + 17 + 97*k + 7*w) % g.NumNodes()
			if src != dst && !g.HasEdge(graph.NodeID(src), graph.NodeID(dst)) {
				pairs = append(pairs, [2]int{src, dst})
			}
		}
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			for b := 0; b < batches; b++ {
				items := make([]client.UpdateItem, batchSize)
				for j := range items {
					p := pairs[(b*batchSize+j)%len(pairs)]
					remove := (b*batchSize+j)/len(pairs)%2 == 1
					items[j] = client.UpdateItem{Src: uint32(p[0]), Dst: uint32(p[1]), Remove: remove}
					if !remove {
						items[j].Topics = []string{keys[0].Topic}
					}
				}
				for {
					_, err := c.Update(ctx, items)
					var api *client.APIError
					if errors.As(err, &api) && api.Status == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						sendErr <- err
						return
					}
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	sendWG.Wait()
	close(stop)
	churnWG.Wait()
	close(sendErr)
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}

	// Quiesce: every accepted update applied, every re-score pushed, and
	// every reader caught up with its subscription's newest event.
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	flushHub(t, s)
	for _, r := range tails {
		evs, _, err := s.hub.EventsSince(r.sub.ID, 0, true)
		if err != nil || len(evs) == 0 {
			t.Fatalf("subscription %s: events %v, %v", r.sub.ID, evs, err)
		}
		latest := evs[len(evs)-1].Seq
		waitFor(t, "reader "+r.sub.ID+" to catch up", func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.seq >= latest
		})
	}

	if n := churned.Load(); n == 0 {
		t.Error("churner completed no subscribe/poll/unsubscribe cycle")
	}
	if d := exposition(t, reg)["subscribe_dropped_slow_consumers_total"]; d != "0" {
		t.Errorf("%s consumers dropped as slow", d)
	}
	deltas := 0
	for _, r := range tails {
		r.mu.Lock()
		gaps, mismatches, top := r.gaps, r.mismatches, r.top
		deltas += r.deltas
		r.mu.Unlock()
		if gaps != 0 || mismatches != 0 {
			t.Errorf("subscription %s: %d sequence gaps, %d inconsistent deltas", r.sub.ID, gaps, mismatches)
		}
		fresh, err := c.Recommend(ctx, client.RecommendRequest{
			User: r.sub.User, Topic: r.sub.Topic, N: r.sub.N, Method: r.sub.Method,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := resultIDs(fresh.Results); !sameIDs(top, want) {
			t.Errorf("subscription %s: pushed top-k %v != fresh GET %v", r.sub.ID, top, want)
		}
	}
	if deltas == 0 {
		t.Error("no delta reached any reader: the updates never moved a top-k")
	}

	for _, r := range tails {
		if err := c.Unsubscribe(ctx, r.sub.ID); err != nil {
			t.Fatal(err)
		}
	}
	readWG.Wait()
}
