package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/dynamic"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/store"
)

// countedStack is one server over a WAL-backed manager that compacts
// every second batch, fed through the ingestion pipeline, with a shard
// worker beside it; all of them count into one registry.
type countedStack struct {
	reg   *metrics.Registry
	mgr   *dynamic.Manager
	pipe  *ingest.Pipeline
	s     *Server
	url   string
	shard string // the worker's base URL
}

func newCountedStack(t *testing.T) *countedStack {
	t.Helper()
	dir := t.TempDir()
	wal, _, err := store.OpenWAL(filepath.Join(dir, "graph.wal"), store.SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() }) //nolint:errcheck
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg, func(cfg *dynamic.Config) {
		cfg.WAL = wal
		cfg.SnapshotPath = filepath.Join(dir, "graph.trg2")
		cfg.CompactDepth = 2
	})
	pipe := ingest.New(mgr, ingest.Config{QueueCap: 256, Metrics: reg})
	t.Cleanup(func() { pipe.Close() }) //nolint:errcheck
	s := New(mgr, core.DefaultParams().Beta, WithMetrics(reg), WithIngest(pipe))
	srv := newTestHTTP(t, s)
	// One slot and one queue place: a burst of partial requests sheds.
	shard := shardTier(t, ds, 1, distrib.ShardServerConfig{MaxInflight: 1, MaxQueue: 1, Metrics: reg})[0][0]
	return &countedStack{reg: reg, mgr: mgr, pipe: pipe, s: s, url: srv.URL, shard: shard}
}

// update posts one streaming batch: user 11 follows dst on technology,
// and unfollows it when remove is set.
func (st *countedStack) update(t *testing.T, dst uint32, remove bool) {
	t.Helper()
	items := []client.UpdateItem{{Src: 11, Dst: dst, Topics: []string{"technology"}, Remove: remove}}
	if _, err := client.New(st.url, nil).Update(context.Background(), items); err != nil {
		t.Fatalf("update 11->%d: %v", dst, err)
	}
}

// shardShed fires bursts of concurrent partial requests at the worker
// until it has shed at least one, and returns its "shed" stat.
func (st *countedStack) shardShed(t *testing.T) uint64 {
	t.Helper()
	body, _ := json.Marshal(distrib.PartialRequest{User: 11, Topic: 0})
	for burst := 0; burst < 50; burst++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(st.shard+"/shard/v1/partial", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}()
		}
		wg.Wait()
		if shed := st.shardStat(t); shed > 0 {
			return shed
		}
	}
	t.Fatal("50 bursts of 16 partial requests shed none")
	return 0
}

func (st *countedStack) shardStat(t *testing.T) uint64 {
	t.Helper()
	resp, err := http.Get(st.shard + "/shard/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Shed uint64 `json:"shed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Shed
}

// TestCountersMatchTheirSources: every counter /v1/metrics reads from a
// package's own count must equal that count — the manager's, the
// pipeline's and the hub's Stats and the shard worker's shed stat — and
// must still equal it after the manager is instrumented into the same
// registry a second time.
func TestCountersMatchTheirSources(t *testing.T) {
	st := newCountedStack(t)
	ctx := context.Background()
	c := client.New(st.url, nil)
	for _, n := range []int{3, 5} {
		if _, err := c.Subscribe(ctx, client.RecommendRequest{User: 11, Topic: "technology", N: n, Method: "landmark"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 6; i++ {
		st.update(t, 300+i, false)
	}
	st.update(t, 300, true)
	if err := st.pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	flushHub(t, st.s)
	getJSON(t, st.url+"/v1/recommend?user=11&topic=sports&n=5&method=landmark", http.StatusOK, nil)
	shed := st.shardShed(t)

	check := func(when string) {
		t.Helper()
		got := exposition(t, st.reg)
		m, p, h := st.mgr.Stats(), st.pipe.Stats(), st.s.hub.Stats()
		if m.Batches == 0 || m.Compactions == 0 || h.Rescores == 0 {
			t.Fatalf("the drive applied %d batches, compacted %d times and re-scored %d times; want each > 0",
				m.Batches, m.Compactions, h.Rescores)
		}
		for name, want := range map[string]uint64{
			"dynamic_batches_total":                    uint64(m.Batches),
			"dynamic_edges_added_total":                uint64(m.EdgesAdded),
			"dynamic_edges_removed_total":              uint64(m.EdgesRemoved),
			"dynamic_landmark_refreshes_total":         uint64(m.Refreshes),
			"dynamic_topic_refreshes_total":            uint64(m.TopicRefreshes),
			"dynamic_compactions_total":                uint64(m.Compactions),
			"dynamic_wal_appends_total":                uint64(m.WALAppends),
			"dynamic_wal_replayed_total":               uint64(m.WALReplayed),
			"dynamic_snapshot_writes_total":            uint64(m.SnapshotWrites),
			"dynamic_snapshot_failures_total":          uint64(m.SnapshotFailures),
			"dynamic_invalidation_visited_nodes_total": uint64(m.InvalidationVisited),
			"ingest_enqueued_total":                    p.Enqueued,
			"ingest_rejected_total":                    p.Rejected,
			"ingest_applied_total":                     p.Applied,
			"ingest_batches_total":                     p.Batches,
			"subscribe_rescore_marks_total":            h.RescoreMarks,
			"subscribe_rescores_coalesced_total":       h.RescoresCoalesced,
			"subscribe_rescores_total":                 h.Rescores,
			"subscribe_pushes_suppressed_total":        h.PushesSuppressed,
			"subscribe_rescore_failures_total":         h.RescoreFailures,
			"subscribe_events_pushed_total":            h.EventsPushed,
			"subscribe_dropped_slow_consumers_total":   h.DroppedSlowConsumers,
			"shard_worker_shed_total":                  shed,
		} {
			if got[name] != fmt.Sprint(want) {
				t.Errorf("%s: %s = %q, its source says %d", when, name, got[name], want)
			}
		}
	}
	check("after the drive")
	st.mgr.Instrument(st.reg) // what server.New does with a shared registry
	check("after a second Instrument")
}

// TestScrapeBesideApplyAndRescore scrapes /v1/metrics while the pipeline
// applies batches and the hub re-scores standing queries. Each scrape
// takes the manager's, the pipeline's and the hub's locks in its counter
// callbacks; under -race this shows the scrape neither races with those
// owners nor deadlocks against them.
func TestScrapeBesideApplyAndRescore(t *testing.T) {
	st := newCountedStack(t)
	ctx := context.Background()
	c := client.New(st.url, nil)
	for _, topic := range []string{"technology", "sports", "entertainment"} {
		if _, err := c.Subscribe(ctx, client.RecommendRequest{User: 11, Topic: topic, N: 5, Method: "landmark"}); err != nil {
			t.Fatal(err)
		}
	}

	stop, done := make(chan struct{}), make(chan struct{})
	scrapes := 0
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(st.url + "/v1/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			scrapes++
		}
	}()
	for i := uint32(0); i < 40; i++ {
		st.update(t, 300+i%10, i%3 == 2)
	}
	if err := st.pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	flushHub(t, st.s)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a scrape did not return within 30s of the last batch")
	}
	if scrapes == 0 {
		t.Error("no scrape completed")
	}
}
