package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/ingest"
	"repro/internal/metrics"
)

// blockingApplier gates applies so tests can hold the ingest queue full
// deterministically, then delegates to the real manager.
type blockingApplier struct {
	mgr   *dynamic.Manager
	gate  chan struct{}
	began chan struct{}
	once  sync.Once
}

func (b *blockingApplier) Apply(batch []dynamic.Update) error {
	b.once.Do(func() {
		close(b.began)
		<-b.gate
	})
	return b.mgr.Apply(batch)
}

// TestUpdateStreamingPath drives POST /v1/update through the ingestion
// pipeline: accepted batches answer 202 with queue stats, a full queue
// answers 429 with Retry-After, and after a flush the updates are
// visible in the manager and /v1/stats exposes the pipeline accounting.
func TestUpdateStreamingPath(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	gate := &blockingApplier{mgr: mgr, gate: make(chan struct{}), began: make(chan struct{})}
	pipe := ingest.New(gate, ingest.Config{QueueCap: 2, MaxBatch: 1, Metrics: reg})
	t.Cleanup(func() { pipe.Close() }) //nolint:errcheck
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta, WithMetrics(reg), WithIngest(pipe)))
	// A failure before the gate opens must not leave pipe.Close waiting
	// on the blocked consumer: this cleanup runs before the pipeline's.
	var release sync.Once
	open := func() { release.Do(func() { close(gate.gate) }) }
	t.Cleanup(open)

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/update", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() }) //nolint:errcheck
		return resp
	}
	one := `{"updates":[{"src":1,"dst":2,"topics":["technology"]}]}`

	// First update occupies the consumer (blocked on the gate)...
	if resp := post(one); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first update: status %d, want 202", resp.StatusCode)
	}
	<-gate.began
	// ...two more fill the bounded queue...
	for i := 0; i < 2; i++ {
		if resp := post(one); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill update %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	// ...and the next one is shed with backpressure.
	resp := post(one)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow update: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Admission and queue-full are the pipeline's counts: nothing has
	// applied yet, and a 429 is not a validation reject.
	m := exposition(t, reg)
	if m["updates_applied_total"] != "0" || m["updates_rejected_total"] != "0" ||
		m["ingest_enqueued_total"] != "3" || m["ingest_rejected_total"] != "1" {
		t.Fatalf("after three 202s and one 429: updates applied %s, rejected %s; ingest enqueued %s, rejected %s",
			m["updates_applied_total"], m["updates_rejected_total"], m["ingest_enqueued_total"], m["ingest_rejected_total"])
	}

	open()
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().EdgesAdded; got == 0 {
		t.Fatal("flushed updates did not reach the manager")
	}
	var st client.StatsResponse
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &st)
	if st.Ingest == nil {
		t.Fatal("/v1/stats omits ingest block under WithIngest")
	}
	if st.Ingest.Enqueued != 3 || st.Ingest.Rejected != 1 || st.Ingest.Applied != 3 {
		t.Fatalf("ingest stats: %+v", *st.Ingest)
	}
	if st.Ingest.QueueCap != 2 || st.Ingest.QueueDepth != 0 {
		t.Fatalf("queue stats: %+v", *st.Ingest)
	}
}

// TestUpdateStreamingValidationStaysSync: validation failures reject
// before admission — nothing enters the queue.
func TestUpdateStreamingValidationStaysSync(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	pipe := ingest.New(mgr, ingest.Config{QueueCap: 8})
	t.Cleanup(func() { pipe.Close() }) //nolint:errcheck
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta, WithMetrics(reg), WithIngest(pipe)))

	body, _ := json.Marshal(client.UpdateRequest{Updates: []client.UpdateItem{{Src: 1, Dst: 1, Topics: []string{"technology"}}}})
	resp, err := http.Post(srv.URL+"/v1/update", "application/json", bytes.NewBuffer(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-follow: status %d, want 400", resp.StatusCode)
	}
	if st := pipe.Stats(); st.Enqueued != 0 {
		t.Fatalf("invalid update entered the queue: %+v", st)
	}
	if got := exposition(t, reg)["updates_rejected_total"]; got != "1" {
		t.Fatalf("updates_rejected_total = %s after one invalid request, want 1", got)
	}
}
