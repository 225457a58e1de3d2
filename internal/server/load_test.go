package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ranking"
)

// loadTestServer builds a server with direct access to the Server struct
// (for the computeHook seam) alongside its HTTP front.
func loadTestServer(t *testing.T, opts ...Option) (*Server, string, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	s := New(mgr, core.DefaultParams().Beta, append([]Option{WithMetrics(reg)}, opts...)...)
	srv := newTestHTTP(t, s)
	return s, srv.URL, reg
}

// waitFor polls cond until it holds or the test deadline budget expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitersFor counts followers blocked on the in-flight call for key at
// the current cache generation.
func waitersFor(s *Server, key cacheKey) int64 {
	fk := flightKey{cacheKey: key, gen: s.cache.generation()}
	s.flight.mu.Lock()
	call := s.flight.calls[fk]
	s.flight.mu.Unlock()
	if call == nil {
		return 0
	}
	return call.waiters.Load()
}

// TestCoalescingSingleExecution is the acceptance-criteria test: N
// concurrent identical queries must execute exactly one underlying
// computation. The computeHook leader blocks on a gate until every other
// client has verifiably joined its flight, so the assertion is
// deterministic rather than a timing bet.
func TestCoalescingSingleExecution(t *testing.T) {
	s, base, reg := loadTestServer(t)
	var execs atomic.Int64
	gate := make(chan struct{})
	s.computeHook = func(ctx context.Context, key cacheKey) ([]ranking.Scored, error) {
		execs.Add(1)
		<-gate
		return []ranking.Scored{{Node: 42, Score: 1}}, nil
	}

	tech, ok := s.vocab.Lookup("technology")
	if !ok {
		t.Fatal("no technology topic")
	}
	key := cacheKey{user: 11, topic: tech, n: 5, method: "landmark"}

	const clients = 8
	var wg sync.WaitGroup
	responses := make([]client.RecommendResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			getJSON(t, base+"/v1/recommend?user=11&topic=technology&n=5&method=landmark",
				http.StatusOK, &responses[i])
		}(i)
	}
	waitFor(t, "leader to start computing", func() bool { return execs.Load() == 1 })
	waitFor(t, "followers to join the flight", func() bool {
		return waitersFor(s, key) == clients-1
	})
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("%d clients ran %d computations, want exactly 1", clients, got)
	}
	var misses, coalesced int
	for i, resp := range responses {
		switch resp.Cache {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("client %d: cache source %q", i, resp.Cache)
		}
		if len(resp.Results) != 1 || resp.Results[0].User != 42 {
			t.Errorf("client %d: results = %+v, want the hook's single result", i, resp.Results)
		}
	}
	if misses != 1 || coalesced != clients-1 {
		t.Errorf("sources: %d misses, %d coalesced; want 1 and %d", misses, coalesced, clients-1)
	}
	if got := reg.Counter("coalesce_hits_total", "").Value(); got != clients-1 {
		t.Errorf("coalesce_hits_total = %d, want %d", got, clients-1)
	}
	// The leader populated the cache: the same query now answers from it.
	var again client.RecommendResponse
	getJSON(t, base+"/v1/recommend?user=11&topic=technology&n=5&method=landmark",
		http.StatusOK, &again)
	if again.Cache != "hit" {
		t.Errorf("post-flight query cache source = %q, want hit", again.Cache)
	}
}

// TestSheddingWhenSaturated fills a one-slot, zero-queue admission pool
// and requires the next distinct query to be shed with 429 + Retry-After
// and the overloaded error code, without ever reaching the engine.
func TestSheddingWhenSaturated(t *testing.T) {
	s, base, reg := loadTestServer(t,
		WithAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 0}))
	var execs atomic.Int64
	gate := make(chan struct{})
	s.computeHook = func(ctx context.Context, key cacheKey) ([]ranking.Scored, error) {
		execs.Add(1)
		<-gate
		return []ranking.Scored{{Node: 1, Score: 1}}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getJSON(t, base+"/v1/recommend?user=11&topic=technology&n=5", http.StatusOK, nil)
	}()
	waitFor(t, "first query to occupy the pool", func() bool { return execs.Load() == 1 })

	// A different query cannot coalesce and finds pool and queue full.
	resp, err := http.Get(base + "/v1/recommend?user=12&topic=technology&n=5")
	if err != nil {
		t.Fatal(err)
	}
	var e errEnvelope
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e.Error.Code != client.CodeOverloaded {
		t.Errorf("error code = %q, want %q", e.Error.Code, client.CodeOverloaded)
	}
	if got := reg.Counter("requests_shed_total", "").Value(); got != 1 {
		t.Errorf("requests_shed_total = %d, want 1", got)
	}

	close(gate)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Errorf("shed query still reached the engine: %d executions", got)
	}
	// With the pool free again the shed query now succeeds.
	getJSON(t, base+"/v1/recommend?user=12&topic=technology&n=5", http.StatusOK, nil)
}

// TestDegradedFallback gives exact-Tr queries a deadline far below the
// degrade budget: they must answer 200 from the landmark approximation,
// marked degraded, and populate the shared landmark cache entry.
func TestDegradedFallback(t *testing.T) {
	_, base, reg := loadTestServer(t,
		WithRequestTimeout(5*time.Millisecond), WithDegradeBudget(10*time.Second))

	var resp client.RecommendResponse
	getJSON(t, base+"/v1/recommend?user=11&topic=technology&n=5&method=tr", http.StatusOK, &resp)
	if !resp.Degraded {
		t.Fatal("exact query under an impossible deadline was not degraded")
	}
	if resp.Method != "tr" {
		t.Errorf("degraded response echoes method %q, want tr", resp.Method)
	}
	if len(resp.Results) == 0 {
		t.Error("degraded response carries no results")
	}
	if got := reg.Counter("requests_degraded_total", "").Value(); got != 1 {
		t.Errorf("requests_degraded_total = %d, want 1", got)
	}

	// The degraded result was computed and cached under the landmark key:
	// a plain landmark query for the same (user, topic, n) hits the cache.
	var lm client.RecommendResponse
	getJSON(t, base+"/v1/recommend?user=11&topic=technology&n=5&method=landmark", http.StatusOK, &lm)
	if lm.Cache != "hit" {
		t.Errorf("landmark query after degraded tr: cache source %q, want hit", lm.Cache)
	}
	if lm.Degraded {
		t.Error("plain landmark query marked degraded")
	}
	if len(lm.Results) != len(resp.Results) {
		t.Errorf("landmark and degraded results differ: %d vs %d", len(lm.Results), len(resp.Results))
	}
}

// decodeBody decodes a JSON response body and closes it.
func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
}
