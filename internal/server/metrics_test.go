package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
)

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// exposition renders reg as /v1/metrics serves it and returns each
// series' value text by series name (labels included).
func exposition(t *testing.T, reg *metrics.Registry) map[string]string {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(b.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			out[name] = v
		}
	}
	return out
}

// TestMetricsEndpointCoverage drives the serving stack once through every
// instrumented path and then requires /metrics to expose the full series
// set of the acceptance criteria: request latency histograms, cache
// hit/miss counters, dynamic-manager gauges and landmark preprocessing
// timings.
func TestMetricsEndpointCoverage(t *testing.T) {
	srv, _ := testServer(t)
	url := srv.URL + "/v1/recommend?user=11&topic=technology&n=5&method=tr"
	getJSON(t, url, http.StatusOK, nil) // miss
	getJSON(t, url, http.StatusOK, nil) // hit
	postJSON(t, srv.URL+"/v1/update", client.UpdateRequest{Updates: []client.UpdateItem{
		{Src: 1, Dst: 2, Topics: []string{"technology"}},
	}}, http.StatusOK, nil)
	getJSON(t, url, http.StatusOK, nil) // miss: the batch invalidated the cache

	out := fetchMetrics(t, srv.URL)
	for _, want := range []string{
		// Request middleware.
		`http_requests_total{method="GET",route="/v1/recommend",code="200"}`,
		`http_requests_total{method="POST",route="/v1/update",code="200"}`,
		`http_request_seconds_bucket{route="/v1/recommend",le="+Inf"}`,
		// Cache.
		"cache_hits_total 1",
		"cache_misses_total 2",
		"cache_invalidations_total 1",
		"cache_entries",
		// Dynamic manager.
		"dynamic_batches_total 1",
		"dynamic_edges_added_total 1",
		"dynamic_stale_landmarks",
		"dynamic_landmarks 6",
		// Landmark preprocessing (initial run: 6 landmarks).
		"landmark_preprocess_seconds_count 6",
		"landmark_preprocessed_total 6",
		"landmark_preprocess_worker_utilization",
		// Updates.
		"updates_applied_total 1",
		// Per-query exploration series from the exact path.
		"core_explore_iterations_count",
		// Load management: registered (and zero) on an idle server.
		"coalesce_hits_total 0",
		"requests_shed_total 0",
		"requests_degraded_total 0",
		"admission_inflight 0",
		"admission_queue_depth 0",
		// Landmark maintenance.
		"dynamic_topic_refreshes_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestRequestDeadline serves exact-Tr queries under a deadline that has
// no chance of being met, with degradation disabled: the handler must
// answer 504 instead of pinning the goroutine, and count the timeout.
// (With degradation left at its default the same query would answer 200
// via the landmark fallback — load_test.go pins that behavior.)
func TestRequestDeadline(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	s := New(mgr, core.DefaultParams().Beta, WithMetrics(reg),
		WithRequestTimeout(time.Nanosecond), WithDegradeBudget(0))
	srv := newTestHTTP(t, s)

	var e errEnvelope
	getJSON(t, srv.URL+"/v1/recommend?user=11&topic=technology&method=tr", http.StatusGatewayTimeout, &e)
	if e.Error.Code != client.CodeDeadline {
		t.Errorf("error code = %q, want %q", e.Error.Code, client.CodeDeadline)
	}
	if !strings.Contains(e.Error.Message, "deadline") {
		t.Errorf("error message = %q, want a deadline message", e.Error.Message)
	}
	if got := reg.Counter("request_timeouts_total", "").Value(); got != 1 {
		t.Errorf("request_timeouts_total = %d, want 1", got)
	}
	// Cached and landmark paths are unaffected by the deadline.
	getJSON(t, srv.URL+"/v1/recommend?user=11&topic=technology&method=landmark", http.StatusOK, nil)
}

// TestRequestTimeoutDisabled checks that WithRequestTimeout(0) turns the
// deadline off entirely.
func TestRequestTimeoutDisabled(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	s := New(mgr, core.DefaultParams().Beta, WithMetrics(reg), WithRequestTimeout(0))
	srv := newTestHTTP(t, s)
	getJSON(t, srv.URL+"/v1/recommend?user=11&topic=technology&method=tr", http.StatusOK, nil)
}
