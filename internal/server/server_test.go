package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
)

// testManager builds a small dataset and a manager instrumented into reg
// (the trserver wiring: one registry across manager and server, so the
// initial preprocessing run is visible at /metrics too); tune, if given,
// adjusts the manager's configuration first.
func testManager(t *testing.T, reg *metrics.Registry, tune ...func(*dynamic.Config)) (*dynamic.Manager, *gen.Dataset) {
	t.Helper()
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 600
	cfg.Seed = 5
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 6, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := dynamic.Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 100,
		QueryDepth: 2, Strategy: dynamic.Lazy, Metrics: reg,
	}
	for _, f := range tune {
		f(&mcfg)
	}
	mgr, err := dynamic.NewManager(ds.Graph, lms, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, ds
}

func testServer(t *testing.T) (*httptest.Server, *gen.Dataset) {
	t.Helper()
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg)
	return newTestHTTP(t, New(mgr, core.DefaultParams().Beta, WithMetrics(reg))), ds
}

// legacyServer is testServer with the sunset unversioned aliases
// re-enabled (trserver -enable-legacy-routes).
func legacyServer(t *testing.T) (*httptest.Server, *gen.Dataset) {
	t.Helper()
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg)
	return newTestHTTP(t, New(mgr, core.DefaultParams().Beta, WithMetrics(reg), WithLegacyRoutes(true))), ds
}

// newTestHTTP serves a Server over httptest with cleanup (the hub worker
// stops before the listener does).
func newTestHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(s.Close)
	return srv
}

// getJSON and postJSON are thin shims over the typed client's transport
// (client.Do): the tests speak to the server through the same encode/
// decode path real consumers use, with the raw status still assertable.
func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	doJSON(t, http.MethodGet, url, nil, wantCode, out)
}

func postJSON(t *testing.T, url string, body any, wantCode int, out any) {
	t.Helper()
	doJSON(t, http.MethodPost, url, body, wantCode, out)
}

func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var raw json.RawMessage
	status, err := client.New("", nil).Do(context.Background(), method, url, body, &raw)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if status != wantCode {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, status, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON: %v", method, url, err)
		}
	}
}

func TestHealthAndTopics(t *testing.T) {
	srv, ds := testServer(t)
	var health map[string]string
	getJSON(t, srv.URL+"/v1/health", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	var tp struct {
		Topics []string `json:"topics"`
	}
	getJSON(t, srv.URL+"/v1/topics", http.StatusOK, &tp)
	if len(tp.Topics) != ds.Vocabulary().Len() {
		t.Errorf("%d topics, want %d", len(tp.Topics), ds.Vocabulary().Len())
	}
}

func TestStats(t *testing.T) {
	srv, ds := testServer(t)
	var st client.StatsResponse
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &st)
	if st.Nodes != ds.Graph.NumNodes() || st.Edges != ds.Graph.NumEdges() {
		t.Errorf("stats = %+v", st)
	}
}

func TestRecommendMethods(t *testing.T) {
	srv, _ := testServer(t)
	for _, method := range []string{"landmark", "tr"} {
		var resp client.RecommendResponse
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=11&topic=technology&n=5&method=%s", srv.URL, method),
			http.StatusOK, &resp)
		if resp.Method != method {
			t.Errorf("method echoed as %q", resp.Method)
		}
		if len(resp.Results) > 5 {
			t.Errorf("%s returned %d results for n=5", method, len(resp.Results))
		}
		for _, rec := range resp.Results {
			if rec.User == 11 {
				t.Errorf("%s recommended the query user", method)
			}
		}
	}
	// Default method is landmark.
	var resp client.RecommendResponse
	getJSON(t, srv.URL+"/v1/recommend?user=11&topic=technology", http.StatusOK, &resp)
	if resp.Method != "landmark" {
		t.Errorf("default method = %q", resp.Method)
	}
}

// errEnvelope mirrors the uniform /v1 error shape for decoding.
type errEnvelope struct {
	Error client.ErrorBody `json:"error"`
}

func TestRecommendErrors(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		path string
		code string
	}{
		{"/v1/recommend?user=abc&topic=technology", client.CodeBadRequest},
		{"/v1/recommend?user=999999&topic=technology", client.CodeBadRequest},
		{"/v1/recommend?user=-1&topic=technology", client.CodeBadRequest},
		{"/v1/recommend?topic=technology", client.CodeBadRequest}, // user missing entirely
		{"/v1/recommend?user=1", client.CodeUnknownTopic},         // topic missing entirely
		{"/v1/recommend?user=1&topic=nope", client.CodeUnknownTopic},
		{"/v1/recommend?user=1&topic=technology&n=0", client.CodeBadRequest},
		{"/v1/recommend?user=1&topic=technology&n=-3", client.CodeBadRequest},
		{"/v1/recommend?user=1&topic=technology&n=99999", client.CodeBadRequest},
		{"/v1/recommend?user=1&topic=technology&n=five", client.CodeBadRequest},
		{"/v1/recommend?user=1&topic=technology&method=magic", client.CodeUnknownMethod},
	}
	for _, c := range cases {
		var e errEnvelope
		getJSON(t, srv.URL+c.path, http.StatusBadRequest, &e)
		if e.Error.Code != c.code {
			t.Errorf("%s: error code %q, want %q", c.path, e.Error.Code, c.code)
		}
		if e.Error.Message == "" {
			t.Errorf("%s: missing error message", c.path)
		}
	}
}

// TestBaselineMethodsNotServed pins the served method set: the paper's
// offline baselines answer 400 unknown_method on both the query and the
// subscription endpoint, and the message names the two served methods.
func TestBaselineMethodsNotServed(t *testing.T) {
	srv, _ := testServer(t)
	for _, m := range []string{"katz", "twitterrank"} {
		var e errEnvelope
		getJSON(t, srv.URL+"/v1/recommend?user=11&topic=technology&method="+m, http.StatusBadRequest, &e)
		if e.Error.Code != client.CodeUnknownMethod || !strings.Contains(e.Error.Message, "(tr, landmark)") {
			t.Errorf("recommend method=%s: %+v, want %s naming tr and landmark", m, e.Error, client.CodeUnknownMethod)
		}
		e = errEnvelope{}
		postJSON(t, srv.URL+"/v1/subscribe", client.RecommendRequest{User: 11, Topic: "technology", Method: m},
			http.StatusBadRequest, &e)
		if e.Error.Code != client.CodeUnknownMethod {
			t.Errorf("subscribe method=%s: %+v, want %s", m, e.Error, client.CodeUnknownMethod)
		}
	}
}

// TestDeprecatedAliasesForward runs a legacy-enabled server: the
// unversioned routes answer identically to their /v1 successors and
// stamp the sunset headers.
func TestDeprecatedAliasesForward(t *testing.T) {
	srv, ds := legacyServer(t)
	var health map[string]string
	getJSON(t, srv.URL+"/health", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("deprecated /health = %v", health)
	}
	var st client.StatsResponse
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Nodes != ds.Graph.NumNodes() {
		t.Errorf("deprecated /stats nodes = %d", st.Nodes)
	}
	var resp client.RecommendResponse
	getJSON(t, srv.URL+"/recommend?user=11&topic=technology&n=5", http.StatusOK, &resp)
	if resp.Method != "landmark" || len(resp.Results) == 0 {
		t.Errorf("deprecated /recommend = %+v", resp)
	}
	postJSON(t, srv.URL+"/updates", client.UpdateRequest{Updates: []client.UpdateItem{
		{Src: 2, Dst: 3, Topics: []string{"technology"}},
	}}, http.StatusOK, nil)
	// Deprecated errors use the same envelope.
	var e errEnvelope
	getJSON(t, srv.URL+"/recommend?user=1&topic=nope", http.StatusBadRequest, &e)
	if e.Error.Code != client.CodeUnknownTopic {
		t.Errorf("deprecated route error code = %q", e.Error.Code)
	}
	// Every alias response carries the deprecation trio.
	r, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.Header.Get("Deprecation") != "true" {
		t.Errorf("Deprecation header = %q, want true", r.Header.Get("Deprecation"))
	}
	if r.Header.Get("Sunset") == "" {
		t.Error("missing Sunset header on deprecated route")
	}
	if link := r.Header.Get("Link"); link != `</v1/health>; rel="successor-version"` {
		t.Errorf("Link header = %q", link)
	}
	// The /v1 successors never carry them.
	r2, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.Header.Get("Deprecation") != "" || r2.Header.Get("Sunset") != "" {
		t.Error("/v1 route carries deprecation headers")
	}
}

// TestLegacyRoutesOffByDefault pins the sunset: without
// WithLegacyRoutes the unversioned paths are gone — uniform 404
// envelope pointing at /v1, no forwarding.
func TestLegacyRoutesOffByDefault(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/health", "/topics", "/stats", "/recommend?user=1&topic=technology", "/metrics"} {
		var e errEnvelope
		getJSON(t, srv.URL+path, http.StatusNotFound, &e)
		if e.Error.Code != client.CodeNotFound {
			t.Errorf("%s: error code %q, want %q", path, e.Error.Code, client.CodeNotFound)
		}
	}
	var e errEnvelope
	postJSON(t, srv.URL+"/updates", client.UpdateRequest{}, http.StatusNotFound, &e)
	if e.Error.Code != client.CodeNotFound {
		t.Errorf("/updates: error code %q, want %q", e.Error.Code, client.CodeNotFound)
	}
}

// TestMethodNotAllowed sends each route the wrong HTTP verb; the route
// table must answer a 405 envelope with an Allow header, never
// dispatch. Unversioned aliases only exist on a legacy-enabled server.
func TestMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	legacy, _ := legacyServer(t)
	cases := []struct {
		base         string
		method, path string
	}{
		{legacy.URL, http.MethodPost, "/recommend?user=1&topic=technology"},
		{legacy.URL, http.MethodDelete, "/recommend?user=1&topic=technology"},
		{legacy.URL, http.MethodGet, "/updates"},
		{legacy.URL, http.MethodPut, "/updates"},
		{legacy.URL, http.MethodPost, "/health"},
		{legacy.URL, http.MethodPost, "/metrics"},
		{srv.URL, http.MethodPost, "/v1/recommend?user=1&topic=technology"},
		{srv.URL, http.MethodGet, "/v1/update"},
		{srv.URL, http.MethodGet, "/v1/recommend:batch"},
		{srv.URL, http.MethodPost, "/v1/metrics"},
		{srv.URL, http.MethodGet, "/v1/subscribe"},
		{srv.URL, http.MethodPost, "/v1/subscribe/s1/events"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, c.base+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, http.StatusMethodNotAllowed)
			continue
		}
		if derr != nil || e.Error.Code != client.CodeMethodNotAllowed {
			t.Errorf("%s %s: envelope %+v (decode err %v), want code %q", c.method, c.path, e, derr, client.CodeMethodNotAllowed)
		}
		if resp.Header.Get("Allow") == "" {
			t.Errorf("%s %s: missing Allow header", c.method, c.path)
		}
	}
}

// TestUpdateReportsItsOwnRefreshes: under Eager, a synchronous update
// answers with the whole-landmark refreshes its own batch ran. Two
// consecutive batches, each adding a follow out of a different landmark,
// both refresh; the second answer equals the growth of /v1/stats'
// landmark_refreshes across it, not the running total.
func TestUpdateReportsItsOwnRefreshes(t *testing.T) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 600
	cfg.Seed = 5
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 6, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := dynamic.NewManager(ds.Graph, lms, dynamic.Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 100, QueryDepth: 2, Strategy: dynamic.Eager,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta))
	var stats [3]client.StatsResponse
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &stats[0])
	for i, lm := range lms[:2] {
		dst := graph.NodeID(0)
		for dst == lm || ds.Graph.HasEdge(lm, dst) {
			dst++
		}
		var applied client.UpdateResponse
		postJSON(t, srv.URL+"/v1/update", client.UpdateRequest{Updates: []client.UpdateItem{
			{Src: uint32(lm), Dst: uint32(dst), Topics: []string{"technology"}},
		}}, http.StatusOK, &applied)
		getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &stats[i+1])
		if grew := stats[i+1].Refreshes - stats[i].Refreshes; applied.Refreshes < 1 || applied.Refreshes != grew {
			t.Errorf("batch %d: update answered refreshes %d, landmark_refreshes grew %d -> %d; want the growth, at least 1",
				i+1, applied.Refreshes, stats[i].Refreshes, stats[i+1].Refreshes)
		}
	}
}

func TestUpdatesFlow(t *testing.T) {
	srv, ds := testServer(t)
	var before client.StatsResponse
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &before)

	// A new follow appears...
	var applied client.UpdateResponse
	postJSON(t, srv.URL+"/v1/update", client.UpdateRequest{Updates: []client.UpdateItem{
		{Src: 1, Dst: 500, Topics: []string{"technology"}},
	}}, http.StatusOK, &applied)
	if applied.Applied != 1 {
		t.Errorf("applied = %+v", applied)
	}
	var after client.StatsResponse
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &after)
	if after.Edges != before.Edges+1 || after.Batches != before.Batches+1 {
		t.Errorf("stats before %+v after %+v", before, after)
	}
	// ...and is immediately visible to exact recommendations from user 1.
	var resp client.RecommendResponse
	getJSON(t, srv.URL+"/v1/recommend?user=1&topic=technology&method=tr&n=600", http.StatusOK, &resp)
	// A landmark query refreshes its topic on the stale landmarks it
	// meets. The manager runs Lazy, so /v1/stats counts that in
	// topic_refreshes and no whole-landmark refresh, and so does the
	// update response.
	getJSON(t, srv.URL+"/v1/recommend?user=1&topic=technology&method=landmark", http.StatusOK, &resp)
	var refreshed client.StatsResponse
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &refreshed)
	if refreshed.TopicRefreshes <= before.TopicRefreshes || refreshed.Refreshes != 0 || applied.Refreshes != 0 {
		t.Errorf("after a lazy query: topic_refreshes %d -> %d, landmark_refreshes %d, update refreshes %d; want topic refreshes only",
			before.TopicRefreshes, refreshed.TopicRefreshes, refreshed.Refreshes, applied.Refreshes)
	}

	// Then the follow is removed again.
	postJSON(t, srv.URL+"/v1/update", client.UpdateRequest{Updates: []client.UpdateItem{
		{Src: 1, Dst: 500, Remove: true},
	}}, http.StatusOK, nil)
	var final client.StatsResponse
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &final)
	if final.Edges != before.Edges {
		t.Errorf("edges = %d, want %d after add+remove", final.Edges, before.Edges)
	}
	_ = ds
}

// TestRecommendBatch drives POST /v1/recommend:batch: items succeed and
// fail independently, duplicates within a batch share the cache, and the
// JSON side's omitted n falls back to the default 10.
func TestRecommendBatch(t *testing.T) {
	srv, _ := testServer(t)
	var out struct {
		Results []client.BatchResult `json:"results"`
	}
	postJSON(t, srv.URL+"/v1/recommend:batch", []client.RecommendRequest{
		{User: 11, Topic: "technology", N: 5},
		{User: 11, Topic: "technology", N: 5}, // duplicate: served from cache
		{User: -1, Topic: "technology"},
		{User: 1, Topic: "nope"},
		{User: 12, Topic: "technology"}, // n omitted: default 10
	}, http.StatusOK, &out)
	if len(out.Results) != 5 {
		t.Fatalf("%d results, want 5", len(out.Results))
	}
	first := out.Results[0]
	if first.Error != nil || first.Response == nil || first.Response.Cache != "miss" {
		t.Errorf("item 0 = %+v, want a fresh response", first)
	}
	dup := out.Results[1]
	if dup.Response == nil || dup.Response.Cache != "hit" {
		t.Errorf("duplicate item = %+v, want a cache hit", dup)
	}
	if e := out.Results[2].Error; e == nil || e.Code != client.CodeBadRequest {
		t.Errorf("item 2 error = %+v, want %s", out.Results[2].Error, client.CodeBadRequest)
	}
	if e := out.Results[3].Error; e == nil || e.Code != client.CodeUnknownTopic {
		t.Errorf("item 3 error = %+v, want %s", out.Results[3].Error, client.CodeUnknownTopic)
	}
	if r := out.Results[4].Response; r == nil || len(r.Results) == 0 || len(r.Results) > 10 {
		t.Errorf("item 4 = %+v, want up to 10 default results", out.Results[4])
	}

	// Batch-level validation: empty and oversized batches are rejected
	// whole, as is a malformed body.
	postJSON(t, srv.URL+"/v1/recommend:batch", []client.RecommendRequest{}, http.StatusBadRequest, nil)
	big := make([]client.RecommendRequest, maxBatchSize+1)
	for i := range big {
		big[i] = client.RecommendRequest{User: 1, Topic: "technology"}
	}
	postJSON(t, srv.URL+"/v1/recommend:batch", big, http.StatusBadRequest, nil)
	resp, err := http.Post(srv.URL+"/v1/recommend:batch", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage batch body: status %d", resp.StatusCode)
	}
}

func TestUpdatesValidation(t *testing.T) {
	srv, _ := testServer(t)
	cases := []client.UpdateRequest{
		{},
		{Updates: []client.UpdateItem{{Src: 1, Dst: 1, Topics: []string{"technology"}}}},
		{Updates: []client.UpdateItem{{Src: 1, Dst: 999999, Topics: []string{"technology"}}}},
		{Updates: []client.UpdateItem{{Src: 1, Dst: 2, Topics: []string{"nope"}}}},
		{Updates: []client.UpdateItem{{Src: 1, Dst: 2}}}, // follow without topics
	}
	for i, c := range cases {
		postJSON(t, srv.URL+"/v1/update", c, http.StatusBadRequest, nil)
		_ = i
	}
	// Non-JSON body.
	resp, err := http.Post(srv.URL+"/v1/update", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
}
