package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
)

// shardTier spins up real partition workers (over httptest TCP listeners)
// serving the same dataset testManager builds, and returns the router
// endpoint groups pointing at them.
func shardTier(t *testing.T, ds *gen.Dataset, parts int, cfg distrib.ShardServerConfig) [][]string {
	t.Helper()
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 6, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 100})
	assign := distrib.HashPartition(ds.Graph, parts)
	groups := make([][]string, parts)
	for p := 0; p < parts; p++ {
		sub := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == p })
		sh, err := distrib.NewShard(eng, sub, assign, p, lms, 2)
		if err != nil {
			t.Fatal(err)
		}
		ss := distrib.NewShardServer(sh, p, parts, cfg)
		srv := httptest.NewServer(ss)
		t.Cleanup(srv.Close)
		groups[p] = []string{srv.URL}
	}
	return groups
}

// tierConfig is the worker admission the router tests run their shards
// with.
var tierConfig = distrib.ShardServerConfig{MaxInflight: 2, MaxQueue: 16}

func recommendInto(t *testing.T, base string, q string, out *client.RecommendResponse) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/recommend?" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", q, resp.StatusCode)
	}
	getJSONBody(t, resp, out)
	return resp
}

// The end-to-end differential: a router-mode server must answer landmark
// queries identically (IDs exact, scores to float-merge tolerance) to the
// same server answering from its local engine.
func TestRouterMatchesLocalEngine(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg)
	local := newTestHTTP(t, New(mgr, core.DefaultParams().Beta))

	for _, parts := range []int{1, 2, 4} {
		groups := shardTier(t, ds, parts, tierConfig)
		router := NewShardRouter(groups, 5*time.Second, 0)
		// Cache size 0: every request must actually scatter.
		routed := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
			WithShardRouter(router), WithCacheSize(0)))

		for _, q := range []string{
			"user=3&topic=technology&n=15",
			"user=117&topic=sports&n=15",
			"user=542&topic=politics&n=15",
		} {
			var want, got client.RecommendResponse
			recommendInto(t, local.URL, q, &want)
			recommendInto(t, routed.URL, q, &got)
			if got.Degraded {
				t.Fatalf("parts=%d %s: full gather marked degraded", parts, q)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("parts=%d %s: %d vs %d results", parts, q, len(got.Results), len(want.Results))
			}
			for i := range want.Results {
				w, g := want.Results[i], got.Results[i]
				tol := 1e-9 * math.Max(1, math.Abs(w.Score))
				if g.User != w.User && math.Abs(g.Score-w.Score) > tol {
					t.Fatalf("parts=%d %s: rank %d user %d (%.12g) vs %d (%.12g)",
						parts, q, i, g.User, g.Score, w.User, w.Score)
				}
				if math.Abs(g.Score-w.Score) > tol {
					t.Fatalf("parts=%d %s: rank %d score %.12g vs %.12g", parts, q, i, g.Score, w.Score)
				}
			}
		}
	}
}

// routerQueries are the keys TestRouterMatchesLocalEngine asks.
var routerQueries = []string{
	"user=3&topic=technology&n=15",
	"user=117&topic=sports&n=15",
	"user=542&topic=politics&n=15",
}

// A shard answering as the right index of a different partition count
// owns a different candidate split: merged with the others, some
// candidates go missing and others are summed twice, and the answer looks
// whole. The router must count it as a failed shard: the gather is served
// degraded, never cached.
func TestRouterRejectsMisWiredPartitionCount(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg)
	groups := shardTier(t, ds, 2, tierConfig)
	groups[1] = shardTier(t, ds, 4, tierConfig)[1]
	router := NewShardRouter(groups, 5*time.Second, 0)
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg), WithShardRouter(router)))

	for _, q := range routerQueries {
		for range 2 {
			var resp client.RecommendResponse
			recommendInto(t, srv.URL, q, &resp)
			if !resp.Degraded {
				t.Fatalf("%s: gather over a shard of another partition count not marked degraded", q)
			}
			if resp.Cache != "miss" {
				t.Fatalf("%s: cache %q, want miss (degraded results must not be cached)", q, resp.Cache)
			}
		}
	}
}

// Router mode is read-only: a write or a subscription gets 409 read_only,
// and neither the scattered landmark answers nor the local exact answers
// move. An applied write would move the exact answers and never the
// landmark ones.
func TestRouterRefusesWrites(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg)
	router := NewShardRouter(shardTier(t, ds, 2, tierConfig), 5*time.Second, 0)
	// Cache size 0: the answers after the write are recomputed.
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg), WithShardRouter(router), WithCacheSize(0)))

	rankings := func() map[string][]client.Recommendation {
		out := map[string][]client.Recommendation{}
		for _, q := range routerQueries {
			for _, m := range []string{"landmark", "tr"} {
				var resp client.RecommendResponse
				recommendInto(t, srv.URL, q+"&method="+m, &resp)
				out[q+"&method="+m] = resp.Results
			}
		}
		return out
	}
	before := rankings()

	var upd client.UpdateRequest
	for dst := 100; dst < 140; dst++ {
		upd.Updates = append(upd.Updates, client.UpdateItem{Src: 3, Dst: uint32(dst), Topics: []string{"technology"}})
	}
	body, err := json.Marshal(upd)
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(t, "update", doRaw(t, http.MethodPost, srv.URL+"/v1/update", string(body)),
		http.StatusConflict, client.CodeReadOnly)
	if got := mgr.Stats().Batches; got != 0 {
		t.Fatalf("manager applied %d batches behind a 409", got)
	}

	after := rankings()
	for k, want := range before {
		if !reflect.DeepEqual(after[k], want) {
			t.Errorf("%s moved after a refused write:\n before %+v\n after  %+v", k, want, after[k])
		}
	}

	for _, m := range []string{"landmark", "tr"} {
		sub := `{"user":3,"topic":"technology","n":5,"method":"` + m + `"}`
		assertEnvelope(t, "subscribe/"+m, doRaw(t, http.MethodPost, srv.URL+"/v1/subscribe", sub),
			http.StatusConflict, client.CodeReadOnly)
	}
}

// fakeShard is a scripted shard endpoint for failure-mode tests.
func fakeShard(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

func encodedPartial(shard, parts int, entries []distrib.PartialEntry) []byte {
	return distrib.EncodePartial(&distrib.PartialResponse{
		Shard: shard, Parts: parts, Entries: entries,
	})
}

// A shard missing its deadline must leave its share out: the answer is
// served degraded — and not cached, so the next query retries the shard.
func TestRouterShardTimeoutDegrades(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, ds := testManager(t, reg)
	groups := shardTier(t, ds, 2, tierConfig)
	// Replace shard 1 with one that never answers in time. (The sleep is
	// capped so test cleanup stays fast even if client-cancellation does
	// not tear the connection down promptly.)
	groups[1] = []string{fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	})}
	router := NewShardRouter(groups, 150*time.Millisecond, 0)
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg), WithShardRouter(router)))

	var resp client.RecommendResponse
	recommendInto(t, srv.URL, "user=117&topic=sports", &resp)
	if !resp.Degraded {
		t.Error("partial gather must be marked degraded")
	}
	if resp.Cache != "miss" {
		t.Errorf("cache %q, want miss", resp.Cache)
	}
	if got := reg.Counter("shard_timeouts_total", "").Value(); got == 0 {
		t.Error("shard_timeouts_total = 0 after a shard deadline miss")
	}
	if got := reg.Counter("requests_degraded_total", "").Value(); got != 1 {
		t.Errorf("requests_degraded_total = %d, want 1", got)
	}

	// Degraded answers are not cached: the identical query misses again.
	recommendInto(t, srv.URL, "user=117&topic=sports", &resp)
	if resp.Cache != "miss" {
		t.Errorf("second query cache %q, want miss (degraded results must not be cached)", resp.Cache)
	}
}

// Every shard shedding means the cluster is saturated: the front end must
// shed too (429), not burn its local engine.
func TestRouterAllShardsOverloadedSheds(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	overloaded := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shard overloaded", http.StatusTooManyRequests)
	})
	router := NewShardRouter([][]string{{overloaded}, {overloaded}}, time.Second, 0)
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg), WithShardRouter(router)))

	resp, err := http.Get(srv.URL + "/v1/recommend?user=3&topic=technology")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := reg.Counter("requests_shed_total", "").Value(); got != 1 {
		t.Errorf("requests_shed_total = %d, want 1", got)
	}
}

// Shards failing for any other reason (crash, 500) drop the front end
// back onto its local landmark engine — degraded but correct.
func TestRouterTotalFailureFallsBackLocal(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	broken := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	router := NewShardRouter([][]string{{broken}}, time.Second, 0)
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg), WithShardRouter(router)))

	var routed client.RecommendResponse
	recommendInto(t, srv.URL, "user=117&topic=sports&n=10", &routed)
	if !routed.Degraded {
		t.Error("local fallback must be marked degraded")
	}
	if got := reg.Counter("shard_fallbacks_total", "").Value(); got != 1 {
		t.Errorf("shard_fallbacks_total = %d, want 1", got)
	}

	// The fallback must be the local landmark answer.
	local := newTestHTTP(t, New(mgr, core.DefaultParams().Beta))
	var want client.RecommendResponse
	recommendInto(t, local.URL, "user=117&topic=sports&n=10", &want)
	if !reflect.DeepEqual(routed.Results, want.Results) {
		t.Error("fallback results differ from the local landmark answer")
	}
}

// A slow primary with a healthy replica: the hedged retry answers within
// the deadline and the result counts as a clean (cacheable) gather.
func TestRouterHedgesToReplica(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	entries := []distrib.PartialEntry{{Node: 9, Score: 2.5}, {Node: 4, Score: 1.5}}
	slow := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	})
	replica := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", distrib.PartialContentType)
		w.Write(encodedPartial(0, 1, entries)) //nolint:errcheck
	})
	router := NewShardRouter([][]string{{slow, replica}}, 2*time.Second, 20*time.Millisecond)
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg), WithShardRouter(router)))

	var resp client.RecommendResponse
	recommendInto(t, srv.URL, "user=3&topic=technology&n=5", &resp)
	if resp.Degraded {
		t.Error("hedged success must not be degraded")
	}
	if len(resp.Results) != 2 || resp.Results[0].User != 9 {
		t.Fatalf("unexpected results %+v", resp.Results)
	}
	if got := reg.Counter("shard_hedges_total", "").Value(); got == 0 {
		t.Error("shard_hedges_total = 0 after a hedged retry")
	}
}

// getJSONBody decodes an http.Response JSON body.
func getJSONBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestRouterFastPrimaryNoHedge: when the primary answers well inside the
// hedge delay, no hedged request may reach the replica — the hedge timer
// must be disarmed, not left to fire after the gather returned.
func TestRouterFastPrimaryNoHedge(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := testManager(t, reg)
	primary := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", distrib.PartialContentType)
		w.Write(encodedPartial(0, 1, //nolint:errcheck
			[]distrib.PartialEntry{{Node: 7, Score: 1}}))
	})
	var replicaHits atomic.Uint64
	replica := fakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		replicaHits.Add(1)
		w.Header().Set("Content-Type", distrib.PartialContentType)
		w.Write(encodedPartial(0, 1, nil)) //nolint:errcheck
	})
	const hedge = 30 * time.Millisecond
	router := NewShardRouter([][]string{{primary, replica}}, time.Second, hedge)
	srv := newTestHTTP(t, New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg), WithShardRouter(router)))

	var resp client.RecommendResponse
	recommendInto(t, srv.URL, "user=3&topic=technology", &resp)
	if resp.Degraded {
		t.Fatal("fast primary answer marked degraded")
	}
	// Wait out the hedge delay: a leaked timer would fire in here.
	time.Sleep(3 * hedge)
	if got := replicaHits.Load(); got != 0 {
		t.Errorf("replica served %d requests despite a fast primary", got)
	}
	if got := reg.Counter("shard_hedges_total", "").Value(); got != 0 {
		t.Errorf("shard_hedges_total = %d, want 0", got)
	}
}
