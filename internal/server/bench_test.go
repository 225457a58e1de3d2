package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/topics"
)

var serveSink []ranking.Scored

// BenchmarkServeRecommend prices one served landmark request on the
// serving shape of the whole-stack benchmark's query-cold workload (8000
// nodes, 30 In-Deg landmarks, top-500 lists, n=10). /handler sends
// GET /v1/recommend through Server.Handler() into an
// httptest.ResponseRecorder: routing, the metrics middleware, validation,
// the result cache, coalescing, admission, the query, the response build
// and JSON encoding, with no listener or client. /manager is the query
// alone (Manager.Recommend), so the difference is what the server adds.
// Request i asks user i mod 8000 in topic i/8000: no key repeats within
// 8000 × topics requests, far past the result cache's 4096 entries, so
// every handler request misses the cache and pays the insertion. The
// handler's allocs/op is gated by `make kernel-gate`.
func BenchmarkServeRecommend(b *testing.B) {
	const nodes, n = 8000, 10
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = nodes
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 30, landmark.DefaultSelectConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := dynamic.NewManager(ds.Graph, lms, dynamic.Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 500,
		QueryDepth: 2, Strategy: dynamic.Lazy,
	})
	if err != nil {
		b.Fatal(err)
	}
	vocab := ds.Graph.Vocabulary()
	key := func(i int) (graph.NodeID, topics.ID) {
		return graph.NodeID(i % nodes), topics.ID(i / nodes % vocab.Len())
	}

	b.Run("handler", func(b *testing.B) {
		s := New(mgr, core.DefaultParams().Beta)
		defer s.Close()
		h := s.Handler()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u, t := key(i)
			req := httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/recommend?user=%d&topic=%s&n=%d", u, vocab.Name(t), n), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
				b.Fatalf("request %d: status %d, cache %q", i, rec.Code, rec.Header().Get("X-Cache"))
			}
		}
	})
	b.Run("manager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u, t := key(i)
			serveSink, err = mgr.Recommend(u, t, n)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
