package server

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/topics"
	"repro/internal/workload"
)

// driveResult partitions the responses of one closed-loop run: 2xx, 429
// and >= 500.
type driveResult struct{ ops, ok, shed, errors5xx int }

// drive plays ops requests through h from conc closed-loop goroutines;
// req builds request i from the calling worker's own seeded generator.
func drive(h http.Handler, conc, ops int, req func(i int, rng *rand.Rand) *http.Request) driveResult {
	var next, ok, shed, bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(conc), uint64(w)))
			for i := int(next.Add(1)) - 1; i < ops; i = int(next.Add(1)) - 1 {
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req(i, rng))
				switch {
				case rw.Code < 300:
					ok.Add(1)
				case rw.Code == http.StatusTooManyRequests:
					shed.Add(1)
				case rw.Code >= 500:
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return driveResult{ops: ops, ok: int(ok.Load()), shed: int(shed.Load()), errors5xx: int(bad.Load())}
}

// recommendReq builds one GET /v1/recommend for a generated query.
func recommendReq(vocab *topics.Vocabulary, q workload.Query, method string) *http.Request {
	qs := url.Values{}
	qs.Set("user", fmt.Sprint(q.User))
	qs.Set("topic", vocab.Name(q.Topic))
	qs.Set("n", fmt.Sprint(q.TopN))
	qs.Set("method", method)
	return httptest.NewRequest(http.MethodGet, "/v1/recommend?"+qs.Encode(), nil)
}

// TestBenchServeCoalescesAt16x: at 16 closed-loop workers a skewed query
// pool must collide on in-flight keys. A workload of all-distinct
// queries silently turns the coalescer into dead code. Overload under a
// one-slot, one-deep admission pool must surface as 429, never as 5xx,
// with exact-Tr queries (degraded to the landmark path) and update
// batches in the mix.
func TestBenchServeCoalescesAt16x(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop load")
	}
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 1200
	cfg.Seed = 1
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	lms, err := landmark.Select(g, landmark.InDeg, 10, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	mgr, err := dynamic.NewManager(g, lms, dynamic.Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 100, QueryDepth: 2,
		// Updates mark landmarks stale but never trigger a refresh.
		Strategy: dynamic.Threshold, StaleBound: 1 << 30, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mgr, core.DefaultParams().Beta,
		WithMetrics(reg),
		WithRequestTimeout(10*time.Second),
		// A degrade budget above the request timeout degrades every
		// exact-Tr query to the landmark approximation.
		WithDegradeBudget(time.Minute),
		WithAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 1}),
	)
	t.Cleanup(s.Close)
	queries, err := workload.Generate(g, workload.Config{
		Queries: 256, TopN: 10, MinOutDegree: 3, TopicBias: 1.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := graph.NodeID(1), graph.NodeID(132)
	if g.HasEdge(src, dst) {
		t.Fatal("toggle pair is already an edge")
	}
	vocab := g.Vocabulary()
	h := s.Handler()

	const ops = 2000
	pre := reg.Counter("coalesce_hits_total", "").Value()
	res := drive(h, 16, ops, func(i int, rng *rand.Rand) *http.Request {
		if i%1000 == 100 {
			// Add the toggle edge, then remove it: each batch
			// invalidates the result cache, so keys go cold again.
			body := fmt.Sprintf(`{"updates":[{"src":%d,"dst":%d,"topics":[%q],"remove":%v}]}`,
				src, dst, vocab.Name(0), (i/1000)%2 == 1)
			return httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(body))
		}
		// A cubed uniform draw: the first few keys take most of the
		// traffic, the popularity skew coalescing is built for.
		q := queries[int(float64(len(queries))*math.Pow(rng.Float64(), 3))]
		method := "landmark"
		if i%7 == 3 {
			method = "tr"
		}
		return recommendReq(vocab, q, method)
	})
	if hits := reg.Counter("coalesce_hits_total", "").Value() - pre; hits == 0 {
		t.Errorf("no coalesce hit at 16x over %d ops: the skewed pool no longer collides", ops)
	}
	if res.errors5xx > 0 {
		t.Errorf("%d 5xx responses under load", res.errors5xx)
	}
}

// TestBenchShardSmoke drives a router-mode server over in-process shard
// workers (real listeners) with 16 closed-loop workers: with every shard
// healthy no answer is degraded, no response is a 5xx, and every request
// is either served or shed.
func TestBenchShardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop load")
	}
	mgr, ds := testManager(t, nil)
	queries, err := workload.Generate(ds.Graph, workload.Config{
		Queries: 512, TopN: 10, MinOutDegree: 3, TopicBias: 1.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := ds.Graph.Vocabulary()
	for _, parts := range []int{2, 4} {
		reg := metrics.NewRegistry()
		s := New(mgr, core.DefaultParams().Beta,
			WithMetrics(reg),
			WithShardRouter(NewShardRouter(shardTier(t, ds, parts, tierConfig), 10*time.Second, 0)),
			// No result cache: every request scatters.
			WithCacheSize(0),
			WithRequestTimeout(30*time.Second),
			WithAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 1}),
		)
		t.Cleanup(s.Close)
		res := drive(s.Handler(), 16, 200, func(i int, _ *rand.Rand) *http.Request {
			return recommendReq(vocab, queries[i%len(queries)], "landmark")
		})
		if res.errors5xx > 0 {
			t.Errorf("parts=%d: %d 5xx responses", parts, res.errors5xx)
		}
		if deg := reg.Counter("requests_degraded_total", "").Value(); deg != 0 {
			t.Errorf("parts=%d: %d degraded answers with all shards healthy", parts, deg)
		}
		if res.ok+res.shed != res.ops {
			t.Errorf("parts=%d: ok %d + shed %d != ops %d", parts, res.ok, res.shed, res.ops)
		}
	}
}
