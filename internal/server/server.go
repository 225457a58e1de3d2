// Package server exposes the recommendation system as an HTTP/JSON
// service — the deployment shape the paper describes for Twitter's
// Who-to-Follow ("hosted on a single server"). The service answers
// recommendation queries with the two methods the dynamic manager keeps
// current under updates (exact Tr and landmark-approximate Tr), reports
// dataset and landmark-store statistics, and accepts follow/unfollow
// updates which it maintains through the dynamic landmark-refresh
// machinery. The paper's offline baselines (Katz, TwitterRank) are not
// served; they run in internal/eval, the experiments and trquery's local
// mode.
//
// The HTTP surface is versioned under /v1 (see API.md; the sunset
// unversioned aliases only answer behind WithLegacyRoutes), and the
// serving path is load-managed: concurrent identical queries coalesce
// onto one engine exploration, engine work runs under a bounded
// admission pool that sheds with 429 once its queue fills, and exact-Tr
// queries degrade to the landmark approximation when their deadline
// cannot fit an exploration or the pool is under pressure. Standing
// queries (POST /v1/subscribe + SSE events) push top-k deltas through
// the same coalesced/degradable compute path, triggered by the dynamic
// manager's per-batch effects.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/distrib"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/subscribe"
	"repro/internal/topics"
)

// DefaultRequestTimeout bounds one /v1/recommend request unless
// overridden with WithRequestTimeout. Exact-Tr queries run graph
// explorations to convergence; without a deadline a pathological query
// pins its goroutine for as long as the exploration takes.
const DefaultRequestTimeout = 30 * time.Second

// maxBatchSize caps one /v1/recommend:batch request.
const maxBatchSize = 64

// Server is the HTTP facade. It is safe for concurrent requests: queries
// share the underlying dynamic.Manager's read lock and run in parallel up
// to the admission pool's bound, while updates take its write lock and
// are serialized.
type Server struct {
	mgr        *dynamic.Manager
	vocab      *topics.Vocabulary
	cache      *resultCache
	cacheCap   int
	flight     *coalescer
	pool       *admission
	poolCfg    AdmissionConfig
	reg        *metrics.Registry
	reqTimeout time.Duration
	// router, when set, answers landmark-method queries by scatter/gather
	// over partition workers instead of the local engine.
	router *ShardRouter
	// pipe, when set, makes POST /v1/update enqueue into the streaming
	// ingestion pipeline instead of applying synchronously: accepted
	// batches answer 202 immediately, a full queue answers 429 with
	// Retry-After — the HTTP face of the pipeline's backpressure.
	pipe *ingest.Pipeline
	// degradeBudget is the static floor of the degradation threshold
	// (see degrade.go); 0 disables degradation.
	degradeBudget time.Duration
	// trLat calibrates the degradation threshold from observed exact-Tr
	// latencies.
	trLat latencyEWMA
	// computeHook, when non-nil, replaces the engine dispatch of compute
	// — the test seam proving coalescing/shedding without real
	// explorations.
	computeHook func(ctx context.Context, key cacheKey) ([]ranking.Scored, error)
	// hub owns the standing queries; its re-score worker computes through
	// hubCompute (the coalesced/degradable serving path).
	hub     *subscribe.Hub
	subsCfg SubscriptionConfig
	// legacy re-registers the sunset unversioned aliases (with
	// Deprecation/Sunset headers); off, they 404 like any unknown route.
	legacy bool

	// Metric handles, resolved once at construction.
	httpReqs        *metrics.CounterVec
	httpLat         *metrics.HistogramVec
	cacheHits       *metrics.Counter
	cacheMisses     *metrics.Counter
	cacheInvals     *metrics.Counter
	coalesceHits    *metrics.Counter
	shedReqs        *metrics.Counter
	degradedReqs    *metrics.Counter
	timeouts        *metrics.Counter
	updatesApplied  *metrics.Counter
	updatesRejected *metrics.Counter
}

// Option customizes a Server.
type Option func(*Server)

// WithMetrics uses reg instead of a fresh private registry, so several
// subsystems can share one exposition.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithRequestTimeout sets the per-request deadline applied to
// /v1/recommend; d <= 0 disables the deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithAdmission replaces the default admission pool sizing. A
// MaxInflight <= 0 disables admission control (and with it
// pressure-based degradation).
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.poolCfg = cfg }
}

// WithDegradeBudget sets the static remaining-deadline floor below which
// exact-Tr queries fall back to the landmark approximation; d <= 0
// disables degradation (exact queries then 504 on deadline expiry).
func WithDegradeBudget(d time.Duration) Option {
	return func(s *Server) { s.degradeBudget = d }
}

// WithShardRouter puts the server in scatter/gather mode: landmark-method
// queries (including degraded exact-Tr queries) fan out to the router's
// partition workers and merge exactly; the local engine only answers them
// when every shard fails. The merge is exact only while the shards and the
// local manager score one graph, so router mode is read-only:
// POST /v1/update and POST /v1/subscribe answer 409 read_only.
func WithShardRouter(r *ShardRouter) Option {
	return func(s *Server) { s.router = r }
}

// WithCacheSize overrides the result-cache capacity (default 4096); 0
// disables result caching.
func WithCacheSize(n int) Option {
	return func(s *Server) { s.cacheCap = n }
}

// WithIngest routes POST /v1/update through the streaming ingestion
// pipeline (which must consume the same manager): updates are admitted
// into its bounded queue and applied asynchronously, with queue-full
// backpressure surfaced as 429 + Retry-After. The result cache is
// invalidated when each batch actually applies (the manager's batch
// hook) — until then reads may serve pre-update cached results, the
// staleness the streaming tier trades for bounded write latency.
func WithIngest(p *ingest.Pipeline) Option {
	return func(s *Server) { s.pipe = p }
}

// SubscriptionConfig sizes the standing-query hub.
type SubscriptionConfig struct {
	// MaxSubscriptions caps live subscriptions (<= 0 uses the hub default
	// of 1024); RescoreBudget bounds re-scores per worker cycle (<= 0
	// uses 32); EventBuffer bounds each subscription's event ring (<= 0
	// uses 64).
	MaxSubscriptions int
	RescoreBudget    int
	EventBuffer      int
}

// WithSubscriptions overrides the standing-query hub sizing.
func WithSubscriptions(cfg SubscriptionConfig) Option {
	return func(s *Server) { s.subsCfg = cfg }
}

// WithLegacyRoutes re-enables the sunset unversioned aliases (/health,
// /stats, /recommend, /updates, /topics, /metrics). They answer like
// their /v1 successors but stamp Deprecation/Sunset/Link headers; with
// the option off (the default) they return the uniform 404 envelope.
func WithLegacyRoutes(on bool) Option {
	return func(s *Server) { s.legacy = on }
}

// New builds a server over a dynamic manager. beta is unused; it stays
// only because existing callers pass it. Results are served from a small
// LRU that updates invalidate wholesale. The manager is instrumented into
// the server's registry, so GET /v1/metrics covers the whole serving stack.
func New(mgr *dynamic.Manager, beta float64, opts ...Option) *Server {
	s := &Server{
		mgr:           mgr,
		vocab:         mgr.Graph().Vocabulary(),
		cacheCap:      4096,
		reqTimeout:    DefaultRequestTimeout,
		degradeBudget: DefaultDegradeBudget,
		poolCfg:       DefaultAdmissionConfig(),
	}
	for _, o := range opts {
		o(s)
	}
	s.cache = newResultCache(s.cacheCap)
	s.flight = newCoalescer(s.cache)
	s.pool = newAdmission(s.poolCfg)
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	mgr.Instrument(s.reg)
	if s.router != nil {
		s.router.instrument(s.reg)
	}
	s.httpReqs = s.reg.CounterVec("http_requests_total",
		"Requests served, by method, route and status code.", "method", "route", "code")
	s.httpLat = s.reg.HistogramVec("http_request_seconds",
		"Request latency in seconds, by route.", nil, "route")
	s.cacheHits = s.reg.Counter("cache_hits_total", "Recommendation-cache hits.")
	s.cacheMisses = s.reg.Counter("cache_misses_total", "Recommendation-cache misses.")
	s.cacheInvals = s.reg.Counter("cache_invalidations_total",
		"Wholesale cache invalidations triggered by update batches.")
	s.coalesceHits = s.reg.Counter("coalesce_hits_total",
		"Requests served by joining an identical in-flight computation.")
	s.shedReqs = s.reg.Counter("requests_shed_total",
		"Recommendation requests shed with 429 by admission control.")
	s.degradedReqs = s.reg.Counter("requests_degraded_total",
		"Requests served with a degraded answer (landmark fallback or partial shard gather).")
	s.timeouts = s.reg.Counter("request_timeouts_total",
		"Recommendation requests cancelled by the per-request deadline.")
	s.updatesApplied = s.reg.Counter("updates_applied_total",
		"Follow/unfollow changes applied by a synchronous update (streaming admissions count in ingest_enqueued_total).")
	s.updatesRejected = s.reg.Counter("updates_rejected_total",
		"Update requests rejected by validation (queue-full rejections count in ingest_rejected_total).")
	s.reg.GaugeFunc("cache_entries", "Live entries in the recommendation cache.",
		func() float64 { return float64(s.cache.len()) })
	s.reg.GaugeFunc("admission_inflight", "Recommendation computations currently running.",
		func() float64 { return float64(s.pool.inflightNow()) })
	s.reg.GaugeFunc("admission_queue_depth", "Recommendation computations queued for a pool slot.",
		func() float64 { return float64(s.pool.queueDepth()) })
	s.hub = subscribe.New(subscribe.Config{
		MaxSubscriptions: s.subsCfg.MaxSubscriptions,
		RescoreBudget:    s.subsCfg.RescoreBudget,
		EventBuffer:      s.subsCfg.EventBuffer,
		Compute:          s.hubCompute,
		Neighborhood: func(k subscribe.Key) []graph.NodeID {
			return s.mgr.Neighborhood(k.User, k.Method == "tr")
		},
		Metrics: s.reg,
	})
	mgr.SetBatchHook(s.onBatchEffect)
	return s
}

// Close detaches the server from its manager and stops the subscription
// hub's worker, waking every blocked event reader. The server must not
// serve requests afterwards.
func (s *Server) Close() {
	s.mgr.SetBatchHook(nil)
	s.hub.Close()
}

// onBatchEffect is the manager's batch hook: it runs after every applied
// batch — synchronous Apply and streaming-pipeline applies alike. The
// cache invalidation must precede the hub marking: re-scores then run at
// the post-batch cache generation and can never join (or read) a
// pre-update in-flight computation.
func (s *Server) onBatchEffect(fx dynamic.BatchEffect) {
	s.cache.invalidate()
	s.cacheInvals.Inc()
	s.hub.OnBatch(fx)
}

// hubCompute answers one standing-query re-score through answer, the
// path a live request takes, so a re-score and a concurrent identical
// GET /v1/recommend share one execution and return identical rankings.
func (s *Server) hubCompute(ctx context.Context, k subscribe.Key) (subscribe.Result, error) {
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	res, _, err := s.answer(ctx, cacheKey{user: k.User, topic: k.Topic, n: k.N, method: k.Method})
	return subscribe.Result{Scored: res.scored, Degraded: res.degraded}, err
}

// answer runs one validated query through the load-managed path:
// degradation decision, result cache, then the coalesced,
// admission-gated computation. source says which of the three answered:
// "hit", "coalesced" or "miss".
func (s *Server) answer(ctx context.Context, key cacheKey) (computed, string, error) {
	effKey := key
	degraded := false
	if key.method == "tr" && s.shouldDegrade(ctx) {
		// The landmark approximation answers instead; computing (and
		// caching) under the landmark key means degraded queries and
		// plain landmark queries share work in both directions.
		effKey.method = "landmark"
		degraded = true
	}
	if scored, ok := s.cache.get(effKey); ok {
		s.cacheHits.Inc()
		return computed{scored: scored, degraded: degraded}, "hit", nil
	}
	res, shared, err := s.flight.do(ctx, effKey, func() (computed, error) {
		return s.compute(ctx, effKey)
	})
	if err != nil {
		return computed{}, "", err
	}
	res.degraded = degraded || res.degraded
	if shared {
		s.coalesceHits.Inc()
		return res, "coalesced", nil
	}
	s.cacheMisses.Inc()
	return res, "miss", nil
}

// Metrics returns the server's registry (for sharing with other
// subsystems or for tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// routeDef is one /v1 route: a path pattern (net/http ServeMux syntax,
// no method prefix — method dispatch is manual so unsupported methods
// get the uniform 405 envelope instead of the mux's plain-text error)
// and its per-method handlers.
type routeDef struct {
	pattern string
	methods map[string]http.HandlerFunc
}

// routes is the complete /v1 surface — the one list the mux, the metrics
// route labels and the API.md golden test are built from.
func (s *Server) routes() []routeDef {
	get := func(h http.HandlerFunc) map[string]http.HandlerFunc {
		return map[string]http.HandlerFunc{http.MethodGet: h}
	}
	post := func(h http.HandlerFunc) map[string]http.HandlerFunc {
		return map[string]http.HandlerFunc{http.MethodPost: h}
	}
	return []routeDef{
		{"/v1/health", get(s.handleHealth)},
		{"/v1/topics", get(s.handleTopics)},
		{"/v1/stats", get(s.handleStats)},
		{"/v1/recommend", get(s.handleRecommend)},
		{"/v1/recommend:batch", post(s.handleRecommendBatch)},
		{"/v1/update", post(s.handleUpdates)},
		{"/v1/metrics", get(s.reg.ServeHTTP)},
		{"/v1/subscribe", post(s.handleSubscribe)},
		{"/v1/subscribe/{id}", map[string]http.HandlerFunc{http.MethodDelete: s.handleUnsubscribe}},
		{"/v1/subscribe/{id}/events", get(s.handleEvents)},
	}
}

// sunsetDate is the Sunset header stamped on legacy aliases.
const sunsetDate = "Thu, 01 Apr 2027 00:00:00 GMT"

// Handler returns the route table: the versioned /v1 surface, a uniform
// envelope for unknown routes (404) and unsupported methods (405), and —
// only behind WithLegacyRoutes — the sunset unversioned aliases, which
// log once, stamp Deprecation/Sunset/Link headers and forward. Every
// route is wrapped in the request middleware; /v1/metrics exposes the
// registry in the Prometheus text format.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		rt := rt
		allowed := make([]string, 0, len(rt.methods))
		for m := range rt.methods {
			allowed = append(allowed, m)
		}
		sort.Strings(allowed)
		allow := strings.Join(allowed, ", ")
		mux.HandleFunc(rt.pattern, s.instrument(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			h := rt.methods[r.Method]
			if h == nil && r.Method == http.MethodHead {
				h = rt.methods[http.MethodGet]
			}
			if h == nil {
				w.Header().Set("Allow", allow)
				s.writeError(w, errf(http.StatusMethodNotAllowed, client.CodeMethodNotAllowed,
					"%s is not allowed on %s (allowed: %s)", r.Method, rt.pattern, allow))
				return
			}
			h(w, r)
		}))
	}
	if s.legacy {
		alias := func(method, route, successor string, h http.HandlerFunc) {
			var once sync.Once
			mux.HandleFunc(route, s.instrument(route, func(w http.ResponseWriter, r *http.Request) {
				if r.Method != method && !(r.Method == http.MethodHead && method == http.MethodGet) {
					w.Header().Set("Allow", method)
					s.writeError(w, errf(http.StatusMethodNotAllowed, client.CodeMethodNotAllowed,
						"%s is not allowed on %s (allowed: %s)", r.Method, route, method))
					return
				}
				once.Do(func() {
					log.Printf("server: route %s is deprecated, use %s", route, successor)
				})
				w.Header().Set("Deprecation", "true")
				w.Header().Set("Sunset", sunsetDate)
				w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
				h(w, r)
			}))
		}
		alias(http.MethodGet, "/health", "/v1/health", s.handleHealth)
		alias(http.MethodGet, "/topics", "/v1/topics", s.handleTopics)
		alias(http.MethodGet, "/stats", "/v1/stats", s.handleStats)
		alias(http.MethodGet, "/recommend", "/v1/recommend", s.handleRecommend)
		alias(http.MethodPost, "/updates", "/v1/update", s.handleUpdates)
		alias(http.MethodGet, "/metrics", "/v1/metrics", s.reg.ServeHTTP)
	}
	// Everything else — including the sunset aliases when legacy routing
	// is off — gets the envelope, not the mux's plain-text 404.
	mux.HandleFunc("/", s.instrument("unmatched", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, errf(http.StatusNotFound, client.CodeNotFound,
			"no route %s %s (the API is versioned under /v1; see API.md)", r.Method, r.URL.Path))
	}))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client hangup only
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTopics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"topics": s.vocab.Names()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.mgr.Graph()
	st := graph.ComputeStats(g)
	ms := s.mgr.Stats()
	resp := client.StatsResponse{
		Nodes:          st.Nodes,
		Edges:          st.Edges,
		AvgOutDegree:   st.AvgOut,
		AvgInDegree:    st.AvgIn,
		MaxInDegree:    st.MaxIn,
		Batches:        ms.Batches,
		Refreshes:      ms.Refreshes,
		TopicRefreshes: ms.TopicRefreshes,
		Stale:          ms.StaleNow,
		Epoch:          ms.Epoch,
		OverlayDepth:   ms.OverlayDepth,
		Compactions:    ms.Compactions,
	}
	if s.pipe != nil {
		ist := s.pipe.Stats()
		resp.Ingest = &client.IngestStats{
			QueueDepth: ist.Depth, QueueCap: ist.Cap,
			Enqueued: ist.Enqueued, Applied: ist.Applied,
			Rejected: ist.Rejected, Batches: ist.Batches,
		}
	}
	subs := s.hub.Stats()
	resp.Subscriptions = &subs
	writeJSON(w, http.StatusOK, resp)
}

// requestCtx applies the configured per-request deadline.
func (s *Server) requestCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(ctx, s.reqTimeout)
	}
	return ctx, func() {}
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	req, herr := recommendRequestFromQuery(r.URL.Query())
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	key, herr := s.validateRecommend(req)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	ctx, cancel := s.requestCtx(r.Context())
	defer cancel()
	resp, herr := s.serveRecommend(ctx, key)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	w.Header().Set("X-Cache", resp.Cache)
	writeJSON(w, http.StatusOK, resp)
}

// handleRecommendBatch accepts a JSON array of client.RecommendRequest and
// answers each through the same validated, coalesced, admission-gated
// path as the single endpoint — duplicate items within one batch (or
// across concurrent batches) share one computation via the coalescer and
// the result cache.
func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []client.RecommendRequest
	if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
		s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "bad JSON: %v", err))
		return
	}
	if len(reqs) == 0 {
		s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "empty batch"))
		return
	}
	if len(reqs) > maxBatchSize {
		s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest,
			"batch of %d exceeds the %d-item limit", len(reqs), maxBatchSize))
		return
	}
	ctx, cancel := s.requestCtx(r.Context())
	defer cancel()
	results := make([]client.BatchResult, len(reqs))
	for i, req := range reqs {
		key, herr := s.validateRecommend(req)
		if herr == nil {
			var resp *client.RecommendResponse
			if resp, herr = s.serveRecommend(ctx, key); herr == nil {
				results[i] = client.BatchResult{Response: resp}
				continue
			}
		}
		results[i] = client.BatchResult{Error: &client.ErrorBody{Code: herr.code, Message: herr.msg}}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// serveRecommend answers one validated HTTP query through answer and
// builds its response.
func (s *Server) serveRecommend(ctx context.Context, key cacheKey) (*client.RecommendResponse, *httpError) {
	start := time.Now()
	res, source, err := s.answer(ctx, key)
	if err != nil {
		return nil, s.computeError(key.method, err)
	}
	if res.degraded {
		// Counted here — on a successfully served degraded HTTP answer —
		// not at decision time, so requests that are subsequently shed or
		// time out, and standing-query re-scores, don't inflate the series.
		s.degradedReqs.Inc()
	}

	g := s.mgr.Graph()
	resp := &client.RecommendResponse{
		Method:   key.method,
		Topic:    s.vocab.Name(key.topic),
		Degraded: res.degraded,
		Cache:    source,
		TookUS:   time.Since(start).Microseconds(),
	}
	for _, sc := range res.scored {
		resp.Results = append(resp.Results, client.Recommendation{
			User:    uint32(sc.Node),
			Score:   sc.Score,
			Topics:  splitTopics(s.vocab, g.NodeTopics(sc.Node)),
			Follows: g.InDegree(sc.Node),
		})
	}
	return resp, nil
}

// compute runs the underlying engine for one validated query. It is the
// only path that touches the exploration engines. Local computations run
// under the admission pool: when every slot is busy and the queue is full
// the query is shed with errOverloaded before any engine work starts.
// Scattered computations are not pool-gated — they are I/O-bound waits,
// and each partition worker bounds its own compute with shard-side
// admission (the resource-constrained per-shard view), so the front end
// can keep as many gathers in flight as shards can absorb.
func (s *Server) compute(ctx context.Context, key cacheKey) (computed, error) {
	if s.router != nil && key.method == "landmark" && s.computeHook == nil {
		return s.computeSharded(ctx, key)
	}
	if err := s.pool.acquire(ctx); err != nil {
		return computed{}, err
	}
	defer s.pool.release()
	if s.computeHook != nil {
		scored, err := s.computeHook(ctx, key)
		return computed{scored: scored}, err
	}
	if key.method == "landmark" {
		scored, err := s.mgr.Recommend(key.user, key.topic, key.n)
		return computed{scored: scored}, err
	}
	t0 := time.Now()
	scored, err := s.mgr.RecommendExactCtx(ctx, key.user, key.topic, key.n)
	if err == nil {
		s.trLat.observe(time.Since(t0))
	}
	return computed{scored: scored}, err
}

// computeSharded answers one landmark query by scatter/gather. All shards
// answering means the Proposition 2 merge is the exact single-machine
// result; a partial gather is served degraded (and not cached); a cluster
// that is uniformly overloaded sheds the request like local admission
// would; any other total failure falls back to the local landmark engine,
// degraded, under the local pool.
func (s *Server) computeSharded(ctx context.Context, key cacheKey) (computed, error) {
	g := s.router.Gather(ctx, key.user, key.topic)
	if g.failed < s.router.Shards() {
		scored := distrib.Merge(g.partials, key.user, key.n)
		return computed{scored: scored, degraded: g.failed > 0}, nil
	}
	if g.overloaded == g.failed {
		return computed{}, errOverloaded
	}
	s.router.fallbacks.Inc()
	if err := s.pool.acquire(ctx); err != nil {
		return computed{}, err
	}
	defer s.pool.release()
	scored, err := s.mgr.Recommend(key.user, key.topic, key.n)
	return computed{scored: scored, degraded: true}, err
}

// computeError maps a computation failure onto the error envelope.
func (s *Server) computeError(method string, err error) *httpError {
	switch {
	case errors.Is(err, errOverloaded):
		s.shedReqs.Inc()
		return errf(http.StatusTooManyRequests, client.CodeOverloaded,
			"server overloaded, retry later")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.timeouts.Inc()
		return errf(http.StatusGatewayTimeout, client.CodeDeadline,
			"%s recommendation exceeded the %s deadline", method, s.reqTimeout)
	default:
		return errf(http.StatusInternalServerError, client.CodeInternal,
			"%s recommendation failed: %v", method, err)
	}
}

func splitTopics(v *topics.Vocabulary, s topics.Set) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(t topics.ID) { out = append(out, v.Name(t)) })
	return out
}

// refuseInRouterMode answers a write-side request with 409 read_only when
// the server routes to a shard tier and reports whether it did. The
// shards serve one fixed snapshot, so an applied write would move the
// local exact answers and never the scattered landmark ones, and a
// standing query could never see a write land.
func (s *Server) refuseInRouterMode(w http.ResponseWriter, what string) bool {
	if s.router == nil {
		return false
	}
	s.writeError(w, errf(http.StatusConflict, client.CodeReadOnly,
		"%s refused: router mode serves one fixed snapshot (redeploy the router and its shards together to change it)", what))
	return true
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if s.refuseInRouterMode(w, "updates") {
		return
	}
	var req client.UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.updatesRejected.Inc()
		s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "bad JSON: %v", err))
		return
	}
	if len(req.Updates) == 0 {
		s.updatesRejected.Inc()
		s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "empty update batch"))
		return
	}
	g := s.mgr.Graph()
	batch := make([]dynamic.Update, 0, len(req.Updates))
	for i, item := range req.Updates {
		if int(item.Src) >= g.NumNodes() || int(item.Dst) >= g.NumNodes() {
			s.updatesRejected.Inc()
			s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "update %d references unknown user", i))
			return
		}
		if item.Src == item.Dst {
			s.updatesRejected.Inc()
			s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "update %d is a self-follow", i))
			return
		}
		lbl, err := s.vocab.SetOf(item.Topics...)
		if err != nil {
			s.updatesRejected.Inc()
			s.writeError(w, errf(http.StatusBadRequest, client.CodeUnknownTopic, "update %d: %v", i, err))
			return
		}
		if lbl.IsEmpty() && !item.Remove {
			s.updatesRejected.Inc()
			s.writeError(w, errf(http.StatusBadRequest, client.CodeBadRequest, "update %d: a follow needs at least one topic", i))
			return
		}
		batch = append(batch, dynamic.Update{
			Edge: graph.Edge{Src: graph.NodeID(item.Src), Dst: graph.NodeID(item.Dst), Label: lbl},
			Add:  !item.Remove,
			At:   item.At,
		})
	}
	if s.pipe != nil {
		// Streaming path: admit into the bounded pipeline. ErrFull is the
		// backpressure contract — nothing was admitted, the client backs
		// off and retries the whole batch.
		if err := s.pipe.Enqueue(batch...); err != nil {
			if errors.Is(err, ingest.ErrFull) {
				w.Header().Set("Retry-After", "1")
				s.writeError(w, errf(http.StatusTooManyRequests, client.CodeOverloaded,
					"ingestion queue full, retry later"))
				return
			}
			s.writeError(w, errf(http.StatusInternalServerError, client.CodeInternal, "enqueuing updates: %v", err))
			return
		}
		// No cache invalidation here: the manager's batch hook
		// (onBatchEffect) invalidates when the batch actually applies —
		// invalidating at admission would only repopulate the cache with
		// pre-update results until the queue drains.
		ist := s.pipe.Stats()
		writeJSON(w, http.StatusAccepted, &client.UpdateResponse{
			Accepted:   len(batch),
			QueueDepth: ist.Depth,
			QueueCap:   ist.Cap,
		})
		return
	}
	// The batch hook fires inside Apply (cache invalidation + standing-
	// query marking), so by the time this returns, reads are already at
	// the new generation.
	refreshes, err := s.mgr.ApplyRefreshes(batch)
	if err != nil {
		s.writeError(w, errf(http.StatusInternalServerError, client.CodeInternal, "applying updates: %v", err))
		return
	}
	s.updatesApplied.Add(uint64(len(batch)))
	st := s.mgr.Stats()
	writeJSON(w, http.StatusOK, &client.UpdateResponse{
		Applied:   len(batch),
		Refreshes: refreshes,
		Stale:     st.StaleNow,
		Epoch:     st.Epoch,
	})
}
