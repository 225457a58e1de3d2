// shardserve.go is the partition worker's HTTP surface: a minimal
// internal RPC that turns a Shard into a process. The worker owns its own
// admission control — the resource-constrained view of arXiv 1801.02198
// applied at the shard boundary: each worker bounds the exploration work
// it will run concurrently (MaxInflight) and how much it will queue
// (MaxQueue), shedding with 429 beyond that, so one overloaded partition
// degrades only its own partials instead of stalling the whole gather.
package distrib

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ShardServerConfig tunes one worker process.
type ShardServerConfig struct {
	// MaxInflight bounds concurrently computed partials (default 1: the
	// exploration already saturates one core's memory bandwidth).
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot before 429 (default 32;
	// deep relative to the router's per-shard timeout so transient bursts
	// queue instead of shedding).
	MaxQueue int
	// Metrics receives worker-side series; nil disables.
	Metrics *metrics.Registry
}

// ShardServer serves one partition worker's RPC:
//
//	POST /shard/v1/partial — JSON PartialRequest in, binary frame out
//	GET  /shard/v1/health  — liveness + identity
//	GET  /shard/v1/stats   — counters for operators and the bench
type ShardServer struct {
	shard *Shard
	part  int
	parts int
	slots chan struct{} // inflight tokens
	queue chan struct{} // waiting tokens (inflight + queued)
	mux   *http.ServeMux

	served    atomic.Uint64
	shed      atomic.Uint64
	partialNs *metrics.Histogram // detached when Metrics is nil

	// bufPool recycles partial output slices across requests: a partial's
	// candidate union is large and near-constant in size, so per-request
	// allocation would be the worker's dominant garbage source.
	bufPool sync.Pool
}

// NewShardServer wraps a Shard in its RPC surface.
func NewShardServer(shard *Shard, part, parts int, cfg ShardServerConfig) *ShardServer {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 32
	}
	s := &ShardServer{
		shard: shard,
		part:  part,
		parts: parts,
		slots: make(chan struct{}, cfg.MaxInflight),
		queue: make(chan struct{}, cfg.MaxInflight+cfg.MaxQueue),
		partialNs: cfg.Metrics.Histogram("shard_worker_partial_seconds",
			"Time computing one partial on this worker.", nil),
	}
	cfg.Metrics.CounterFunc("shard_worker_shed_total",
		"Partial requests shed by worker admission control.", s.shed.Load)
	cfg.Metrics.GaugeFunc("shard_worker_queue_depth",
		"Partial requests admitted and not yet finished.",
		func() float64 { return float64(len(s.queue)) })
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/v1/partial", s.handlePartial)
	mux.HandleFunc("/shard/v1/health", s.handleHealth)
	mux.HandleFunc("/shard/v1/stats", s.handleStats)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *ShardServer) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req PartialRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	g := s.shard.Eng.Graph()
	if int(req.User) < 0 || int(req.User) >= g.NumNodes() {
		http.Error(w, "unknown user", http.StatusBadRequest)
		return
	}
	if int(req.Topic) < 0 || int(req.Topic) >= g.Vocabulary().Len() {
		http.Error(w, "unknown topic", http.StatusBadRequest)
		return
	}

	// Admission: enter the bounded queue or shed immediately, then wait
	// (bounded by the client's context — the router's per-shard timeout
	// cancels r.Context()) for an inflight slot.
	select {
	case s.queue <- struct{}{}:
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shard overloaded", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.queue }()
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		http.Error(w, "client gone", http.StatusRequestTimeout)
		return
	}

	start := time.Now()
	var scratch []PartialEntry
	if b, ok := s.bufPool.Get().([]PartialEntry); ok {
		scratch = b
	}
	entries := s.shard.PartialAppend(req.User, req.Topic, scratch)
	<-s.slots // release before encoding: the slot guards compute, not I/O
	s.partialNs.Observe(time.Since(start).Seconds())
	s.served.Add(1)

	buf := EncodePartial(&PartialResponse{
		Shard:   s.part,
		Parts:   s.parts,
		Entries: entries,
	})
	s.bufPool.Put(entries[:0]) //nolint:staticcheck // slice header boxing is fine here
	w.Header().Set("Content-Type", PartialContentType)
	w.Header().Set("Content-Length", fmt.Sprint(len(buf)))
	w.Write(buf) //nolint:errcheck // client gone is the client's problem
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"status": "ok",
		"shard":  s.part,
		"parts":  s.parts,
	})
}

func (s *ShardServer) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"shard":     s.part,
		"parts":     s.parts,
		"landmarks": s.shard.Store.Len(),
		"depth":     s.shard.Depth,
		"served":    s.served.Load(),
		"shed":      s.shed.Load(),
	})
}
