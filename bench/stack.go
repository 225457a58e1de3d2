package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

// datasetSeed is trserver's default -seed: the served data set is part of
// the program's configuration, so it stays the same whatever -seed the
// benchmark draws its traffic from.
const datasetSeed = 1

// stackConfig names one server configuration the workloads run against.
type stackConfig struct {
	Graph     string // "g8k", "g2k", or "tiny" for the smoke test
	Landmarks int
	StoreTopN int
	// Streaming selects the README streaming quickstart: ingest queue
	// 4096, 24h half-life with decay sidecar, priority refresh scheduler
	// with budget 4, snapshot + landmark store + WAL with fsync per batch.
	// Off is trserver with no flags at all.
	Streaming bool
}

var (
	g8k = stackConfig{Graph: "g8k", Landmarks: 30, StoreTopN: 500}
	g2k = stackConfig{Graph: "g2k", Landmarks: 30, StoreTopN: 500}
)

func (c stackConfig) streaming() stackConfig { c.Streaming = true; return c }

// dataset generates the graph the way trserver does.
func (c stackConfig) dataset() (*gen.Dataset, error) {
	switch c.Graph {
	case "tiny":
		return gen.RandomWith(300, 3000, datasetSeed), nil
	case "g2k", "g8k":
		cfg := gen.DefaultTwitterConfig()
		cfg.Nodes = map[string]int{"g2k": 2000, "g8k": 8000}[c.Graph]
		cfg.Seed = datasetSeed
		return gen.Twitter(cfg)
	}
	return nil, fmt.Errorf("unknown graph %q", c.Graph)
}

// applier is the ingest pipeline's way into the manager, with a span
// around every batch when the run is traced. Only the pipeline's one
// consumer calls it.
type applier struct {
	mgr *dynamic.Manager
	rec *recorder
	n   int64
}

func (a *applier) Apply(batch []dynamic.Update) error {
	a.n++
	start := time.Now()
	err := a.mgr.Apply(batch)
	a.rec.add("traffic.apply", 0, a.n, start, time.Now(), false)
	return err
}

// stack is one in-process server behind a real TCP listener, wired the
// way cmd/trserver wires it.
type stack struct {
	cfg   stackConfig
	ds    *gen.Dataset
	g     *graph.Graph
	lms   []graph.NodeID
	reg   *metrics.Registry
	mgr   *dynamic.Manager
	wal   *store.WAL
	pipe  *ingest.Pipeline
	srv   *server.Server
	http  *listener
	cli   *client.Client
	dir   string        // snapshot/WAL/sidecar files (streaming only)
	setup time.Duration // newStack + serve, without what ran between them

	rec   *recorder
	root  int64 // the set-up span
	begin time.Time
}

func (s *stack) paths() (snap, lmk, wal, decay string) {
	return filepath.Join(s.dir, "graph.trg2"), filepath.Join(s.dir, "lmk.lmk3"),
		filepath.Join(s.dir, "edges.wal"), filepath.Join(s.dir, "decay.trdk")
}

// spanKey carries the client span id and request id of an outgoing call,
// so the traced run can tie the handler's span to the caller's.
type spanKey struct{}

type spanRef struct{ span, req int64 }

// spanTransport stamps the ids on the request as headers.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set("X-Bench-Span", strconv.FormatInt(ref.span, 10))
		r.Header.Set("X-Bench-Req", strconv.FormatInt(ref.req, 10))
	}
	return t.base.RoundTrip(r)
}

// spanHandler records one server.handler span per stamped request.
func spanHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64) //nolint:errcheck // 0 when absent
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add("traffic.handler", parent, req, start, time.Now(), false)
	})
}

// newStack performs the first part of the program's set-up: generate the
// graph, select landmarks, open the durable files and build the manager
// (authority, engine, landmark preprocessing). serve does the rest. rec
// may be nil. dir receives the durable files of a streaming stack.
func newStack(cfg stackConfig, rec *recorder, dir string) (_ *stack, err error) {
	s := &stack{cfg: cfg, dir: dir, reg: metrics.NewRegistry(), rec: rec, root: rec.reserve(), begin: time.Now()}
	defer func() {
		if err != nil {
			s.close() //nolint:errcheck // the set-up error is the one to report
		}
	}()
	rec.timed("gen.twitter", s.root, 0, func() { s.ds, err = cfg.dataset() })
	if err != nil {
		return nil, err
	}
	s.g = s.ds.Graph
	rec.timed("landmark.select", s.root, 0, func() {
		s.lms, err = landmark.Select(s.g, landmark.InDeg, cfg.Landmarks, landmark.DefaultSelectConfig())
	})
	if err != nil {
		return nil, err
	}

	mcfg := s.managerConfig()
	mcfg.Metrics = s.reg
	if cfg.Streaming {
		snap, lmk, walPath, decay := s.paths()
		rec.timed("store.initial_snapshot", s.root, 0, func() { _, err = store.WriteSnapshotFile(snap, s.g, nil) })
		if err != nil {
			return nil, fmt.Errorf("initial snapshot: %w", err)
		}
		var recovered [][]store.EdgeDelta
		s.wal, recovered, err = store.OpenWAL(walPath, store.SyncAlways)
		if err != nil {
			return nil, err
		}
		if len(recovered) != 0 {
			return nil, errors.New("fresh WAL is not empty")
		}
		mcfg.WAL, mcfg.SnapshotPath, mcfg.LandmarkPath, mcfg.DecayPath = s.wal, snap, lmk, decay
	}
	rec.timed("dynamic.new_manager", s.root, 0, func() { s.mgr, err = dynamic.NewManager(s.g, s.lms, mcfg) })
	if err != nil {
		return nil, err
	}
	s.setup = time.Since(s.begin)
	return s, nil
}

// managerConfig is the manager configuration of the stack without its
// durable files and metrics: what trserver passes with no flags, plus,
// on a streaming stack, the half-life and the priority scheduler.
func (s *stack) managerConfig() dynamic.Config {
	cfg := dynamic.Config{
		Params: core.DefaultParams(), Sim: s.ds.Sim, StoreTopN: s.cfg.StoreTopN,
		QueryDepth: 2, Strategy: dynamic.Lazy, RefreshBudget: 4,
	}
	if s.cfg.Streaming {
		cfg.HalfLife, cfg.Scheduler = 24*time.Hour, dynamic.SchedPriority
	}
	return cfg
}

// serverOptions are the options cmd/trserver passes with no flags given,
// plus the ingest pipeline of a streaming stack.
func (s *stack) serverOptions() []server.Option {
	opts := []server.Option{
		server.WithMetrics(s.reg), server.WithRequestTimeout(server.DefaultRequestTimeout),
		server.WithAdmission(server.DefaultAdmissionConfig()), server.WithDegradeBudget(server.DefaultDegradeBudget),
		server.WithSubscriptions(server.SubscriptionConfig{}), server.WithLegacyRoutes(false),
	}
	if s.pipe != nil {
		opts = append(opts, server.WithIngest(s.pipe))
	}
	return opts
}

// serve finishes the set-up: the ingest pipeline, the server, and a
// listener that answers.
func (s *stack) serve() error {
	start := time.Now()
	if s.cfg.Streaming {
		s.pipe = ingest.New(&applier{mgr: s.mgr, rec: s.rec}, ingest.Config{QueueCap: 4096, MaxBatch: 256, Metrics: s.reg})
	}
	s.srv = server.New(s.mgr, core.DefaultParams().Beta, s.serverOptions()...)
	var base string
	var err error
	if s.http, base, err = listen(s.srv.Handler(), s.rec); err != nil {
		return err
	}
	s.cli = client.New(base, &http.Client{Transport: spanTransport{s.http.tr}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.cli.Health(ctx); err != nil {
		return err
	}
	now := time.Now()
	s.rec.add("server.listen", s.root, 0, start, now, false)
	s.rec.addAs(s.root, "setup", 0, 0, s.begin, now, false)
	s.setup += now.Sub(start)
	return nil
}

// listener is an HTTP server on a loopback port together with the
// transport its clients share.
type listener struct {
	srv  *http.Server
	done chan struct{} // closed when Serve returned
	tr   *http.Transport
}

// listen serves h on 127.0.0.1:0. With a recorder, stamped requests leave
// server.handler spans.
func listen(h http.Handler, rec *recorder) (*listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	if rec != nil {
		h = spanHandler(rec, h)
	}
	l := &listener{srv: &http.Server{Handler: h}, done: make(chan struct{}), tr: &http.Transport{MaxIdleConnsPerHost: 8}}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close()
	}()
	return l, "http://" + ln.Addr().String(), nil
}

// close stops the server, drops its connections and waits for Serve.
func (l *listener) close() {
	l.srv.Close() //nolint:errcheck // closing listeners cannot fail usefully
	<-l.done
	l.tr.CloseIdleConnections()
}

// close stops everything newStack and serve started and waits for it. It
// is safe on a partly built stack and on a closed one, and returns the
// pipeline's poison cause, if any.
func (s *stack) close() error {
	var err error
	if s.http != nil {
		s.http.close()
		s.http = nil
	}
	if s.pipe != nil {
		err = s.pipe.Close()
		s.pipe = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.wal != nil {
		s.wal.Close() //nolint:errcheck // the directory is removed next
		s.wal = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir) //nolint:errcheck // best effort; the parent is removed at exit
	}
	return err
}

// shape describes the served graph for the result stamp.
type graphShape struct {
	Name      string `json:"name"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Landmarks int    `json:"landmarks"`
	StoreTopN int    `json:"store_topn"`
	Streaming bool   `json:"streaming"`
}

func (s *stack) shape() graphShape {
	return graphShape{Name: s.cfg.Graph, Nodes: s.g.NumNodes(), Edges: s.g.NumEdges(),
		Landmarks: len(s.lms), StoreTopN: s.cfg.StoreTopN, Streaming: s.cfg.Streaming}
}
