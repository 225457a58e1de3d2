package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/graph"
)

// runEnv is what one run of one workload is given.
type runEnv struct {
	Seed    uint64
	Seconds float64   // length of the timed phases together
	Rec     *recorder // nil: tracing off
	Setups  int       // set-ups performed; setup_s is their median
	Tiny    bool      // smoke test: 300-node graph instead of the sized one
	TmpRoot string    // parent of the stacks' temp directories
}

func (e runEnv) dur(share float64) time.Duration {
	return time.Duration(e.Seconds * share * float64(time.Second))
}

// warmup is the discarded phase that lets connections, pools and lazy
// initialisation settle: 2 s, less on short runs.
func (e runEnv) warmup() time.Duration { return min(2*time.Second, e.dur(0.1)) }

// workload is one traffic mix against one server configuration.
type workload struct {
	Name  string
	Why   string
	Stack stackConfig
	// Limit is the latency limit within_limit_share is counted against.
	Limit time.Duration
	// traffic runs warm-up, timed phases and correctness checks against a
	// freshly set-up stack, filling r and t.
	traffic func(e runEnv, s *stack, r *runResult, t *tally) error
}

var workloads = []workload{queryCold, ingestOnly, mixedRW, subscribePush}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the stack up (e.Setups times, keeping the last), drives the
// workload's traffic through it, and tears it down.
func (w workload) run(e runEnv) (*runResult, error) {
	cfg := w.Stack
	if e.Tiny {
		cfg.Graph, cfg.Landmarks, cfg.StoreTopN = "tiny", 8, 50
	}
	// The discarded set-ups are closed, and dropped, before the next
	// begins: a stack still referenced would count into heap_live_mb.
	var setups []float64
	for i := 1; i < e.Setups; i++ {
		s, _, err := w.setUp(e, cfg, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	s, chain, err := w.setUp(e, cfg, e.Rec)
	if err != nil {
		return nil, err
	}
	defer s.close() //nolint:errcheck // idempotent; the success path below checks its error first
	setups = append(setups, s.setup.Seconds())

	r := &runResult{Workload: w.Name, Why: w.Why, LimitMs: msOf(w.Limit.Nanoseconds()),
		Seed: e.Seed, Traced: e.Rec != nil, Graph: s.shape(),
		EndToEnd: metricSet{}, Named: metricSet{}, Layers: metricSet{}}
	t := &tally{}
	r.EndToEnd.setN(mSetup, median(setups), "s", len(setups))
	proc, ctr := readProc(), readCounters(s.reg)
	if err := w.traffic(e, s, r, t); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	proc.since(r.Layers)
	ctr.serverShares(r.Layers)
	if err := liveLayerCounts(s, r.Layers); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	driverMetrics(r.Phases, r.Layers, t)
	r.EndToEnd.set(mHeap, heapLiveMB(), "MB")
	if chain != nil {
		if err := probeAfter(e, s, chain, r); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.Name, err)
		}
	}
	if err := s.close(); err != nil {
		t.flaw("ingest pipeline died: %v", err)
	}
	t.into(r)
	return r, nil
}

// setUp performs the program's set-up once. With a recorder it also runs
// the probes that need the manager before a server is attached to it.
func (w workload) setUp(e runEnv, cfg stackConfig, rec *recorder) (_ *stack, _ *probeChain, err error) {
	dir := ""
	if cfg.Streaming {
		if dir, err = os.MkdirTemp(e.TmpRoot, w.Name+"-"); err != nil {
			return nil, nil, err
		}
	}
	s, err := newStack(cfg, rec, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	var chain *probeChain
	if rec != nil {
		// The read-path probe needs a server of its own on this manager,
		// and the manager serves one server at a time.
		if chain, err = probeBefore(e, s); err != nil {
			s.close() //nolint:errcheck // the probe's error is the one to report
			return nil, nil, fmt.Errorf("%s: probes: %w", w.Name, err)
		}
	}
	if err := s.serve(); err != nil {
		s.close() //nolint:errcheck // the set-up error is the one to report
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	return s, chain, nil
}

// Kinds of recommendation request.
const (
	kindLandmark uint8 = iota
	kindTr
	kindTrDegraded
)

// reader issues recommendation requests and checks every answer's shape.
type reader struct {
	s     *stack
	t     *tally
	rec   *recorder
	topN  int
	names []string // topic names by id
}

func newReader(e runEnv, s *stack, t *tally) *reader {
	return &reader{s: s, t: t, rec: e.Rec, topN: 10, names: s.g.Vocabulary().Names()}
}

// get performs one GET /v1/recommend. It returns the decoded response, or
// nil after counting a failure.
func (rd *reader) get(k readKey, method string, req int64) *client.RecommendResponse {
	ctx := context.Background()
	id := rd.rec.reserve()
	if rd.rec != nil {
		ctx = context.WithValue(ctx, spanKey{}, spanRef{span: id, req: req})
	}
	start := time.Now()
	resp, err := rd.s.cli.Recommend(ctx, client.RecommendRequest{
		User: int(k.User), Topic: rd.names[k.Topic], N: rd.topN, Method: method})
	rd.rec.addAs(id, "traffic.recommend", 0, req, start, time.Now(), false)
	if err != nil {
		rd.t.fail("GET recommend user=%d method=%s: %v", k.User, method, err)
		return nil
	}
	if flaw := shapeFlaw(resp.Results, k.User, rd.topN); flaw != "" {
		rd.t.fail("GET recommend user=%d method=%s: %s", k.User, method, flaw)
		return nil
	}
	rd.t.ok()
	return resp
}

// shapeFlaw checks what every ranking must satisfy whatever the graph: at
// most n results, scores not increasing, the asking user absent.
func shapeFlaw(results []client.Recommendation, user graph.NodeID, n int) string {
	if len(results) > n {
		return fmt.Sprintf("%d results for n=%d", len(results), n)
	}
	for i, rec := range results {
		if graph.NodeID(rec.User) == user {
			return "the querying user is recommended to themselves"
		}
		if i > 0 && rec.Score > results[i-1].Score {
			return fmt.Sprintf("scores rise at rank %d", i+1)
		}
	}
	return ""
}

// latencies returns, in ms from due time, the latencies of the successful
// samples keep selects, and how many of them stayed within limit.
func latencies(samples []opSample, keep func(opSample) bool, limit time.Duration) (ms []float64, within int) {
	for _, s := range samples {
		if !keep(s) || s.Sent < 0 || !s.OK {
			continue
		}
		ms = append(ms, msOf(s.latency()))
		if s.latency() <= limit.Nanoseconds() {
			within++
		}
	}
	return ms, within
}

// windowedRate is the median number of successful completions per window,
// per second. Against the plain mean it shrugs off a window in which the
// machine, not the program, was slow.
func windowedRate(samples []opSample, total, window time.Duration) float64 {
	counts := make([]float64, int(total/window))
	if len(counts) < 3 {
		return float64(okCount(samples)) / total.Seconds() // too short for a median to mean much
	}
	for _, s := range samples {
		if i := int(s.Done / window.Nanoseconds()); s.OK && i < len(counts) {
			counts[i]++
		}
	}
	return median(counts) / window.Seconds()
}

func okCount(samples []opSample) int {
	n := 0
	for _, s := range samples {
		if s.OK {
			n++
		}
	}
	return n
}
