package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/authority"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/subscribe"
	"repro/internal/topics"
)

// The probes are the traced run's look at single layers. The program has
// no spans of its own, so the benchmark calls each layer's public entry
// point with inputs drawn from the run's seed and times the call. Where a
// layer runs inside another (the handler inside the HTTP round trip, the
// manager inside the handler, ...), the same input is replayed at each
// level in turn and the inner call is recorded as a replay child of the
// outer one. Every probe runs on every workload's stack, with no other
// traffic, so the numbers say what a layer costs on that graph and
// configuration, not how it behaves under the workload's load; the
// counters reported beside them say that.

// probeChain is a benchmark-owned copy of what dynamic.NewManager builds
// and keeps private: authority table, engine, landmark store. The layers
// below the manager are probed through it.
type probeChain struct {
	auth  *authority.Table
	eng   *core.Engine
	store *landmark.Store
}

const (
	readProbeQueries  = 300
	exactProbeQueries = 10
	writeProbeBatches = 8
	writeProbeBatch   = 4
	pushProbeSubs     = 4
	pushProbeRounds   = 2
	probeWAL          = "probe.wal"
)

// probeBefore runs between the manager's construction and the server's:
// it builds the chain (the set-up's own layers, timed one by one) and
// replays sampled queries down the read path through a server of its own
// with the result cache switched off.
func probeBefore(e runEnv, s *stack) (*probeChain, error) {
	rec := s.rec
	start := time.Now()
	c := &probeChain{}
	var err error
	rec.timed("authority.compute", s.root, 0, func() { c.auth = authority.Compute(s.g) })
	rec.timed("core.new_engine", s.root, 0, func() {
		c.eng, err = core.NewEngine(s.g, c.auth, s.ds.Sim, core.DefaultParams())
	})
	if err != nil {
		return nil, err
	}
	if s.cfg.Streaming {
		// The manager's engine carries decay weights; at set-up every edge
		// has the same age, so unit weights cost the same lookups.
		c.eng = c.eng.WithEdgeWeights(graph.BuildWeights(s.g, func(_, _ graph.NodeID) float32 { return 1 }))
	}
	rec.timed("landmark.preprocess", s.root, 0, func() {
		c.store, _ = landmark.Preprocess(c.eng, s.lms, landmark.PreprocessConfig{TopN: s.cfg.StoreTopN})
	})

	if err := readProbe(e, s, c); err != nil {
		return nil, err
	}
	if err := distribProbe(e, s, c); err != nil {
		return nil, err
	}
	// Everything above happened in the middle of the set-up span but is
	// the benchmark's work, not the program's.
	rec.add("bench.probes", s.root, 0, start, time.Now(), false)
	return c, nil
}

// readProbe replays each sampled query at five levels.
func readProbe(e runEnv, s *stack, c *probeChain) error {
	rec := s.rec
	srv := server.New(s.mgr, core.DefaultParams().Beta, append(s.serverOptions(), server.WithCacheSize(0))...)
	defer srv.Close()
	handler := srv.Handler()
	ln, base, err := listen(handler, nil)
	if err != nil {
		return err
	}
	defer ln.close()
	cli := client.New(base, &http.Client{Transport: ln.tr})
	approx, err := landmark.NewApprox(c.eng, c.store, 2)
	if err != nil {
		return err
	}
	keys, err := distinctKeys(s.g, readProbeQueries, e.Seed+1)
	if err != nil {
		return err
	}
	names := s.g.Vocabulary().Names()
	ctx := context.Background()
	// Each level is called twice and the second call is timed. The levels
	// then all find the query's region of the graph in the processor's
	// caches, so an outer level is never charged for a miss that an inner
	// level, replayed after it, no longer pays. The chain's engine and
	// store are copies of the manager's, not the same memory.
	twice := func(name string, parent, req int64, fn func()) int64 {
		fn()
		if parent == 0 {
			return rec.timed(name, 0, req, fn)
		}
		return rec.replayed(name, parent, req, fn)
	}
	for i, k := range keys {
		req := int64(i + 1)
		rr := client.RecommendRequest{User: int(k.User), Topic: names[k.Topic], N: 10, Method: "landmark"}
		target := fmt.Sprintf("/v1/recommend?user=%d&topic=%s&n=10&method=landmark", k.User, names[k.Topic])
		var callErr error
		var code int
		a := twice("client.recommend", 0, req, func() { _, callErr = cli.Recommend(ctx, rr) })
		b := twice("server.handler", a, req, func() {
			hw := httptest.NewRecorder()
			handler.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, target, nil))
			code = hw.Code
		})
		if callErr != nil || code != http.StatusOK {
			return fmt.Errorf("read probe: user %d: client error %v, handler status %d", k.User, callErr, code)
		}
		cc := twice("dynamic.recommend", b, req, func() { _, callErr = s.mgr.Recommend(k.User, k.Topic, 10) })
		if callErr != nil {
			return fmt.Errorf("read probe: %w", callErr)
		}
		var res landmark.QueryResult
		d := twice("landmark.query", cc, req, func() { res = approx.Query(k.User, k.Topic, 10) })
		var x *core.Exploration
		twice("core.explore_d2", d, req, func() {
			x = c.eng.ExploreOpts(k.User, []topics.ID{k.Topic}, core.ExploreOptions{MaxDepth: 2, Stop: c.store.Contains})
		})
		rec.count("landmark.landmarks_met", float64(res.LandmarksMet))
		rec.count("core.explore_d2_reached", float64(len(x.Reached)))
	}
	exact := core.NewRecommender(c.eng)
	for i, k := range keys[:min(exactProbeQueries, len(keys))] {
		rec.timed("core.exact_tr", 0, int64(i+1), func() { exact.Recommend(k.User, k.Topic, 10) })
	}
	return nil
}

// distribProbe partitions the graph in two, answers sampled queries by
// scatter and merge in-process, and checks the merged ranking against the
// single-process one.
func distribProbe(e runEnv, s *stack, c *probeChain) error {
	rec := s.rec
	var shards [2]*distrib.Shard
	var err error
	rec.timed("distrib.partition", 0, 0, func() {
		assign := distrib.HashPartition(s.g, len(shards))
		for p := range shards {
			sub := c.store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == p })
			if shards[p], err = distrib.NewShard(c.eng, sub, assign, p, s.lms, 2); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	approx, err := landmark.NewApprox(c.eng, c.store, 2)
	if err != nil {
		return err
	}
	keys, err := distinctKeys(s.g, readProbeQueries/5, e.Seed+1)
	if err != nil {
		return err
	}
	for i, k := range keys {
		req := int64(i + 1)
		partials := make([][]distrib.PartialEntry, len(shards))
		var slowest time.Duration
		begin := time.Now()
		for p, sh := range shards {
			t0 := time.Now()
			partials[p] = sh.Partial(k.User, k.Topic)
			slowest = max(slowest, time.Since(t0))
		}
		// A real gather waits for the slower shard, not for their sum.
		rec.add("distrib.partial", 0, req, begin, begin.Add(slowest), false)
		var merged []ranking.Scored
		rec.timed("distrib.merge", 0, req, func() { merged = distrib.Merge(partials, k.User, 10) })
		want := approx.Recommend(k.User, k.Topic, 10)
		if len(merged) != len(want) {
			return fmt.Errorf("distrib probe: user %d: merged %d results, single process %d", k.User, len(merged), len(want))
		}
		for j := range want {
			if d := math.Abs(merged[j].Score - want[j].Score); d > 1e-9*math.Abs(want[j].Score) {
				return fmt.Errorf("distrib probe: user %d rank %d: merged %v, single process %v", k.User, j+1, merged[j], want[j])
			}
		}
	}
	return nil
}

// probeAfter runs once the workload's traffic and checks are done, on the
// state they left: the write path, the store, and the push path.
func probeAfter(e runEnv, s *stack, c *probeChain, r *runResult) error {
	dir, err := os.MkdirTemp(e.TmpRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best effort; the parent is removed at exit
	// The server has answered its last request. Detaching it keeps its
	// cache invalidation and its hub's re-scores out of the applies timed
	// below.
	s.mgr.SetBatchHook(nil)
	if err := writeProbe(e, s, c, dir); err != nil {
		return fmt.Errorf("write probe: %w", err)
	}
	if err := enqueueProbe(s.rec); err != nil {
		return fmt.Errorf("enqueue probe: %w", err)
	}
	if err := storeProbe(s, c, dir); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	if err := pushProbe(e, s); err != nil {
		return err
	}
	spans, counts := s.rec.snapshot()
	probeMetrics(spans, counts, len(s.lms), r.Layers)
	return nil
}

// discard is an ingest.Applier that drops what it is given.
type discard struct{}

func (discard) Apply([]dynamic.Update) error { return nil }

// writeProbe applies a few small batches to the live manager and replays
// each on the chain, one step of Manager.Apply at a time, logging them to
// a WAL of its own in dir.
func writeProbe(e runEnv, s *stack, c *probeChain, dir string) error {
	rec := s.rec
	stream, err := churnStream(s.mgr.Graph(), writeProbeBatches*writeProbeBatch, e.Seed+2, nil)
	if err != nil {
		return err
	}
	vocab := s.g.Vocabulary()
	wal, _, err := store.OpenWAL(filepath.Join(dir, probeWAL), store.SyncAlways)
	if err != nil {
		return err
	}
	defer wal.Close() //nolint:errcheck // the directory is removed by the caller
	var view graph.View = s.g
	eng := c.eng
	var last *graph.Overlay
	updates := 0
	for b := 0; b < writeProbeBatches; b++ {
		var batch []dynamic.Update
		var adds, removes []graph.Edge
		var dsts []graph.NodeID
		for _, it := range stream.Items[b*writeProbeBatch : (b+1)*writeProbeBatch] {
			lbl, err := vocab.SetOf(it.Topics...)
			if err != nil {
				return err
			}
			edge := graph.Edge{Src: graph.NodeID(it.Src), Dst: graph.NodeID(it.Dst), Label: lbl}
			batch = append(batch, dynamic.Update{Edge: edge, Add: !it.Remove, At: time.Now().UnixNano()})
			if it.Remove {
				removes = append(removes, edge)
			} else {
				adds = append(adds, edge)
			}
			dsts = append(dsts, edge.Dst)
		}
		updates += len(batch)
		req := int64(b + 1)
		var applyErr error
		ap := rec.timed("dynamic.apply", 0, req, func() { applyErr = s.mgr.Apply(batch) })
		if applyErr != nil {
			return applyErr
		}
		rec.replayed("graph.new_overlay", ap, req, func() { last, err = graph.NewOverlay(view, adds, removes) })
		if err != nil {
			return err
		}
		rec.replayed("store.wal_append", ap, req, func() { err = wal.Append(dynamic.DeltasFromUpdates(batch)) })
		if err != nil {
			return err
		}
		rec.replayed("authority.apply_delta", ap, req, func() { c.auth.ApplyDelta(last, dsts) })
		rec.replayed("core.derive", ap, req, func() { eng, err = eng.Derive(last, c.auth) })
		if err != nil {
			return err
		}
		view = last
	}
	rec.count("store.wal_bytes_per_update", float64(wal.AppendedBytes())/float64(updates))
	rec.timed("graph.compact", 0, 0, func() { last.Compact() })
	for i, lm := range s.lms[:min(3, len(s.lms))] {
		rec.timed("landmark.refresh", 0, int64(i+1), func() {
			landmark.Preprocess(eng, []graph.NodeID{lm}, landmark.PreprocessConfig{TopN: s.cfg.StoreTopN})
		})
	}
	return nil
}

// enqueueProbe times admission into an ingest pipeline whose consumer
// drops what it is given.
func enqueueProbe(rec *recorder) error {
	pipe := ingest.New(discard{}, ingest.Config{QueueCap: 4096})
	one := dynamic.Update{Edge: graph.Edge{Src: 0, Dst: 1, Label: topics.NewSet(0)}, Add: true}
	var err error
	for i := 0; i < 256 && err == nil; i++ {
		rec.timed("ingest.enqueue", 0, int64(i+1), func() { err = pipe.Enqueue(one) })
	}
	if cerr := pipe.Close(); err == nil {
		err = cerr
	}
	return err
}

// storeProbe writes the files of a compaction, then boots a manager from
// them the way trserver recovers, replaying the write probe's log.
func storeProbe(s *stack, c *probeChain, dir string) error {
	rec := s.rec
	var err error
	snapPath, lmkPath := filepath.Join(dir, "probe.trg2"), filepath.Join(dir, "probe.lmk3")
	rec.timed("store.snapshot_write", 0, 0, func() { _, err = store.WriteSnapshotFile(snapPath, s.g, nil) })
	if err != nil {
		return err
	}
	rec.timed("store.landmarks_write", 0, 0, func() { _, err = store.WriteLandmarksFile(lmkPath, c.store) })
	if err != nil {
		return err
	}
	var replayed int
	boot := rec.reserve()
	bootStart := time.Now()
	var snap *store.Snapshot
	rec.timed("store.snapshot_open", boot, 0, func() { snap, err = store.OpenSnapshot(snapPath, store.OpenOptions{}) })
	if err != nil {
		return err
	}
	defer snap.Close() //nolint:errcheck // read-only mapping
	var lms *store.Landmarks
	rec.timed("store.landmarks_open", boot, 0, func() { lms, err = store.OpenLandmarks(lmkPath, store.OpenOptions{}) })
	if err != nil {
		return err
	}
	defer lms.Close() //nolint:errcheck // read-only mapping
	wal, tail, err := store.OpenWAL(filepath.Join(dir, probeWAL), store.SyncOS)
	if err != nil {
		return err
	}
	defer wal.Close() //nolint:errcheck // opened for reading
	mcfg := s.managerConfig()
	mcfg.InitialStore = lms.Store()
	booted, err := dynamic.NewManager(snap.Graph(), s.lms, mcfg)
	if err != nil {
		return err
	}
	if replayed, err = booted.Replay(tail); err != nil {
		return err
	}
	rec.addAs(boot, "store.recovery_boot", 0, 0, bootStart, time.Now(), false)
	rec.count("store.wal_replay_batches", float64(replayed))
	return nil
}

// pushProbe puts a hub of its own on the live manager, with timing
// wrappers around the two callbacks the hub calls out through, and feeds
// it batches that touch its subscribers. It takes over the manager's
// batch hook, so it runs last.
func pushProbe(e runEnv, s *stack) error {
	rec := s.rec
	var mu sync.Mutex
	var batchAt time.Time                     // when the hook last fired
	var batchReq int64                        // the round that fired it
	var firstCompute bool                     // no Compute has started since
	computed := map[subscribe.Key]time.Time{} // when each key's last Compute ended

	hub := subscribe.New(subscribe.Config{
		Compute: func(_ context.Context, k subscribe.Key) (subscribe.Result, error) {
			start := time.Now()
			mu.Lock()
			if firstCompute {
				firstCompute = false
				rec.add("subscribe.batch_to_compute", 0, batchReq, batchAt, start, false)
			}
			req := batchReq
			mu.Unlock()
			scored, err := s.mgr.Recommend(k.User, k.Topic, k.N)
			end := time.Now()
			rec.add("subscribe.compute", 0, req, start, end, false)
			mu.Lock()
			computed[k] = end
			mu.Unlock()
			return subscribe.Result{Scored: scored}, err
		},
		Neighborhood: func(k subscribe.Key) []graph.NodeID {
			var out []graph.NodeID
			rec.timed("subscribe.neighborhood", 0, 0, func() { out = s.mgr.Neighborhood(k.User, false) })
			return out
		},
	})
	defer hub.Close()
	s.mgr.SetBatchHook(func(fx dynamic.BatchEffect) {
		mu.Lock()
		batchAt, firstCompute = time.Now(), true
		mu.Unlock()
		hub.OnBatch(fx)
	})
	defer s.mgr.SetBatchHook(nil)

	keys, err := distinctUsers(s.g, pushProbeSubs, e.Seed+3)
	if err != nil {
		return err
	}
	// One reader per subscription, blocked on the hub's notify channel the
	// way the SSE handler is.
	var readers sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		readers.Wait()
	}()
	for i, k := range keys {
		key := subscribe.Key{User: k.User, Topic: k.Topic, N: 10, Method: "landmark"}
		var id string
		rec.timed("subscribe.register", 0, int64(i+1), func() { id, err = hub.Register(key) })
		if err != nil {
			return err
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			var after uint64
			for {
				evs, notify, err := hub.EventsSince(id, after, true)
				if err != nil {
					return
				}
				now := time.Now()
				for _, ev := range evs {
					after = ev.Seq
					mu.Lock()
					end, ok := computed[key]
					mu.Unlock()
					if ok && !ev.Reset {
						rec.add("subscribe.compute_to_event", 0, 0, end, now, false)
					}
				}
				select {
				case <-notify:
				case <-stop:
					return
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := hub.Flush(ctx); err != nil {
		return err
	}

	// Each round follows (odd rounds: unfollows) one fresh account per
	// subscriber, four subscribers per batch.
	view := s.mgr.Graph()
	r := rng(e.Seed+3, streamTargets)
	target := make([]graph.NodeID, len(keys))
	for i, k := range keys {
		for {
			v := graph.NodeID(r.IntN(view.NumNodes()))
			if v != k.User && !view.HasEdge(k.User, v) {
				target[i] = v
				break
			}
		}
	}
	for round := 0; round < pushProbeRounds; round++ {
		var batch []dynamic.Update
		for j := 0; j < writeProbeBatch; j++ {
			i := (round/2*writeProbeBatch + j) % len(keys)
			batch = append(batch, dynamic.Update{
				Edge: graph.Edge{Src: keys[i].User, Dst: target[i], Label: topics.NewSet(keys[i].Topic)},
				Add:  round%2 == 0, At: time.Now().UnixNano(),
			})
		}
		mu.Lock()
		batchReq = int64(round + 1)
		mu.Unlock()
		if err := s.mgr.Apply(batch); err != nil {
			return err
		}
		if err := hub.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// readPath names the levels of the read-path probe, outermost first, with
// the metric that reports what a level spends outside the next one.
var readPath = []struct{ span, self string }{
	{"client.recommend", "client.http_self_us"},
	{"server.handler", "server.self_us"},
	{"dynamic.recommend", "dynamic.self_us"},
	{"landmark.query", "landmark.fold_self_us"},
	{"core.explore_d2", ""},
}

// readPathMetrics reports every level of the read path as a mean over the
// same sampled queries, the slowest tenth by round-trip time left out.
// Means over one set of queries add up where medians do not, so the four
// self times and the exploration sum to client.recommend_us exactly; the
// trimming keeps a collection pause or a descheduled thread from deciding
// the mean.
func readPathMetrics(spans []span, out metricSet) {
	level := make(map[string]int, len(readPath))
	for i, l := range readPath {
		level[l.span] = i
	}
	rows := make(map[int64][]float64) // request id -> duration per level, ns
	for _, s := range spans {
		if i, ok := level[s.Name]; ok {
			if rows[s.Req] == nil {
				rows[s.Req] = make([]float64, len(readPath))
			}
			rows[s.Req][i] = float64(s.dur())
		}
	}
	var outer []float64
	for _, row := range rows {
		outer = append(outer, row[0])
	}
	cut := percentile(sorted(outer), 90)
	mean := make([]float64, len(readPath))
	kept := 0
	for _, row := range rows {
		if row[0] > cut {
			continue
		}
		kept++
		for i, d := range row {
			mean[i] += d
		}
	}
	for i, l := range readPath {
		mean[i] /= float64(max(kept, 1))
		out.setN(l.span+"_us", mean[i]/1e3, "us", kept)
		if i > 0 {
			out.setN(readPath[i-1].self, (mean[i-1]-mean[i])/1e3, "us", kept)
		}
	}
}

// probeMetrics turns the spans into the per-layer numbers: the median
// duration of each span name (the read path excepted, see above), self
// times where a span has children, and the medians of the counts noted
// along the way.
func probeMetrics(spans []span, counts map[string][]float64, landmarks int, out metricSet) {
	dur, self := layerTimes(spans)
	med := func(m map[string][]float64, name string) float64 { return median(m[name]) }
	us := func(metric, spanName string) { out.setN(metric, med(dur, spanName)/1e3, "us", len(dur[spanName])) }
	ms := func(metric, spanName string) { out.setN(metric, med(dur, spanName)/1e6, "ms", len(dur[spanName])) }

	for _, name := range []string{"gen.twitter", "authority.compute", "core.new_engine", "landmark.select",
		"landmark.preprocess", "dynamic.new_manager", "server.listen"} {
		ms(name+"_ms", name)
	}
	out.set("landmark.preprocess_per_landmark_ms", med(dur, "landmark.preprocess")/1e6/float64(landmarks), "ms")

	readPathMetrics(spans, out)
	ms("core.exact_tr_ms", "core.exact_tr")
	ms("distrib.partition_ms", "distrib.partition")
	us("distrib.partial_us", "distrib.partial")
	us("distrib.merge_us", "distrib.merge")

	us("ingest.enqueue_us", "ingest.enqueue")
	ms("dynamic.apply_ms", "dynamic.apply")
	out.set("dynamic.apply_us_per_update", med(dur, "dynamic.apply")/1e3/writeProbeBatch, "us")
	us("store.wal_append_us", "store.wal_append")
	us("graph.new_overlay_us", "graph.new_overlay")
	us("authority.apply_delta_us", "authority.apply_delta")
	us("core.derive_us", "core.derive")
	out.set("dynamic.apply_self_us", med(self, "dynamic.apply")/1e3, "us")
	ms("graph.compact_ms", "graph.compact")
	ms("landmark.refresh_ms", "landmark.refresh")
	ms("store.snapshot_write_ms", "store.snapshot_write")
	ms("store.landmarks_write_ms", "store.landmarks_write")
	us("store.snapshot_open_us", "store.snapshot_open")
	us("store.landmarks_open_us", "store.landmarks_open")
	ms("store.recovery_boot_ms", "store.recovery_boot")

	us("subscribe.register_us", "subscribe.register")
	ms("subscribe.batch_to_compute_ms", "subscribe.batch_to_compute")
	ms("subscribe.compute_ms", "subscribe.compute")
	us("subscribe.neighborhood_us", "subscribe.neighborhood")
	ms("subscribe.compute_to_event_ms", "subscribe.compute_to_event")

	for _, name := range []string{"landmark.landmarks_met", "core.explore_d2_reached",
		"store.wal_bytes_per_update", "store.wal_replay_batches"} {
		out.setN(name, median(counts[name]), "count", len(counts[name]))
	}
}
