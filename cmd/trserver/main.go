// Command trserver runs the recommendation system as an HTTP/JSON
// service over a generated (or loaded) dataset.
//
//	trserver -nodes 8000 -landmarks 30 -addr :8080
//	curl 'localhost:8080/v1/recommend?user=42&topic=technology&n=5'
//	curl 'localhost:8080/v1/recommend?user=42&topic=technology&method=tr'
//	curl -X POST localhost:8080/v1/update -d '{"updates":[{"src":1,"dst":2,"topics":["technology"]}]}'
//
// With the durable storage tier enabled, restarts are cold-start
// recoveries instead of regenerations:
//
//	trserver -snapshot data/graph.trg2 -landmark-store data/lmk.lmk3 \
//	         -wal data/edges.wal -wal-sync always
//
// The first boot generates (or -loads) the dataset and publishes the
// initial TRG2 snapshot; later boots mmap it zero-copy, adopt the
// persisted landmark store and replay the WAL tail, serving the exact
// pre-crash rankings in milliseconds of graph-load time.
//
// With the streaming ingestion pipeline enabled, POST /v1/update
// enqueues into a bounded queue (202 Accepted; 429 + Retry-After when
// full) instead of applying synchronously, edge weights decay with a
// configurable half-life, and the per-batch refresh budget is spent by
// a scheduler instead of draining every stale landmark:
//
//	trserver -ingest-queue 4096 -half-life 24h -decay-path data/decay.trdk \
//	         -refresh-sched priority -refresh-budget 4
//
// Standing queries push top-k deltas instead of being polled:
//
//	curl -X POST localhost:8080/v1/subscribe -d '{"user":42,"topic":"technology","n":5}'
//	curl -N localhost:8080/v1/subscribe/s1/events            # SSE stream
//	curl 'localhost:8080/v1/subscribe/s1/events?mode=poll'   # long-poll
//
// The pre-versioning unversioned routes (/recommend, /updates, ...)
// answer 404 unless -enable-legacy-routes re-enables them as sunset
// aliases stamping Deprecation/Sunset headers. See API.md for the full
// /v1 reference.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/topics"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		nodes     = flag.Int("nodes", 8000, "accounts in the generated graph (ignored with -load)")
		seed      = flag.Uint64("seed", 1, "dataset seed")
		load      = flag.String("load", "", "load a graph written by trgen -save instead of generating")
		landmarkN = flag.Int("landmarks", 30, "landmark count (In-Deg selection)")
		topN      = flag.Int("store-topn", 500, "recommendations kept per landmark per topic")
		strategy  = flag.String("refresh", "lazy", "landmark refresh strategy: eager, lazy, threshold")
		reqTmo    = flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request deadline on /v1/recommend (0 disables)")
		admission = server.DefaultAdmissionConfig()
		degradeB  = flag.Duration("degrade-budget", server.DefaultDegradeBudget, "remaining-deadline floor below which exact-Tr queries degrade to the landmark approximation (0 disables)")
		shards    = flag.String("shards", "", "scatter/gather router mode: comma-separated shard endpoint groups, replicas |-separated within a group (host:port|replica,host:port,...)")
		shardTmo  = flag.Duration("shard-timeout", server.DefaultShardTimeout, "per-shard partial fetch deadline in router mode")
		shardHdg  = flag.Duration("shard-hedge", 0, "delay before a hedged retry fires against a shard replica (0 disables hedging)")
		snapPath  = flag.String("snapshot", "", "TRG2 snapshot path: mmap it zero-copy when present, else write the initial snapshot there; compactions republish it")
		lmkPath   = flag.String("landmark-store", "", "LMK3 landmark-store path: adopt it when present (skipping preprocessing), republished at each compaction")
		walPath   = flag.String("wal", "", "write-ahead log path: update batches are logged before applying and replayed at boot")
		walSync   = flag.String("wal-sync", "os", "WAL durability: os (page cache) or always (fsync per batch)")
		verifySt  = flag.Bool("verify-store", false, "run the deep per-section CRC + invariant pass when opening snapshot/landmark files (slower cold start)")
		halfLife  = flag.Duration("half-life", 0, "time-decay half-life for edge weights (0 disables decay)")
		decayPath = flag.String("decay-path", "", "TRDK decay sidecar path: adopted at boot when present, republished at each compaction (requires -half-life)")
		queueCap  = flag.Int("ingest-queue", 0, "streaming ingestion queue capacity; POST /v1/update enqueues (202) instead of applying synchronously, rejecting with 429 when full (0 keeps the synchronous path)")
		batchMax  = flag.Int("ingest-batch", 256, "max updates the ingestion consumer coalesces into one apply")
		schedFlag = flag.String("refresh-sched", "all", "stale-landmark refresh scheduler: all, roundrobin, priority")
		budget    = flag.Int("refresh-budget", 4, "stale landmarks refreshed per opportunity under the budgeted schedulers")
		maxSubs   = flag.Int("max-subscriptions", 0, "cap on live standing queries (POST /v1/subscribe; 0 uses the default of 1024)")
		rescoreB  = flag.Int("rescore-budget", 0, "subscription re-scores per hub worker cycle (0 uses the default of 32)")
		eventBuf  = flag.Int("event-buffer", 0, "events retained per subscription for resume/long-poll (0 uses the default of 64)")
		legacy    = flag.Bool("enable-legacy-routes", false, "serve the sunset unversioned aliases (/recommend, /updates, ...) with Deprecation/Sunset headers; off answers 404")
	)
	flag.IntVar(&admission.MaxInflight, "max-inflight", admission.MaxInflight, "concurrent recommendation computations (0 disables admission control)")
	flag.IntVar(&admission.MaxQueue, "max-queue", admission.MaxQueue, "computations that may queue for a slot before requests are shed with 429")
	flag.Parse()

	policy, err := store.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}
	openOpts := store.OpenOptions{Verify: *verifySt}

	// Graph acquisition, cheapest source first: an existing TRG2 snapshot
	// maps zero-copy (milliseconds regardless of graph size); otherwise
	// the TRG1 -load or generation path runs and, with -snapshot set,
	// publishes the initial snapshot so the next boot takes the fast path.
	var g *graph.Graph
	var sim *topics.SimMatrix
	if *snapPath != "" {
		if _, statErr := os.Stat(*snapPath); statErr == nil {
			openStart := time.Now()
			snap, err := store.OpenSnapshot(*snapPath, openOpts)
			if err != nil {
				log.Fatalf("opening snapshot %s: %v", *snapPath, err)
			}
			g = snap.Graph()
			sim = topics.TaxonomyFor(g.Vocabulary()).SimMatrix()
			log.Printf("mapped %s zero-copy: %d nodes / %d edges in %s",
				*snapPath, g.NumNodes(), g.NumEdges(), time.Since(openStart).Round(time.Microsecond))
		}
	}
	if g == nil {
		if *load != "" {
			f, err := os.Open(*load)
			if err != nil {
				log.Fatal(err)
			}
			g, err = graph.ReadGraph(f)
			f.Close()
			if err != nil {
				log.Fatalf("loading %s: %v", *load, err)
			}
			sim = topics.TaxonomyFor(g.Vocabulary()).SimMatrix()
		} else {
			cfg := gen.DefaultTwitterConfig()
			cfg.Nodes = *nodes
			cfg.Seed = *seed
			ds, err := gen.Twitter(cfg)
			if err != nil {
				log.Fatal(err)
			}
			g = ds.Graph
			sim = ds.Sim
		}
		if *snapPath != "" {
			n, err := store.WriteSnapshotFile(*snapPath, g, nil)
			if err != nil {
				log.Fatalf("writing initial snapshot %s: %v", *snapPath, err)
			}
			log.Printf("published initial snapshot %s (%d bytes)", *snapPath, n)
		}
	}

	var strat dynamic.Strategy
	switch *strategy {
	case "eager":
		strat = dynamic.Eager
	case "lazy":
		strat = dynamic.Lazy
	case "threshold":
		strat = dynamic.Threshold
	default:
		log.Fatalf("unknown refresh strategy %q", *strategy)
	}
	sched, err := dynamic.ParseSchedulerKind(*schedFlag)
	if err != nil {
		log.Fatal(err)
	}

	lms, err := landmark.Select(g, landmark.InDeg, *landmarkN, landmark.DefaultSelectConfig())
	if err != nil {
		log.Fatal(err)
	}
	// One registry spans the whole stack so GET /metrics covers the
	// initial preprocessing run as well as everything served afterwards.
	reg := metrics.NewRegistry()
	mgrCfg := dynamic.Config{
		Params:        core.DefaultParams(),
		Sim:           sim,
		StoreTopN:     *topN,
		QueryDepth:    2,
		Strategy:      strat,
		Metrics:       reg,
		SnapshotPath:  *snapPath,
		LandmarkPath:  *lmkPath,
		Scheduler:     sched,
		RefreshBudget: *budget,
		HalfLife:      *halfLife,
		DecayPath:     *decayPath,
	}
	if *decayPath != "" {
		if *halfLife <= 0 {
			log.Fatal("-decay-path requires -half-life")
		}
		if _, statErr := os.Stat(*decayPath); statErr == nil {
			dec, err := store.ReadDecayFile(*decayPath)
			if err != nil {
				log.Fatalf("opening decay sidecar %s: %v", *decayPath, err)
			}
			mgrCfg.InitialDecay = dec
			log.Printf("adopted decay sidecar %s (%d timestamped edges, ref %d)",
				*decayPath, len(dec.Edges), dec.Ref)
		}
	}
	if *lmkPath != "" {
		if _, statErr := os.Stat(*lmkPath); statErr == nil {
			ls, err := store.OpenLandmarks(*lmkPath, openOpts)
			if err != nil {
				log.Fatalf("opening landmark store %s: %v", *lmkPath, err)
			}
			mgrCfg.InitialStore = ls.Store()
			log.Printf("adopted landmark store %s (%d landmarks, preprocessing skipped)",
				*lmkPath, len(mgrCfg.InitialStore.Landmarks()))
		}
	}
	var recovered [][]store.EdgeDelta
	if *walPath != "" {
		if *snapPath == "" {
			log.Printf("warning: -wal without -snapshot: compactions cannot truncate the log, it grows unbounded")
		}
		w, rec, err := store.OpenWAL(*walPath, policy)
		if err != nil {
			log.Fatalf("opening WAL %s: %v", *walPath, err)
		}
		mgrCfg.WAL = w
		recovered = rec
	}
	if mgrCfg.InitialStore == nil {
		log.Printf("preprocessing %d landmarks over %d nodes / %d edges...", len(lms), g.NumNodes(), g.NumEdges())
	}
	start := time.Now()
	mgr, err := dynamic.NewManager(g, lms, mgrCfg)
	if err != nil {
		log.Fatal(err)
	}
	if len(recovered) > 0 {
		n, err := mgr.Replay(recovered)
		if err != nil {
			log.Fatalf("replaying WAL %s: %v", *walPath, err)
		}
		log.Printf("replayed %d durable batches from %s", n, *walPath)
	}
	log.Printf("ready in %s", time.Since(start).Round(time.Millisecond))

	srvOpts := []server.Option{
		server.WithMetrics(reg), server.WithRequestTimeout(*reqTmo),
		server.WithAdmission(admission), server.WithDegradeBudget(*degradeB),
		server.WithSubscriptions(server.SubscriptionConfig{
			MaxSubscriptions: *maxSubs, RescoreBudget: *rescoreB, EventBuffer: *eventBuf,
		}),
		server.WithLegacyRoutes(*legacy),
	}
	if *queueCap > 0 {
		pipe := ingest.New(mgr, ingest.Config{QueueCap: *queueCap, MaxBatch: *batchMax, Metrics: reg})
		defer pipe.Close() //nolint:errcheck // process exit drains via ListenAndServe's Fatal anyway
		srvOpts = append(srvOpts, server.WithIngest(pipe))
		log.Printf("streaming ingestion: queue %d, batch %d", *queueCap, *batchMax)
	}
	if *shards != "" {
		groups, err := server.ParseShardFlag(*shards)
		if err != nil {
			log.Fatal(err)
		}
		srvOpts = append(srvOpts, server.WithShardRouter(server.NewShardRouter(groups, *shardTmo, *shardHdg)))
		log.Printf("router mode: scatter/gather over %d shards", len(groups))
	}
	srv := server.New(mgr, core.DefaultParams().Beta, srvOpts...)
	defer srv.Close()
	fmt.Printf("serving on %s (try /v1/health, /v1/topics, /v1/stats, /v1/metrics, /v1/recommend?user=42&topic=technology)\n", *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}
