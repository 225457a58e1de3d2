// Command trshard runs one partition worker of the sharded deployment:
// it owns one partition of the node set — preprocessing and serving the
// landmark lists of exactly the landmarks that fall on its partition —
// and answers partial-score RPCs that a router-mode trserver merges into
// exact recommendations (Proposition 2/4 composition).
//
// Every worker must be started with the same dataset flags (-nodes,
// -seed or -load), the same -landmarks/-store-topn/-depth and the same
// -shards/-partitioner/-part-seed so all workers derive the identical
// landmark set and node assignment; they differ only in -shard.
//
//	trshard -shard 0 -shards 4 -addr :7070 &
//	trshard -shard 1 -shards 4 -addr :7071 &
//	trshard -shard 2 -shards 4 -addr :7072 &
//	trshard -shard 3 -shards 4 -addr :7073 &
//	trserver -shards localhost:7070,localhost:7071,localhost:7072,localhost:7073
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/topics"
)

func main() {
	var (
		addr        = flag.String("addr", ":7070", "listen address")
		nodes       = flag.Int("nodes", 8000, "accounts in the generated graph (ignored with -load)")
		seed        = flag.Uint64("seed", 1, "dataset seed")
		load        = flag.String("load", "", "load a graph written by trgen -save instead of generating")
		snapPath    = flag.String("snapshot", "", "mmap a TRG2 snapshot written by trgen -save-snapshot instead of generating (zero-copy cold start; same file on every worker)")
		shard       = flag.Int("shard", 0, "this worker's partition index in [0, shards)")
		shards      = flag.Int("shards", 1, "total partition count of the deployment")
		partitioner = flag.String("partitioner", "conn", "node partitioner: hash, conn")
		partSeed    = flag.Uint64("part-seed", 1, "seed of the connectivity partitioner")
		landmarkN   = flag.Int("landmarks", 30, "landmark count of the whole deployment (In-Deg selection)")
		topN        = flag.Int("store-topn", 500, "recommendations kept per landmark per topic")
		depth       = flag.Int("depth", 2, "query-time exploration depth")
		maxInflight = flag.Int("max-inflight", 1, "concurrently computed partials")
		maxQueue    = flag.Int("max-queue", 32, "partials that may queue for a slot before 429")
	)
	flag.Parse()
	if *shard < 0 || *shard >= *shards {
		log.Fatalf("-shard %d outside [0, %d)", *shard, *shards)
	}

	var g *graph.Graph
	var sim *topics.SimMatrix
	if *snapPath != "" {
		openStart := time.Now()
		snap, err := store.OpenSnapshot(*snapPath, store.OpenOptions{})
		if err != nil {
			log.Fatalf("opening snapshot %s: %v", *snapPath, err)
		}
		g = snap.Graph()
		sim = topics.TaxonomyFor(g.Vocabulary()).SimMatrix()
		log.Printf("mapped %s zero-copy: %d nodes / %d edges in %s",
			*snapPath, g.NumNodes(), g.NumEdges(), time.Since(openStart).Round(time.Microsecond))
	} else if *load != "" {
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

	// The partition: every worker computes the same assignment from the
	// same flags, so node ownership is a pure function of the deployment
	// configuration — nothing has to be exchanged.
	var assign distrib.Assignment
	switch *partitioner {
	case "hash":
		assign = distrib.HashPartition(g, *shards)
	case "conn":
		assign = distrib.ConnectivityPartition(g, *shards, *partSeed)
	default:
		log.Fatalf("unknown partitioner %q (hash, conn)", *partitioner)
	}

	// The full landmark set (selection is deterministic, identical on
	// every worker); this worker preprocesses and stores only the owned
	// ones but prunes explorations at all of them.
	lms, err := landmark.Select(g, landmark.InDeg, *landmarkN, landmark.DefaultSelectConfig())
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(g, authority.Compute(g), sim, core.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	reg := metrics.NewRegistry()
	log.Printf("shard %d/%d: %d of %d candidate nodes, preprocessing %d landmarks...",
		*shard, *shards, assign.Sizes()[*shard], g.NumNodes(), len(lms))
	start := time.Now()
	// Every worker preprocesses the full landmark set, then keeps only the
	// list entries of its own candidate partition: serving memory is 1/P
	// of the lists, and the worker's partials cover exactly its owned
	// candidates (see distrib.Shard). A production deployment would load
	// the filtered lists from a shared preprocessing artifact instead of
	// recomputing them per worker.
	full, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{
		TopN:    *topN,
		Metrics: reg,
	})
	store := full
	if *shards > 1 {
		store = full.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == *shard })
	}
	log.Printf("ready in %s (%d MB of lists kept)", time.Since(start).Round(time.Millisecond),
		store.Bytes()/(1<<20))

	sh, err := distrib.NewShard(eng, store, assign, *shard, lms, *depth)
	if err != nil {
		log.Fatal(err)
	}
	ss := distrib.NewShardServer(sh, *shard, *shards, distrib.ShardServerConfig{
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		Metrics:     reg,
	})
	mux := http.NewServeMux()
	mux.Handle("/shard/v1/", ss)
	mux.HandleFunc("/metrics", reg.ServeHTTP)
	fmt.Printf("shard %d/%d serving on %s (/shard/v1/partial, /shard/v1/health, /shard/v1/stats, /metrics)\n",
		*shard, *shards, *addr)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
