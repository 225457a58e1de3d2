// Command trbench regenerates the paper's tables and figures over the
// synthetic datasets. Each experiment prints the same rows/series the
// paper reports; sizes are configurable.
//
// Usage:
//
//	trbench -exp fig4                 # one experiment
//	trbench -exp all                  # everything, in paper order
//	trbench -exp table6 -landmarks 50 # resized
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	cfg := experiments.DefaultConfig()
	var (
		exp       = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
		twNodes   = flag.Int("tw-nodes", cfg.Twitter.Nodes, "Twitter dataset size (accounts)")
		twAvgOut  = flag.Float64("tw-avgout", cfg.Twitter.AvgOut, "Twitter dataset mean out-degree")
		dbNodes   = flag.Int("dblp-nodes", cfg.DBLP.Authors, "DBLP dataset size (authors)")
		dbAvgOut  = flag.Float64("dblp-avgout", cfg.DBLP.AvgOut, "DBLP dataset mean out-citations")
		trials    = flag.Int("trials", cfg.Protocol.Trials, "link-prediction trials")
		testSize  = flag.Int("testsize", cfg.Protocol.TestSize, "held-out edges per trial (T)")
		negatives = flag.Int("negatives", cfg.Protocol.Negatives, "sampled negatives per test edge")
		depth     = flag.Int("depth", cfg.QueryDepth, "exploration depth for exact methods (0 = convergence)")
		landmarks = flag.Int("landmarks", cfg.Landmarks, "landmarks per strategy")
		storeTopN = flag.Int("store-topn", cfg.StoreTopN, "per-topic list length kept per landmark")
		queries   = flag.Int("queries", cfg.QueryNodes, "query nodes for the landmark-quality experiment")
		seed      = flag.Uint64("seed", cfg.Seed, "experiment seed")
		parallel  = flag.Int("parallel", cfg.Protocol.Parallelism, "evaluation worker count (0 = GOMAXPROCS, 1 = serial); results are parallelism-invariant")
		format    = flag.String("format", "text", "output format: text or json")
		dumpMet   = flag.Bool("metrics", false, "print collected preprocessing metrics (Prometheus text) after the runs")
		benchOut  = flag.String("bench-out", "", "output file for -exp bench-eval / bench-graph / bench-serve / bench-shard (default BENCH_<kind>.json)")
	)
	flag.Parse()

	cfg.Twitter.Nodes = *twNodes
	cfg.Twitter.AvgOut = *twAvgOut
	cfg.DBLP.Authors = *dbNodes
	cfg.DBLP.AvgOut = *dbAvgOut
	cfg.Protocol.Trials = *trials
	cfg.Protocol.TestSize = *testSize
	cfg.Protocol.Negatives = *negatives
	cfg.QueryDepth = *depth
	cfg.Landmarks = *landmarks
	cfg.StoreTopN = *storeTopN
	cfg.QueryNodes = *queries
	cfg.Seed = *seed
	cfg.Protocol.Parallelism = *parallel
	if *dumpMet {
		cfg.Metrics = metrics.NewRegistry()
	}

	r := experiments.NewRunner(cfg)

	// bench-eval and bench-graph time the engines themselves rather than
	// reproducing a paper artifact; they print the comparison and write
	// the machine-readable result next to the repository's other
	// committed benchmark files.
	if *exp == "bench-eval" || *exp == "bench-graph" || *exp == "bench-serve" || *exp == "bench-shard" || *exp == "bench-store" || *exp == "bench-stream" || *exp == "bench-subscribe" {
		var (
			res interface{ String() string }
			err error
			out = *benchOut
		)
		switch *exp {
		case "bench-eval":
			res, err = r.BenchEval()
			if out == "" {
				out = "BENCH_eval.json"
			}
		case "bench-graph":
			res, err = r.BenchGraph()
			if out == "" {
				out = "BENCH_graph.json"
			}
		case "bench-serve":
			res, err = r.BenchServe()
			if out == "" {
				out = "BENCH_serve.json"
			}
		case "bench-shard":
			res, err = r.BenchShard()
			if out == "" {
				out = "BENCH_shard.json"
			}
		case "bench-store":
			res, err = r.BenchStore()
			if out == "" {
				out = "BENCH_store.json"
			}
		case "bench-stream":
			res, err = r.BenchStream()
			if out == "" {
				out = "BENCH_stream.json"
			}
		case "bench-subscribe":
			res, err = r.BenchSubscribe()
			if out == "" {
				out = "BENCH_subscribe.json"
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trbench:", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "trbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "trbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", out)
		return
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		var err error
		switch *format {
		case "text":
			err = experiments.RunAndPrint(os.Stdout, r, id)
		case "json":
			err = experiments.RunJSON(os.Stdout, r, id)
		default:
			err = fmt.Errorf("unknown format %q (text, json)", *format)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trbench:", err)
			os.Exit(1)
		}
		if *format == "text" {
			fmt.Printf("(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if *dumpMet {
		fmt.Println("# collected metrics")
		cfg.Metrics.WriteTo(os.Stdout) //nolint:errcheck // stdout
	}
}
