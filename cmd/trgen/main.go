// Command trgen generates a synthetic dataset and prints its topological
// properties (Table 2) and topic-label distribution (Figure 3), with the
// option of running the full Section 5.1 labeling pipeline instead of
// direct labeling.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/classify"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/textgen"
	"repro/internal/topics"
)

func main() {
	var (
		kind     = flag.String("kind", "twitter", "dataset kind: twitter or dblp")
		nodes    = flag.Int("nodes", 20000, "node count")
		avgOut   = flag.Float64("avgout", 0, "mean out-degree (0 = kind default)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		pipeline = flag.Bool("pipeline", false, "relabel through the synthetic-corpus classification pipeline")
		saveSnap = flag.String("save-snapshot", "", "write the labeled graph as a TRG2 snapshot (read by trindex -graph, mmap'd zero-copy by trserver/trshard -snapshot)")
	)
	flag.Parse()

	var (
		ds  *gen.Dataset
		err error
	)
	switch *kind {
	case "twitter":
		cfg := gen.DefaultTwitterConfig()
		cfg.Nodes = *nodes
		cfg.Seed = *seed
		if *avgOut > 0 {
			cfg.AvgOut = *avgOut
		}
		ds, err = gen.Twitter(cfg)
	case "dblp":
		cfg := gen.DefaultDBLPConfig()
		cfg.Authors = *nodes
		cfg.Seed = *seed
		if *avgOut > 0 {
			cfg.AvgOut = *avgOut
		}
		ds, err = gen.DBLP(cfg)
	default:
		log.Fatalf("trgen: unknown dataset kind %q", *kind)
	}
	if err != nil {
		log.Fatal(err)
	}

	g := ds.Graph
	if *pipeline {
		truth := make([]topics.Set, g.NumNodes())
		for u := range truth {
			truth[u] = g.NodeTopics(graph.NodeID(u))
		}
		corpus := textgen.Generate(g.Vocabulary(), truth, textgen.DefaultConfig())
		res, err := classify.RunPipeline(g, corpus, truth, classify.DefaultPipelineConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pipeline: %d seed users, classifier precision %.2f / recall %.2f\n\n",
			res.SeedUsers, res.Classifier.Precision, res.Classifier.Recall)
		g = res.Graph
	}

	if *saveSnap != "" {
		n, err := store.WriteSnapshotFile(*saveSnap, g, nil)
		if err != nil {
			log.Fatalf("saving snapshot %s: %v", *saveSnap, err)
		}
		fmt.Printf("wrote snapshot %s (%d bytes)\n\n", *saveSnap, n)
	}

	fmt.Printf("dataset %s (seed %d)\n\n", ds.Name, *seed)
	fmt.Println(graph.ComputeStats(g))

	fmt.Println("edges per topic:")
	counts := graph.EdgeTopicDistribution(g)
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for t, c := range counts {
		fmt.Printf("%-14s %9d %s\n", g.Vocabulary().Name(topics.ID(t)), c,
			bar(c, max))
	}
}

func bar(c, max int) string {
	n := c * 40 / max
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
