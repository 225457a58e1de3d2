// Dynamicfeed: recommendations under graph churn. The paper's future work
// notes that "many following links have a short lifespan" and that this
// dynamicity "may impact the scores stored by the landmarks" — this
// example shows exactly that, and how the refresh strategies handle it:
//
//  1. build a follower graph and a landmark index;
//  2. replay a churn stream (new follows, short-lived links dying,
//     long-standing links unfollowed) through the dynamic manager;
//  3. after every batch, compare the landmark-approximate answer against
//     the exact one and print the maintenance bill per strategy.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 2000, "accounts")
		events = flag.Int("events", 60, "churn events to replay")
		batch  = flag.Int("batch", 10, "events per update batch")
		seed   = flag.Uint64("seed", 3, "seed")
	)
	flag.Parse()

	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = *nodes
	cfg.Seed = *seed
	ds, err := gen.Twitter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 12, landmark.DefaultSelectConfig())
	if err != nil {
		log.Fatal(err)
	}
	ccfg := churn.DefaultConfig()
	ccfg.Events = *events
	ccfg.Seed = *seed
	stream, err := churn.Generate(ds.Graph, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges; churn stream: %d events\n\n",
		ds.Graph.NumNodes(), ds.Graph.NumEdges(), len(stream))

	tech := ds.Vocabulary().MustLookup("technology")
	probe := graph.NodeID(42)

	for _, strat := range []dynamic.Strategy{dynamic.Eager, dynamic.Lazy, dynamic.Threshold} {
		m, err := dynamic.NewManager(ds.Graph, lms, dynamic.Config{
			Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 300,
			QueryDepth: 2, Strategy: strat, StaleBound: 4,
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		overlapSum, checks := 0.0, 0
		for i := 0; i < len(stream); i += *batch {
			end := i + *batch
			if end > len(stream) {
				end = len(stream)
			}
			if err := m.Apply(stream[i:end]); err != nil {
				log.Fatal(err)
			}
			approx, err := m.Recommend(probe, tech, 10)
			if err != nil {
				log.Fatal(err)
			}
			exact := m.RecommendExact(probe, tech, 10)
			overlapSum += overlap(exact, approx)
			checks++
		}
		st := m.Stats()
		fmt.Printf("%-10s stream %-9s refreshes %-4d topic refreshes %-4d stale-at-end %-3d approx/exact top-10 overlap %.2f\n",
			strat, time.Since(start).Round(time.Millisecond), st.Refreshes, st.TopicRefreshes, st.StaleNow,
			overlapSum/float64(checks))
	}
}

func overlap(a, b []ranking.Scored) float64 {
	if len(a) == 0 {
		return 1
	}
	in := map[graph.NodeID]bool{}
	for _, s := range a {
		in[s.Node] = true
	}
	hit := 0
	for _, s := range b {
		if in[s.Node] {
			hit++
		}
	}
	return float64(hit) / float64(len(a))
}
