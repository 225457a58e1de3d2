// Whotofollow: an end-to-end "Who to Follow" service over a synthetic
// Twitter-scale follower graph. It generates the labeled dataset, builds
// the exact Tr engine, selects landmarks, runs the preprocessing step,
// persists the landmark store to disk, reloads it, and then serves
// queries two ways — exact and landmark-approximate — reporting the
// speedup and the agreement between the two rankings.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/store"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 6000, "accounts in the synthetic follower graph")
		landmarks = flag.Int("landmarks", 30, "landmark count")
		topN      = flag.Int("topn", 200, "recommendations stored per landmark per topic")
		topic     = flag.String("topic", "technology", "query topic")
		queries   = flag.Int("queries", 5, "example queries to serve")
		seed      = flag.Uint64("seed", 42, "dataset seed")
	)
	flag.Parse()

	// 1. Dataset.
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = *nodes
	cfg.Seed = *seed
	ds, err := gen.Twitter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := graph.ComputeStats(ds.Graph)
	fmt.Printf("generated %d accounts, %d follow edges (max in-degree %d)\n",
		st.Nodes, st.Edges, st.MaxIn)

	// 2. Exact engine.
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, core.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Landmark selection + preprocessing (Algorithm 1 per landmark).
	selCfg := landmark.DefaultSelectConfig()
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, *landmarks, selCfg)
	if err != nil {
		log.Fatal(err)
	}
	built, stats := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: *topN})
	fmt.Printf("preprocessed %d landmarks in %s (%s per landmark, store ≈ %.1f MB)\n",
		stats.Landmarks, stats.WallTime.Round(time.Millisecond),
		stats.PerLandmark().Round(time.Millisecond), float64(built.Bytes())/(1<<20))

	// 4. Persist the store as LMK3 and map it back (what a service restart
	// would do).
	path := filepath.Join(os.TempDir(), "whotofollow.lmk3")
	if _, err := store.WriteLandmarksFile(path, built); err != nil {
		log.Fatal(err)
	}
	ls, err := store.OpenLandmarks(path, store.OpenOptions{Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	defer ls.Close()
	fmt.Printf("landmark store persisted to %s and reloaded\n\n", path)

	// 5. Serve queries.
	t, ok := ds.Vocabulary().Lookup(*topic)
	if !ok {
		log.Fatalf("unknown topic %q", *topic)
	}
	approx, err := landmark.NewApprox(eng, ls.Store(), 2)
	if err != nil {
		log.Fatal(err)
	}
	exact := core.NewRecommender(eng)

	for q := 0; q < *queries; q++ {
		u := graph.NodeID((q*997 + 13) % ds.Graph.NumNodes())
		if ds.Graph.OutDegree(u) < 3 {
			continue
		}
		t0 := time.Now()
		ex := exact.Recommend(u, t, 10)
		exDur := time.Since(t0)
		t0 = time.Now()
		ap := approx.Query(u, t, 10)
		apDur := time.Since(t0)
		fmt.Printf("user %d on %q: exact %s, approx %s (%.0fx, %d landmarks met, tau %.3f)\n",
			u, *topic, exDur.Round(time.Microsecond), apDur.Round(time.Microsecond),
			float64(exDur)/float64(apDur), ap.LandmarksMet,
			ranking.KendallTopK(ex, ap.Scores))
		show := ap.Scores
		if len(show) > 3 {
			show = show[:3]
		}
		for i, s := range show {
			fmt.Printf("   %d. account %-6d score %.3g  (profile: %s)\n",
				i+1, s.Node, s.Score, ds.Vocabulary().FormatSet(ds.Graph.NodeTopics(s.Node)))
		}
	}
}
