// Command trindex builds, persists and inspects landmark indexes — the
// preprocessing artifact of Section 4. Build once, serve many times.
//
//	trgen -kind twitter -nodes 8000 -save-snapshot tw.trg2
//	trindex -graph tw.trg2 -strategy In-Deg -landmarks 50 -topn 1000 -out tw.lmk3
//	trindex -inspect tw.lmk3
//	trserver -snapshot tw.trg2 -landmark-store tw.lmk3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/store"
	"repro/internal/topics"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "TRG2 graph snapshot written by trgen -save-snapshot")
		strategy  = flag.String("strategy", "In-Deg", "landmark selection strategy")
		k         = flag.Int("landmarks", 50, "landmark count")
		topN      = flag.Int("topn", 1000, "recommendations kept per landmark per topic")
		out       = flag.String("out", "", "output LMK3 landmark-store file (adopted by trserver -landmark-store)")
		inspect   = flag.String("inspect", "", "print a summary of an existing LMK3 file and exit")
		workers   = flag.Int("workers", 0, "preprocessing parallelism (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *inspect != "" {
		inspectIndex(*inspect)
		return
	}
	if *graphPath == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: trindex -graph g.trg2 -out g.lmk3 [-strategy S -landmarks K -topn N]")
		fmt.Fprintln(os.Stderr, "       trindex -inspect g.lmk3")
		os.Exit(2)
	}

	snap, err := store.OpenSnapshot(*graphPath, store.OpenOptions{Verify: true})
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	defer snap.Close()
	g := snap.Graph()
	log.Printf("graph: %d nodes, %d edges", g.NumNodes(), g.NumEdges())

	sim := topics.TaxonomyFor(g.Vocabulary()).SimMatrix()
	eng, err := core.NewEngine(g, authority.Compute(g), sim, core.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	selCfg := landmark.DefaultSelectConfig()
	low, high := graph.InDegreePercentileCutoffs(g, 0.25)
	selCfg.MinFollow, selCfg.MaxFollow = low, high
	selCfg.MinPublish, selCfg.MaxPublish = low, high
	t0 := time.Now()
	lms, err := landmark.Select(g, landmark.Strategy(*strategy), *k, selCfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("selected %d landmarks with %s in %s", len(lms), *strategy, time.Since(t0).Round(time.Microsecond))

	lmks, stats := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: *topN, Workers: *workers})
	log.Printf("preprocessed in %s wall (%s per landmark, %0.1f MB)",
		stats.WallTime.Round(time.Millisecond), stats.PerLandmark().Round(time.Millisecond),
		float64(lmks.Bytes())/(1<<20))

	n, err := store.WriteLandmarksFile(*out, lmks)
	if err != nil {
		log.Fatalf("writing index: %v", err)
	}
	fmt.Printf("wrote %s (%d bytes, %d landmarks, top-%d lists)\n", *out, n, lmks.Len(), lmks.TopN())
}

func inspectIndex(path string) {
	ls, err := store.OpenLandmarks(path, store.OpenOptions{Verify: true})
	if err != nil {
		log.Fatalf("reading index: %v", err)
	}
	defer ls.Close()
	lmks := ls.Store()
	fmt.Printf("landmarks: %d\ntopics:    %d\ntop-n:     %d\nsize:      %.1f MB\n",
		lmks.Len(), lmks.VocabLen(), lmks.TopN(), float64(lmks.Bytes())/(1<<20))
	for i, lm := range lmks.Landmarks() {
		if i == 10 {
			fmt.Printf("... and %d more\n", lmks.Len()-10)
			break
		}
		d := lmks.Get(lm)
		entries := 0
		for t := range d.Topical {
			entries += d.Topical[t].Len()
		}
		fmt.Printf("landmark %-8d iterations %-3d stored entries %d\n", lm, d.Iterations, entries)
	}
}
