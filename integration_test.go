package repro

// End-to-end integration test: generate a labeled dataset, build the
// exact engine, preprocess landmarks, persist and reload the store, and
// check that the landmark-approximate answers track the exact ones — the
// full production flow of the paper's system in one pass.

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/store"
	"repro/internal/topics"
)

func TestEndToEndWhoToFollow(t *testing.T) {
	// 1. Dataset.
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 1500
	cfg.Seed = 99
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeStats(ds.Graph)
	if st.LabeledEdge != st.Edges {
		t.Fatalf("dataset not fully labeled: %d of %d", st.LabeledEdge, st.Edges)
	}

	// 2. Exact engine, convergence-bound sanity (Proposition 3).
	params := core.DefaultParams()
	if bound := core.MaxBeta(ds.Graph); params.Beta >= bound {
		t.Fatalf("paper β %g violates the convergence bound %g on this graph", params.Beta, bound)
	}
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, params)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Landmarks: select, preprocess, persist, reload.
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 15, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	built, stats := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 500})
	if stats.Landmarks != len(lms) {
		t.Fatalf("preprocessed %d of %d landmarks", stats.Landmarks, len(lms))
	}
	var buf bytes.Buffer
	if _, err := store.WriteLandmarks(&buf, built); err != nil {
		t.Fatal(err)
	}
	reloaded, err := store.ReadLandmarks(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Queries: approximate answers must track the exact computation.
	approx, err := landmark.NewApprox(eng, reloaded, 2)
	if err != nil {
		t.Fatal(err)
	}
	exact := core.NewRecommender(eng)
	tech := ds.Vocabulary().MustLookup("technology")

	queries, overlapSum, tauSum := 0, 0.0, 0.0
	for u := graph.NodeID(1); u < 1500; u += 151 {
		if ds.Graph.OutDegree(u) < 3 {
			continue
		}
		ex := exact.Recommend(u, tech, 10)
		if len(ex) == 0 {
			continue
		}
		ap := approx.Recommend(u, tech, 10)
		em := map[graph.NodeID]bool{}
		for _, s := range ex {
			em[s.Node] = true
		}
		hit := 0
		for _, s := range ap {
			if em[s.Node] {
				hit++
			}
		}
		overlapSum += float64(hit) / float64(len(ex))
		tauSum += ranking.KendallTopK(ex, ap)
		queries++
	}
	if queries < 3 {
		t.Fatalf("only %d usable queries", queries)
	}
	if avg := overlapSum / float64(queries); avg < 0.6 {
		t.Errorf("approximate top-10 overlap with exact = %.2f, want >= 0.6", avg)
	}
	if avg := tauSum / float64(queries); avg > 0.35 {
		t.Errorf("Kendall tau to exact = %.2f, want <= 0.35 (paper reports 0.06-0.13 on L1000)", avg)
	}

	// 5. Multi-topic query through the metasearch combination.
	science := ds.Vocabulary().MustLookup("science")
	var querier graph.NodeID
	for u := graph.NodeID(0); u < 1500; u++ {
		if ds.Graph.OutDegree(u) >= 5 {
			querier = u
			break
		}
	}
	multi := exact.RecommendQuery(querier, []core.QueryTopic{
		{Topic: tech, Weight: 0.7}, {Topic: science, Weight: 0.3},
	}, 10)
	if len(multi) == 0 {
		t.Error("multi-topic query returned nothing")
	}
}

// TestOfflineIndexChain runs the offline/online split with files: a TRG2
// snapshot written the way trgen -save-snapshot does, an LMK3 store built
// from it the way trindex does (In-Deg selection between the quartile
// in-degree cutoffs), both opened the way trserver does and adopted by a
// manager over the store's own landmark set. Its landmark answers must be
// bit-identical to a manager that preprocessed the same landmarks.
func TestOfflineIndexChain(t *testing.T) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 1200
	cfg.Seed = 7
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath, lmkPath := filepath.Join(dir, "tw.trg2"), filepath.Join(dir, "tw.lmk3")
	if _, err := store.WriteSnapshotFile(snapPath, ds.Graph, nil); err != nil {
		t.Fatal(err)
	}

	// trindex: open the snapshot, select with percentile cutoffs,
	// preprocess, write LMK3.
	const topN = 200
	snap, err := store.OpenSnapshot(snapPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	g := snap.Graph()
	sim := topics.TaxonomyFor(g.Vocabulary()).SimMatrix()
	eng, err := core.NewEngine(g, authority.Compute(g), sim, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	selCfg := landmark.DefaultSelectConfig()
	low, high := graph.InDegreePercentileCutoffs(g, 0.25)
	selCfg.MinFollow, selCfg.MaxFollow = low, high
	selCfg.MinPublish, selCfg.MaxPublish = low, high
	lms, err := landmark.Select(g, landmark.InDeg, 12, selCfg)
	if err != nil {
		t.Fatal(err)
	}
	built, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: topN})
	if _, err := store.WriteLandmarksFile(lmkPath, built); err != nil {
		t.Fatal(err)
	}

	// trserver: open both files and adopt the store with its landmarks.
	ls, err := store.OpenLandmarks(lmkPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	mcfg := dynamic.Config{Params: core.DefaultParams(), Sim: sim, StoreTopN: topN, QueryDepth: 2}
	fresh, err := dynamic.NewManager(g, lms, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg.InitialStore = ls.Store()
	adopted, err := dynamic.NewManager(g, ls.Store().Landmarks(), mcfg)
	if err != nil {
		t.Fatal(err)
	}

	compared := 0
	for u := graph.NodeID(3); int(u) < g.NumNodes(); u += 97 {
		for _, tp := range []topics.ID{0, 3, 7} {
			want, err := fresh.Recommend(u, tp, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := adopted.Recommend(u, tp, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("user %d topic %d: %d answers, want %d", u, tp, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("user %d topic %d rank %d: %v, want %v", u, tp, i+1, got[i], want[i])
				}
			}
			compared += len(want)
		}
	}
	if compared == 0 {
		t.Fatal("no landmark answers to compare")
	}
}
