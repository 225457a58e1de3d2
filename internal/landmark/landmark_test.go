package landmark

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

func engineOn(t testing.TB, ds *gen.Dataset, beta float64) *core.Engine {
	t.Helper()
	p := core.DefaultParams()
	if beta > 0 {
		p.Beta = beta
	}
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, p)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSelectStrategiesBasics(t *testing.T) {
	ds := gen.RandomWith(80, 800, 1)
	cfg := DefaultSelectConfig()
	cfg.MinFollow, cfg.MaxFollow = 2, 50
	cfg.MinPublish, cfg.MaxPublish = 2, 50
	for _, s := range Strategies {
		lms, err := Select(ds.Graph, s, 10, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(lms) == 0 || len(lms) > 10 {
			t.Fatalf("%s selected %d landmarks", s, len(lms))
		}
		seen := map[graph.NodeID]bool{}
		for _, l := range lms {
			if seen[l] {
				t.Fatalf("%s returned duplicate landmark %d", s, l)
			}
			seen[l] = true
		}
	}
	if _, err := Select(ds.Graph, Strategy("nope"), 5, cfg); err == nil {
		t.Error("unknown strategy must error")
	}
	if _, err := Select(ds.Graph, Random, 0, cfg); err == nil {
		t.Error("k=0 must error")
	}
}

func TestSelectDegreeStrategies(t *testing.T) {
	ds := gen.RandomWith(60, 600, 2)
	g := ds.Graph
	cfg := DefaultSelectConfig()
	lms, err := Select(g, InDeg, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every selected landmark's in-degree must be >= every unselected's.
	minSel := 1 << 30
	for _, l := range lms {
		if d := g.InDegree(l); d < minSel {
			minSel = d
		}
	}
	selected := map[graph.NodeID]bool{}
	for _, l := range lms {
		selected[l] = true
	}
	better := 0
	for u := 0; u < g.NumNodes(); u++ {
		if !selected[graph.NodeID(u)] && g.InDegree(graph.NodeID(u)) > minSel {
			better++
		}
	}
	if better > 0 {
		t.Errorf("In-Deg missed %d higher-degree nodes", better)
	}

	// Band strategies respect their bands.
	cfg.MinFollow, cfg.MaxFollow = 5, 12
	lms, err = Select(g, BtwFol, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lms {
		if d := g.InDegree(l); d < 5 || d > 12 {
			t.Errorf("Btw-Fol landmark %d has in-degree %d outside [5,12]", l, d)
		}
	}
}

func TestSelectWeightedExcludesZero(t *testing.T) {
	// A node with zero followers must never be drawn by Follow.
	vocab := topics.MustVocabulary([]string{"x"})
	b := graph.NewBuilder(vocab, 5)
	b.AddEdge(1, 0, topics.NewSet(0))
	b.AddEdge(2, 0, topics.NewSet(0))
	b.AddEdge(3, 4, topics.NewSet(0))
	g := b.MustFreeze()
	cfg := DefaultSelectConfig()
	for seed := uint64(0); seed < 20; seed++ {
		cfg.Seed = seed
		lms, err := Select(g, Follow, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lms {
			if g.InDegree(l) == 0 {
				t.Fatalf("Follow drew zero-follower node %d", l)
			}
		}
	}
}

// TestPreprocessBuildsSortedLists checks the list construction on the
// float64 reference mode, where stored values equal a fresh exploration
// to 1e-9; TestPreprocessMatchesFloat64Reference states what the factored
// default keeps of it.
func TestPreprocessBuildsSortedLists(t *testing.T) {
	ds := gen.RandomWith(50, 500, 3)
	eng := engineOn(t, ds, 0.05)
	lms, err := Select(ds.Graph, Random, 5, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, stats := preprocess(eng, lms, PreprocessConfig{TopN: 7, Workers: 2}, false)
	if store.Len() != len(lms) {
		t.Fatalf("store holds %d landmarks, want %d", store.Len(), len(lms))
	}
	if stats.Landmarks != len(lms) || stats.ComputeTime <= 0 {
		t.Errorf("stats wrong: %+v", stats)
	}
	for _, l := range lms {
		d := store.Get(l)
		if d == nil {
			t.Fatalf("landmark %d missing", l)
		}
		for ti := range d.Topical {
			lst := d.Topical[ti]
			if lst.Len() > 7 {
				t.Fatalf("list longer than topN: %d", lst.Len())
			}
			if !sort.SliceIsSorted(lst.Sigma, func(i, j int) bool { return lst.Sigma[i] > lst.Sigma[j] }) {
				t.Fatalf("landmark %d topic %d list unsorted", l, ti)
			}
			// Stored values must be a fresh exploration's, rounded to
			// float32 once.
			x := eng.Explore(l, []topics.ID{topics.ID(ti)}, 0)
			for i, v := range lst.Nodes {
				if got, want := float64(lst.Sigma[i]), float64(float32(x.Sigma(v, 0))); !near(got, want) {
					t.Fatalf("σ(λ=%d,%d,t%d) stored %g, fresh %g", l, v, ti, got, want)
				}
				if got, want := float64(lst.Topo[i]), float64(float32(x.TopoB(v))); !near(got, want) {
					t.Fatalf("topo(λ=%d,%d) stored %g, fresh %g", l, v, got, want)
				}
			}
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-9 || d <= 1e-9*m
}

// TestProposition4 checks the landmark combination against literal path
// enumeration: σ̃_λ(u,v,t) must equal the sum of ω_p over paths through λ
// when the exploration and the landmark lists are exhaustive. The algebra
// is exact, so the lists come from the float64 reference mode.
func TestProposition4(t *testing.T) {
	// A small DAG where paths through the landmark are easy to enumerate:
	// u=0 → {1,2} → λ=3 → {4,5} → v=6, plus a direct path 0→6 that must
	// NOT be part of σ̃_λ.
	vocab := topics.MustVocabulary([]string{"x", "y"})
	b := graph.NewBuilder(vocab, 7)
	lbl := topics.NewSet(0)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}, {0, 6}} {
		b.AddEdge(e[0], e[1], lbl)
		b.SetNodeTopics(e[1], lbl)
	}
	g := b.MustFreeze()
	p := core.DefaultParams()
	p.Beta, p.Alpha = 0.3, 0.8
	tax := topics.NewTaxonomyBuilder(vocab).Topic("x", "root").Topic("y", "root").MustBuild()
	eng, err := core.NewEngine(g, authority.Compute(g), tax.SimMatrix(), p)
	if err != nil {
		t.Fatal(err)
	}

	const lambda, u, v = 3, 0, 6
	store, _ := preprocess(eng, []graph.NodeID{lambda}, PreprocessConfig{TopN: 100}, false)
	ap, err := NewApprox(eng, store, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := ap.ScoreCandidates(u, 0, []graph.NodeID{v})[0]

	// Expected: direct paths not through λ (0→6) plus Prop. 4 composition
	// over paths through λ. Enumerate all ω_p(u ❀ v) and split by whether
	// the path passes through λ: here every 4-edge path passes through λ
	// and the only other path is the direct edge.
	all := eng.BruteForceSigma(u, v, 0, 6)
	direct, err := eng.PathScore(core.Path{0, 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	throughLambda := all - direct
	want := direct + throughLambda
	if !near(got, want) {
		t.Fatalf("approx = %g, want %g (direct %g + through-λ %g)", got, want, direct, throughLambda)
	}
}

// TestApproxAgreesOnDAGWithFullStore: on a DAG with every node a landmark
// neighbor and exhaustive lists, the approximate top-k equals the exact
// one.
func TestApproxCloseToExact(t *testing.T) {
	ds := gen.RandomWith(60, 500, 4)
	eng := engineOn(t, ds, 0) // paper beta
	lms, err := Select(ds.Graph, InDeg, 10, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 1000})
	ap, err := NewApprox(eng, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := core.NewRecommender(eng)
	agreeSum, queries := 0.0, 0
	for u := 0; u < 12; u++ {
		uid := graph.NodeID(u)
		if ds.Graph.OutDegree(uid) == 0 {
			continue
		}
		exact := rec.Recommend(uid, 0, 10)
		approx := ap.Recommend(uid, 0, 10)
		if len(exact) == 0 {
			continue
		}
		matched := 0
		em := map[graph.NodeID]bool{}
		for _, s := range exact {
			em[s.Node] = true
		}
		for _, s := range approx {
			if em[s.Node] {
				matched++
			}
		}
		agreeSum += float64(matched) / float64(len(exact))
		queries++
	}
	if queries == 0 {
		t.Skip("no usable query nodes")
	}
	if avg := agreeSum / float64(queries); avg < 0.5 {
		t.Errorf("top-10 overlap with exact = %.2f, want >= 0.5", avg)
	}
}

func TestApproxValidation(t *testing.T) {
	ds := gen.RandomWith(10, 30, 5)
	eng := engineOn(t, ds, 0)
	store := NewStore(ds.Vocabulary().Len(), 10)
	if _, err := NewApprox(eng, store, 0); err == nil {
		t.Error("depth 0 must error")
	}
	bad := NewStore(3, 10)
	if _, err := NewApprox(eng, bad, 2); err == nil {
		t.Error("vocabulary mismatch must error")
	}
}

func TestStoreTruncated(t *testing.T) {
	ds := gen.RandomWith(40, 400, 6)
	eng := engineOn(t, ds, 0.05)
	lms, _ := Select(ds.Graph, Random, 3, DefaultSelectConfig())
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 50})
	small := store.Truncated(5)
	if small.TopN() != 5 {
		t.Fatalf("TopN = %d", small.TopN())
	}
	for _, l := range small.Landmarks() {
		d := small.Get(l)
		full := store.Get(l)
		for ti := range d.Topical {
			if d.Topical[ti].Len() > 5 {
				t.Fatalf("truncated list too long")
			}
			for i := range d.Topical[ti].Nodes {
				if d.Topical[ti].Nodes[i] != full.Topical[ti].Nodes[i] {
					t.Fatal("truncation must keep the best prefix")
				}
			}
		}
	}
	// Truncating must not mutate the original.
	if store.TopN() != 50 {
		t.Error("original store mutated")
	}
}

func TestStorePutValidation(t *testing.T) {
	s := NewStore(4, 10)
	if err := s.Put(&Data{Landmark: 1, Topical: make([]List, 2)}); err == nil {
		t.Error("wrong topical list count must error")
	}
	if err := s.Put(&Data{Landmark: 1, Topical: make([]List, 4)}); err != nil {
		t.Errorf("valid put failed: %v", err)
	}
	if !s.Contains(1) || s.Contains(2) {
		t.Error("Contains wrong")
	}
}

// TestStoreLookupPastLastLandmark: the store indexes its data by node id
// up to its largest landmark; ids below it that are no landmark, and ids
// past it, up to the largest NodeID, are absent, and a replaced landmark
// is listed once.
func TestStoreLookupPastLastLandmark(t *testing.T) {
	s := NewStore(2, 10)
	for _, l := range []graph.NodeID{9, 3, 9} {
		if err := s.Put(&Data{Landmark: l, Topical: make([]List, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 || !slices.Equal(s.Landmarks(), []graph.NodeID{9, 3}) {
		t.Fatalf("landmarks %v, want [9 3]", s.Landmarks())
	}
	for _, id := range []graph.NodeID{0, 4, 8, 10, 11, 1 << 20, math.MaxUint32} {
		if s.Contains(id) || s.Get(id) != nil {
			t.Errorf("id %d: Contains %v, Get %v; want false, nil", id, s.Contains(id), s.Get(id))
		}
	}
	for _, id := range []graph.NodeID{3, 9} {
		if d := s.Get(id); !s.Contains(id) || d == nil || d.Landmark != id {
			t.Errorf("landmark %d not found", id)
		}
	}
	if empty := NewStore(2, 10); empty.Contains(0) || empty.Get(0) != nil {
		t.Error("empty store holds node 0")
	}
}

// TestApproxDeterministic: repeated queries must return bit-identical
// scores — float accumulation follows sorted node order, not map order.
func TestApproxDeterministic(t *testing.T) {
	ds := gen.RandomWith(80, 900, 17)
	eng := engineOn(t, ds, 0)
	lms, err := Select(ds.Graph, InDeg, 8, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 500})
	ap, err := NewApprox(eng, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := ap.Recommend(5, 0, 20)
	for rep := 0; rep < 5; rep++ {
		got := ap.Recommend(5, 0, 20)
		if len(got) != len(ref) {
			t.Fatalf("rep %d: %d results vs %d", rep, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("rep %d rank %d: %+v vs %+v", rep, i, got[i], ref[i])
			}
		}
	}
}

// TestApproxIsLowerBound verifies the bound the paper states under
// Proposition 4: the approximate score never exceeds the exact one. The
// pruned exploration attributes every path to its first landmark (or
// counts it directly when it avoids landmarks within the horizon), so no
// path is double counted, and truncated stores only lose mass.
func TestApproxIsLowerBound(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		ds := gen.RandomWith(40, 300, seed+30)
		eng := engineOn(t, ds, 0.1) // larger beta: differences visible
		lms, err := Select(ds.Graph, Random, 6, SelectConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 1000})
		ap, err := NewApprox(eng, store, 2)
		if err != nil {
			t.Fatal(err)
		}
		for u := graph.NodeID(0); u < 40; u += 7 {
			exact := eng.Explore(u, []topics.ID{0}, 0)
			cands := make([]graph.NodeID, 0, 39)
			for v := graph.NodeID(0); v < 40; v++ {
				if v != u {
					cands = append(cands, v)
				}
			}
			approx := ap.ScoreCandidates(u, 0, cands)
			for i, v := range cands {
				ex := exact.Sigma(v, 0)
				if approx[i] > ex*(1+1e-9)+1e-15 {
					t.Fatalf("seed %d u=%d v=%d: approx %g exceeds exact %g",
						seed, u, v, approx[i], ex)
				}
			}
		}
	}
}
