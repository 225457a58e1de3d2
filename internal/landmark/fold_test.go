package landmark

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// mapFold is the reference fold: Algorithm 2's combination summed into a
// per-query map, the form landmark queries took before the dense fold
// buffer, each sum multiplied by g(t) once at the end. The exploration is
// copied out of a pooled scratch, so it shares nothing with the fold
// under test.
func mapFold(a *Approx, u graph.NodeID, t topics.ID) (map[graph.NodeID]float64, int) {
	x := a.eng.ExploreOpts(u, []topics.ID{t}, core.ExploreOptions{MaxDepth: a.depth, Stop: a.store.Contains})
	acc := make(map[graph.NodeID]float64, len(x.Reached)*2)
	for _, v := range x.Reached {
		if s := x.Sigma(v, 0); s > 0 {
			acc[v] = s
		}
	}
	met := 0
	for _, v := range x.Reached {
		d := a.store.Get(v)
		if d == nil {
			continue
		}
		met++
		sigmaUL, topoUL := x.Sigma(v, 0), x.TopoAB(v)
		lst := &d.Topical[t]
		for i, w := range lst.Nodes {
			if w != u {
				acc[w] += sigmaUL*lst.Topo[i] + topoUL*lst.Sigma[i]
			}
		}
	}
	g := a.eng.Norm(t)
	for v := range acc {
		acc[v] *= g
	}
	return acc, met
}

// checkFold compares Query (the full ranking, node and score with ==,
// and LandmarksMet) and ScoreCandidates over every node against mapFold.
func checkFold(t *testing.T, label string, a *Approx, u graph.NodeID, tp topics.ID) {
	t.Helper()
	want, met := mapFold(a, u, tp)
	n := a.eng.Graph().NumNodes()
	top := ranking.NewTopN(n)
	for v, s := range want {
		if v != u && s > 0 {
			top.Insert(v, s)
		}
	}
	wantList := top.List()
	got := a.Query(u, tp, n)
	if got.LandmarksMet != met {
		t.Fatalf("%s u=%d t=%d: %d landmarks met, reference %d", label, u, tp, got.LandmarksMet, met)
	}
	if !slices.Equal(got.Scores, wantList) {
		t.Fatalf("%s u=%d t=%d: dense fold ranks %d nodes, map fold %d, or a node or score differs",
			label, u, tp, len(got.Scores), len(wantList))
	}
	cands := make([]graph.NodeID, n)
	for i := range cands {
		cands[i] = graph.NodeID(i)
	}
	for i, s := range a.ScoreCandidates(u, tp, cands) {
		if s != want[graph.NodeID(i)] {
			t.Fatalf("%s u=%d t=%d: candidate %d scores %.17g, map fold %.17g", label, u, tp, i, s, want[graph.NodeID(i)])
		}
	}
}

func newApprox(t *testing.T, eng *core.Engine, k, topN int) *Approx {
	t.Helper()
	lms, err := Select(eng.Graph().(*graph.Graph), InDeg, k, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: topN})
	a, err := NewApprox(eng, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDenseFoldMatchesMapFold: the dense fold buffer adds every node's
// terms in the map fold's order (direct σ, then landmark lists in
// Reached order), so every answer is bit-identical to it. All queries of
// one engine run through its pooled scratch, so a fold buffer that went
// back dirty, or a fold in another order, shows as a mismatch.
func TestDenseFoldMatchesMapFold(t *testing.T) {
	small := newApprox(t, engineOn(t, gen.RandomWith(90, 1100, 5), 0), 6, 25)
	vocab := small.eng.Graph().Vocabulary().Len()
	for u := 0; u < small.eng.Graph().NumNodes(); u++ {
		for tp := 0; tp < vocab; tp++ {
			checkFold(t, "random", small, graph.NodeID(u), topics.ID(tp))
		}
	}

	eng, _ := benchSetup(t, 2000)
	g2k := newApprox(t, eng, 12, 200)
	vocab = eng.Graph().Vocabulary().Len()
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 150; i++ {
		checkFold(t, "g2k", g2k, graph.NodeID(rng.Intn(2000)), topics.ID(rng.Intn(vocab)))
	}

	// A landmark as the query node, and a node that a landmark lists on
	// the query topic (its own entry is skipped, the others still fold).
	lm := g2k.store.Landmarks()[0]
	for tp := 0; tp < vocab; tp++ {
		checkFold(t, "g2k landmark user", g2k, lm, topics.ID(tp))
		if lst := g2k.store.Get(lm).Topical[tp]; lst.Len() > 0 {
			checkFold(t, "g2k listed user", g2k, lst.Nodes[0], topics.ID(tp))
		}
	}

	// Two engines of different node counts, alternating in one process:
	// each folds in its own engine's pool.
	for i := 0; i < 60; i++ {
		checkFold(t, "alternating random", small, graph.NodeID(rng.Intn(90)), topics.ID(rng.Intn(small.eng.Graph().Vocabulary().Len())))
		checkFold(t, "alternating g2k", g2k, graph.NodeID(rng.Intn(2000)), topics.ID(rng.Intn(vocab)))
	}
}

// TestCheckNodes: a store adopted for a graph must name only its nodes,
// with non-negative scores; the preprocessed store passes.
func TestCheckNodes(t *testing.T) {
	a := newApprox(t, engineOn(t, gen.RandomWith(60, 600, 3), 0), 4, 10)
	n := a.eng.Graph().NumNodes()
	if err := a.store.CheckNodes(n); err != nil {
		t.Fatalf("preprocessed store rejected: %v", err)
	}
	lm := a.store.Landmarks()[0]
	edit := func(f func(l *List)) *Store {
		s := a.store.Subset(func(graph.NodeID) bool { return true })
		d := *s.Get(lm)
		d.Topical = slices.Clone(d.Topical)
		l := d.Topical[0]
		l = List{Nodes: slices.Clone(l.Nodes), Sigma: slices.Clone(l.Sigma), Topo: slices.Clone(l.Topo)}
		f(&l)
		d.Topical[0] = l
		if err := s.Put(&d); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if edit(func(l *List) { l.append1(graph.NodeID(n), 0.5, 0.5) }).CheckNodes(n) == nil {
		t.Error("store listing node n accepted")
	}
	if edit(func(l *List) { l.append1(0, -1, 0.5) }).CheckNodes(n) == nil {
		t.Error("negative σ accepted")
	}
	if edit(func(l *List) { l.append1(0, 0.5, 0) }).CheckNodes(n) != nil {
		t.Error("zero topo rejected")
	}
	outside := NewStore(a.store.VocabLen(), 10)
	if err := outside.Put(&Data{Landmark: graph.NodeID(n), Topical: make([]List, a.store.VocabLen())}); err != nil {
		t.Fatal(err)
	}
	if outside.CheckNodes(n) == nil {
		t.Error("landmark n accepted")
	}
}
