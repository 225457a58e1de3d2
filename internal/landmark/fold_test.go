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
				acc[w] += sigmaUL*float64(lst.Topo[i]) + topoUL*float64(lst.Sigma[i])
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

// raceEnabled is set under the race detector (race_test.go): the
// float32 contract tests then sample their queries and fixtures, since
// the detector slows the fold tenfold and the full sweep runs in the
// plain test pass.
var raceEnabled bool

// refList is one landmark list as its exploration scored it, before the
// float32 rounding: the reference the float32 contract is stated
// against. It is built here only; no program keeps float64 lists.
type refList struct {
	nodes       []graph.NodeID
	sigma, topo []float64
}

// unroundedLists runs the explorations Preprocess runs for lms and
// selects each topic's top-n from them as listBuilder.list does, keeping
// the float64 values: refs[i][t] is landmark lms[i]'s list on topic t.
func unroundedLists(eng *core.Engine, lms []graph.NodeID, topN int) [][]refList {
	refs := make([][]refList, len(lms))
	explore(eng, lms, nil, PreprocessConfig{TopN: topN}, true, func(i int, _ *listBuilder, x *core.Exploration) {
		refs[i] = make([]refList, len(x.Topics))
		for ti := range x.Topics {
			var cand []ranking.Scored
			for _, v := range x.Reached {
				if sc := x.Sigma(v, ti); sc > 0 {
					cand = append(cand, ranking.Scored{Node: v, Score: sc})
				}
			}
			var r refList
			for _, e := range ranking.SelectTop(cand, topN) {
				r.nodes = append(r.nodes, e.Node)
				r.sigma = append(r.sigma, e.Score)
				r.topo = append(r.topo, x.TopoB(e.Node))
			}
			refs[i][ti] = r
		}
	})
	return refs
}

// refFold answers a top-n query like Approx.Query, folding the unrounded
// lists: the exploration's own scores, then every met landmark's terms
// in Reached order, each list in rank order (FoldLists' order), into a
// dense buffer the caller owns and that refFold leaves zeroed.
func refFold(a *Approx, refs map[graph.NodeID][]refList, buf []float64, u graph.NodeID, t topics.ID, n int) []ranking.Scored {
	pool := a.eng.Scratches()
	s := pool.Get()
	defer pool.Put(s)
	x := a.eng.ExploreOpts(u, []topics.ID{t}, core.ExploreOptions{MaxDepth: a.depth, Stop: a.store.Contains, Scratch: s})
	var touched []graph.NodeID
	add := func(v graph.NodeID, d float64) {
		if buf[v] == 0 {
			touched = append(touched, v)
		}
		buf[v] += d
	}
	for _, v := range x.Reached {
		if sc := x.Sigma(v, 0); sc > 0 {
			add(v, sc)
		}
	}
	for _, v := range x.Reached {
		lists, ok := refs[v]
		if !ok {
			continue
		}
		sigmaUL, topoUL := x.Sigma(v, 0), x.TopoAB(v)
		r := lists[t]
		for i, w := range r.nodes {
			if d := sigmaUL*r.topo[i] + topoUL*r.sigma[i]; w != u && d > 0 {
				add(w, d)
			}
		}
	}
	g := a.eng.Norm(t)
	top := ranking.NewTopN(n)
	for _, v := range touched {
		top.Insert(v, g*buf[v])
		buf[v] = 0
	}
	return top.List()
}

// TestFloat32ListsKeepAnswers is the contract of the float32 list
// columns: 30 In-Deg landmarks with top-500 lists on the 2000- and
// 8000-node graphs, every user on two topics, top-10 answers. Against
// answers folded from the unrounded lists, membership is identical,
// order is identical except adjacent pairs whose float64 scores are
// within 1e-6 relative, and every score is within 1e-6 relative. The
// stored lists are the unrounded ones with each value rounded once: the
// same nodes in the same (float64) order. Under the race detector every
// 16th user of the 2000-node graph is asked.
func TestFloat32ListsKeepAnswers(t *testing.T) {
	const tol, topN, n = 1e-6, 500, 10
	graphs, stride := []int{2000, 8000}, 1
	if raceEnabled {
		graphs, stride = graphs[:1], 16
	}
	for _, nodes := range graphs {
		eng, ds := benchSetup(t, nodes)
		lms, err := Select(ds.Graph, InDeg, 30, DefaultSelectConfig())
		if err != nil {
			t.Fatal(err)
		}
		store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: topN})
		refs := make(map[graph.NodeID][]refList, len(lms))
		for i, r := range unroundedLists(eng, lms, topN) {
			refs[lms[i]] = r
			for ti, want := range r {
				got := store.Get(lms[i]).Topical[ti]
				if !slices.Equal(got.Nodes, want.nodes) {
					t.Fatalf("g%d λ=%d t=%d: stored list is not the float64 ranking", nodes, lms[i], ti)
				}
				for k := range want.nodes {
					if got.Sigma[k] != float32(want.sigma[k]) || got.Topo[k] != float32(want.topo[k]) {
						t.Fatalf("g%d λ=%d t=%d entry %d: stored (%g, %g), rounding of (%g, %g)",
							nodes, lms[i], ti, k, got.Sigma[k], got.Topo[k], want.sigma[k], want.topo[k])
					}
				}
			}
		}
		a, err := NewApprox(eng, store, 2)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, nodes)
		vocab := ds.Graph.Vocabulary().Len()
		swaps, worst, queries := 0, 0.0, 0
		for u := 0; u < nodes; u += stride {
			for _, tp := range []topics.ID{topics.ID(u % vocab), topics.ID((u + vocab/2) % vocab)} {
				queries++
				got := a.Query(graph.NodeID(u), tp, n).Scores
				want := refFold(a, refs, buf, graph.NodeID(u), tp, n)
				if len(got) != len(want) {
					t.Fatalf("g%d u=%d t=%d: %d answers, unrounded lists give %d", nodes, u, tp, len(got), len(want))
				}
				at := make(map[graph.NodeID]int, len(want))
				for j, e := range want {
					at[e.Node] = j
				}
				for i, e := range got {
					j, ok := at[e.Node]
					if !ok {
						t.Fatalf("g%d u=%d t=%d: node %d answered, not in the unrounded top-%d %v", nodes, u, tp, e.Node, n, want)
					}
					if err := relErr(e.Score, want[j].Score); err > tol {
						t.Fatalf("g%d u=%d t=%d node %d: score %.17g, unrounded %.17g (relative error %g)",
							nodes, u, tp, e.Node, e.Score, want[j].Score, err)
					} else {
						worst = max(worst, err)
					}
					if j != i {
						if d := j - i; (d != 1 && d != -1) || relErr(want[i].Score, want[j].Score) > tol {
							t.Fatalf("g%d u=%d t=%d: rank %d holds node %d, ranked %d on unrounded lists (%.17g vs %.17g)",
								nodes, u, tp, i, e.Node, j, want[i].Score, want[j].Score)
						}
						swaps++
					}
				}
			}
		}
		t.Logf("g%d: %d queries, %d ranks moved within a near-tie, largest relative score change %.2g", nodes, queries, swaps, worst)
	}
}
