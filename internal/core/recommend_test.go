package core

import (
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

func TestRecommenderBasics(t *testing.T) {
	f := figure1(t)
	e := f.engine(t, defaultTestParams())
	r := NewRecommender(e)
	if r.Name() != "Tr" {
		t.Errorf("Name = %q", r.Name())
	}
	if r.Engine() != e {
		t.Error("Engine accessor broken")
	}
	recs := r.Recommend(f.A, f.tech, 10)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for _, s := range recs {
		if s.Node == f.A {
			t.Fatal("self recommended")
		}
	}
	// ExcludeFollowed drops B and C.
	rx := NewRecommender(e, WithExcludeFollowed())
	for _, s := range rx.Recommend(f.A, f.tech, 10) {
		if s.Node == f.B || s.Node == f.C {
			t.Fatalf("followed account %d recommended", s.Node)
		}
	}
}

func TestRecommenderDepthCapsScores(t *testing.T) {
	f := figure1(t)
	e := f.engine(t, defaultTestParams())
	// Depth 1 cannot reach D (2 hops away).
	r1 := NewRecommender(e, WithDepth(1))
	for _, s := range r1.Recommend(f.A, f.tech, 10) {
		if s.Node == f.D {
			t.Fatal("depth-1 recommendation reached a 2-hop node")
		}
	}
	scores := r1.ScoreCandidates(f.A, f.tech, []graph.NodeID{f.B, f.D})
	if scores[0] <= 0 {
		t.Error("1-hop candidate should score")
	}
	if scores[1] != 0 {
		t.Error("2-hop candidate must score 0 at depth 1")
	}
}

func TestRecommendQueryWeights(t *testing.T) {
	f := figure1(t)
	e := f.engine(t, defaultTestParams())
	r := NewRecommender(e)
	// Pure-tech query ranks D over E; pure-science query ranks E over D.
	techOnly := r.RecommendQuery(f.A, []QueryTopic{{Topic: f.tech, Weight: 1}}, 10)
	sciOnly := r.RecommendQuery(f.A, []QueryTopic{{Topic: f.science, Weight: 1}}, 10)
	if rank(techOnly, f.D) > rank(techOnly, f.E) {
		t.Errorf("tech query should favor D: %v", techOnly)
	}
	if rank(sciOnly, f.E) > rank(sciOnly, f.D) {
		t.Errorf("science query should favor E: %v", sciOnly)
	}
	// A heavily science-weighted mix flips toward E.
	mixed := r.RecommendQuery(f.A, []QueryTopic{
		{Topic: f.tech, Weight: 0.01}, {Topic: f.science, Weight: 0.99},
	}, 10)
	if rank(mixed, f.E) > rank(mixed, f.D) {
		t.Errorf("science-heavy mix should favor E: %v", mixed)
	}
}

func rank(list []ranking.Scored, n graph.NodeID) int {
	for i, s := range list {
		if s.Node == n {
			return i
		}
	}
	return 1 << 30
}

func TestTopoOnlyRecommenderUsesKatzScore(t *testing.T) {
	ds := gen.RandomWith(20, 120, 3)
	p := DefaultParams()
	p.Beta = 0.05
	p.Variant = TopoOnly
	e, err := NewEngine(ds.Graph, nil, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecommender(e)
	if r.Name() != "Katz" {
		t.Errorf("Name = %q", r.Name())
	}
	x := e.Explore(5, []topics.ID{0}, 0)
	cands := []graph.NodeID{1, 2, 3}
	scores := r.ScoreCandidates(5, 0, cands)
	for i, c := range cands {
		if scores[i] != x.TopoB(c) {
			t.Fatalf("TopoOnly must rank by topo_β: got %g want %g", scores[i], x.TopoB(c))
		}
	}
}

func TestEngineValidation(t *testing.T) {
	ds := gen.RandomWith(10, 30, 1)
	auth := authority.Compute(ds.Graph)
	bad := []Params{
		{Beta: 0, Alpha: 0.5, MaxDepth: 2, Variant: TrFull},
		{Beta: 1, Alpha: 0.5, MaxDepth: 2, Variant: TrFull},
		{Beta: 0.1, Alpha: 0, MaxDepth: 2, Variant: TrFull},
		{Beta: 0.1, Alpha: 1.5, MaxDepth: 2, Variant: TrFull},
		{Beta: 0.1, Alpha: 0.5, MaxDepth: 0, Variant: TrFull},
		{Beta: 0.1, Alpha: 0.5, MaxDepth: 2, Tol: -1, Variant: TrFull},
	}
	for i, p := range bad {
		if _, err := NewEngine(ds.Graph, auth, ds.Sim, p); err == nil {
			t.Errorf("params %d should be rejected", i)
		}
	}
	good := DefaultParams()
	if _, err := NewEngine(ds.Graph, nil, ds.Sim, good); err == nil {
		t.Error("TrFull without authority must be rejected")
	}
	if _, err := NewEngine(ds.Graph, auth, nil, good); err == nil {
		t.Error("TrFull without similarity must be rejected")
	}
	other := topics.MustVocabulary([]string{"a", "b"})
	otherTax := topics.NewTaxonomyBuilder(other).Topic("a", "root").Topic("b", "root").MustBuild()
	if _, err := NewEngine(ds.Graph, auth, otherTax.SimMatrix(), good); err == nil {
		t.Error("similarity matrix size mismatch must be rejected")
	}
	// Accessors.
	e, err := NewEngine(ds.Graph, auth, ds.Sim, good)
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph() != ds.Graph || e.Similarity() != ds.Sim {
		t.Error("accessors broken")
	}
	if e.Params().Beta != good.Beta {
		t.Error("Params accessor broken")
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{TrFull: "Tr", TrNoAuth: "Tr-auth", TrNoSim: "Tr-sim", TopoOnly: "Katz", Variant(9): "Variant(9)"}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestExplorationAccessors(t *testing.T) {
	f := figure1(t)
	e := f.engine(t, defaultTestParams())
	x := e.Explore(f.A, []topics.ID{f.tech, f.science}, 0)
	if x.TopicIndex(f.science) != 1 || x.TopicIndex(f.social) != -1 {
		t.Error("TopicIndex wrong")
	}
	row := x.SigmaRow(f.D)
	if len(row) != 2 || row[0] != x.Sigma(f.D, 0) {
		t.Error("SigmaRow inconsistent")
	}
	if x.SigmaRow(f.F) != nil {
		t.Error("unreached node must have nil row")
	}
}
