package tr_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/store"
	"repro/tr"
)

func buildSystem(t *testing.T, index int) (*tr.System, tr.Topic) {
	t.Helper()
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 800
	cfg.Seed = 21
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tr.NewSystem(ds.Graph, ds.Taxonomy, tr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if index > 0 {
		if err := sys.BuildIndex(index); err != nil {
			t.Fatal(err)
		}
	}
	return sys, sys.Vocabulary().MustLookup("technology")
}

func TestSystemExactRecommend(t *testing.T) {
	sys, tech := buildSystem(t, 0)
	if sys.HasIndex() {
		t.Fatal("no index was requested")
	}
	recs, err := sys.Recommend(3, tech, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for _, s := range recs {
		if s.Node == 3 {
			t.Fatal("self recommended")
		}
		if sys.Graph().HasEdge(3, s.Node) {
			t.Fatal("already-followed account recommended")
		}
	}
	// Score is consistent with the ranking.
	s0, err := sys.Score(3, recs[0].Node, tech)
	if err != nil {
		t.Fatal(err)
	}
	if s0 != recs[0].Score {
		t.Errorf("Score = %g, ranked %g", s0, recs[0].Score)
	}
}

func TestSystemIndexedRecommend(t *testing.T) {
	sys, tech := buildSystem(t, 12)
	if !sys.HasIndex() {
		t.Fatal("index missing")
	}
	approx, err := sys.Recommend(3, tech, 10)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sys.RecommendExact(3, tech, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) == 0 || len(exact) == 0 {
		t.Fatal("empty recommendations")
	}
	// The two rankings must overlap substantially.
	in := map[tr.NodeID]bool{}
	for _, s := range exact {
		in[s.Node] = true
	}
	hit := 0
	for _, s := range approx {
		if in[s.Node] {
			hit++
		}
	}
	if float64(hit)/float64(len(exact)) < 0.4 {
		t.Errorf("approximate overlap %d/%d too low", hit, len(exact))
	}
}

func TestSystemIndexRoundTrip(t *testing.T) {
	sys, tech := buildSystem(t, 8)
	var buf bytes.Buffer
	if err := sys.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	before, err := sys.Recommend(5, tech, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadIndex(&buf); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Recommend(5, tech, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatal("reloaded index changed results")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("reloaded index changed results")
		}
	}
}

// TestLoadIndexRejectsForeignNodes: an index naming an account the
// system's graph lacks (one built for a larger graph) is rejected, and
// the index already loaded keeps answering.
func TestLoadIndexRejectsForeignNodes(t *testing.T) {
	sys, tech := buildSystem(t, 8)
	var buf bytes.Buffer
	if err := sys.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	idx, err := store.ReadLandmarks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lm := idx.Landmarks()[0]
	d := *idx.Get(lm)
	d.Topical = slices.Clone(d.Topical)
	d.Topical[tech] = landmark.List{
		Nodes: []graph.NodeID{graph.NodeID(sys.Graph().NumNodes())},
		Sigma: []float32{1},
		Topo:  []float32{1},
	}
	if err := idx.Put(&d); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := store.WriteLandmarks(&buf, idx); err != nil {
		t.Fatal(err)
	}
	before, err := sys.Recommend(5, tech, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadIndex(&buf); err == nil {
		t.Fatal("index listing node n loaded")
	}
	after, err := sys.Recommend(5, tech, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatal("a rejected index changed results")
	}
}

func TestSystemMultiTopicQuery(t *testing.T) {
	sys, tech := buildSystem(t, 0)
	science := sys.Vocabulary().MustLookup("science")
	recs, err := sys.RecommendQuery(3, map[tr.Topic]float64{tech: 0.7, science: 0.3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("multi-topic query empty")
	}
	if _, err := sys.RecommendQuery(3, nil, 5); err == nil {
		t.Error("empty query must error")
	}
}

func TestSystemValidation(t *testing.T) {
	sys, tech := buildSystem(t, 0)
	if _, err := sys.Recommend(99999, tech, 5); err == nil {
		t.Error("unknown user must error")
	}
	if _, err := sys.Recommend(1, tr.Topic(200), 5); err == nil {
		t.Error("unknown topic must error")
	}
	if err := sys.SaveIndex(&bytes.Buffer{}); err == nil {
		t.Error("SaveIndex without an index must error")
	}
	if _, err := tr.NewSystem(nil, nil, tr.DefaultOptions()); err == nil {
		t.Error("nil inputs must error")
	}
	other := tr.CSTaxonomy()
	if _, err := tr.NewSystem(sys.Graph(), other, tr.DefaultOptions()); err != nil {
		// Same vocabulary size (18) — allowed structurally; semantic
		// mismatch is the caller's responsibility. A differently-sized
		// vocabulary must fail:
		t.Fatalf("same-size taxonomy rejected: %v", err)
	}
	small, _ := tr.NewVocabulary([]string{"a"})
	b := tr.NewGraphBuilder(small, 2)
	b.AddEdge(0, 1, tr.TopicsOf(0))
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.NewSystem(g, tr.WebTaxonomy(), tr.DefaultOptions()); err == nil {
		t.Error("vocabulary size mismatch must error")
	}
}

func TestPublicGraphBuilding(t *testing.T) {
	// The documented package-level flow, end to end through aliases only.
	tax := tr.WebTaxonomy()
	tech := tax.Vocabulary().MustLookup("technology")
	b := tr.NewGraphBuilder(tax.Vocabulary(), 3)
	b.SetNodeTopics(1, tr.TopicsOf(tech))
	b.AddEdge(0, 1, tr.TopicsOf(tech))
	b.AddEdge(2, 1, tr.TopicsOf(tech))
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tr.NewSystem(g, tax, tr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sys.Recommend(0, tech, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		// 0 already follows 1 and nothing else is reachable: with
		// exclude-followed semantics the list is empty.
		t.Fatalf("expected no recommendations, got %v", recs)
	}
	// Graph round trip through the public alias.
	var buf bytes.Buffer
	if _, err := tr.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ReadGraph(&buf); err != nil {
		t.Fatal(err)
	}
}
