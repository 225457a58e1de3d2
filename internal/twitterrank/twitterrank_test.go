package twitterrank

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

func mustNew(t *testing.T, in *Input) *Recommender {
	t.Helper()
	r, err := New(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRankIsDistribution(t *testing.T) {
	ds := gen.RandomWith(40, 300, 1)
	r := mustNew(t, InputFromProfiles(ds.Graph))
	for ti := 0; ti < ds.Vocabulary().Len(); ti += 6 {
		rank := r.Rank(topics.ID(ti))
		sum := 0.0
		for _, v := range rank {
			if v < 0 {
				t.Fatalf("negative rank mass at topic %d", ti)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("topic %d rank mass = %g, want 1", ti, sum)
		}
	}
}

func TestRankCached(t *testing.T) {
	ds := gen.RandomWith(20, 100, 2)
	r := mustNew(t, InputFromProfiles(ds.Graph))
	a := r.Rank(0)
	b := r.Rank(0)
	if &a[0] != &b[0] {
		t.Error("Rank must cache per topic")
	}
}

func TestTopicalTeleportBias(t *testing.T) {
	// Star: everyone follows node 0 (topic "a") and node 1 (topic "b")
	// equally; on topic "a" node 0 must outrank node 1.
	vocab := topics.MustVocabulary([]string{"a", "b"})
	b := graph.NewBuilder(vocab, 10)
	b.SetNodeTopics(0, topics.NewSet(0))
	b.SetNodeTopics(1, topics.NewSet(1))
	for u := 2; u < 10; u++ {
		b.SetNodeTopics(graph.NodeID(u), topics.NewSet(0, 1))
		b.AddEdge(graph.NodeID(u), 0, topics.NewSet(0))
		b.AddEdge(graph.NodeID(u), 1, topics.NewSet(1))
	}
	g := b.MustFreeze()
	r := mustNew(t, InputFromProfiles(g))
	rank := r.Rank(0)
	if rank[0] <= rank[1] {
		t.Errorf("on topic a, node 0 (%g) must outrank node 1 (%g)", rank[0], rank[1])
	}
	rank = r.Rank(1)
	if rank[1] <= rank[0] {
		t.Errorf("on topic b, node 1 (%g) must outrank node 0 (%g)", rank[1], rank[0])
	}
}

func TestPopularityBias(t *testing.T) {
	// Two accounts on the same topic; one has 10× the followers. The
	// popular one must rank higher — the behaviour the paper's analysis
	// leans on.
	vocab := topics.MustVocabulary([]string{"a"})
	b := graph.NewBuilder(vocab, 30)
	b.SetNodeTopics(0, topics.NewSet(0))
	b.SetNodeTopics(1, topics.NewSet(0))
	for u := 2; u < 22; u++ {
		b.SetNodeTopics(graph.NodeID(u), topics.NewSet(0))
		b.AddEdge(graph.NodeID(u), 0, topics.NewSet(0))
	}
	b.AddEdge(22, 1, topics.NewSet(0))
	g := b.MustFreeze()
	r := mustNew(t, InputFromProfiles(g))
	rank := r.Rank(0)
	if rank[0] <= rank[1] {
		t.Errorf("popular account must outrank: %g vs %g", rank[0], rank[1])
	}
}

func TestGlobalNotPersonalized(t *testing.T) {
	ds := gen.RandomWith(30, 200, 4)
	r := mustNew(t, InputFromProfiles(ds.Graph))
	cands := []graph.NodeID{1, 2, 3, 4, 5}
	a := r.ScoreCandidates(7, 0, cands)
	b := r.ScoreCandidates(23, 0, cands)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TwitterRank must be independent of the query user")
		}
	}
}

func TestRecommendExcludesSelf(t *testing.T) {
	ds := gen.RandomWith(25, 150, 5)
	r := mustNew(t, InputFromProfiles(ds.Graph))
	for _, s := range r.Recommend(3, 0, 25) {
		if s.Node == 3 {
			t.Fatal("Recommend must exclude the query user")
		}
	}
	if r.Name() != "TwitterRank" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestNewValidation(t *testing.T) {
	ds := gen.RandomWith(10, 30, 6)
	in := InputFromProfiles(ds.Graph)
	bad := *in
	bad.Tweets = bad.Tweets[:3]
	if _, err := New(&bad, DefaultParams()); err == nil {
		t.Error("short Tweets must error")
	}
	bad2 := *in
	bad2.TopicDist = bad2.TopicDist[:7]
	if _, err := New(&bad2, DefaultParams()); err == nil {
		t.Error("short TopicDist must error")
	}
	p := DefaultParams()
	p.Gamma = 1.5
	if _, err := New(in, p); err == nil {
		t.Error("bad Gamma must error")
	}
	p = DefaultParams()
	p.MaxIters = 0
	if _, err := New(in, p); err == nil {
		t.Error("bad MaxIters must error")
	}
}

func TestDanglingNodes(t *testing.T) {
	// A graph where node 1 has no followees: its mass must teleport, and
	// the rank must still be a distribution.
	vocab := topics.MustVocabulary([]string{"a"})
	b := graph.NewBuilder(vocab, 3)
	b.SetNodeTopics(0, topics.NewSet(0))
	b.SetNodeTopics(1, topics.NewSet(0))
	b.SetNodeTopics(2, topics.NewSet(0))
	b.AddEdge(0, 1, topics.NewSet(0))
	b.AddEdge(2, 1, topics.NewSet(0))
	g := b.MustFreeze()
	r := mustNew(t, InputFromProfiles(g))
	rank := r.Rank(0)
	sum := 0.0
	for _, v := range rank {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("mass = %g with dangling node, want 1", sum)
	}
	if rank[1] <= rank[0] {
		t.Error("the followed account must accumulate rank")
	}
}

func TestEmptyTopicTeleportsUniformly(t *testing.T) {
	// No user has mass on topic... use a vocabulary with an unused topic.
	vocab := topics.MustVocabulary([]string{"a", "unused"})
	b := graph.NewBuilder(vocab, 4)
	for u := 0; u < 4; u++ {
		b.SetNodeTopics(graph.NodeID(u), topics.NewSet(0))
	}
	b.AddEdge(0, 1, topics.NewSet(0))
	g := b.MustFreeze()
	r := mustNew(t, InputFromProfiles(g))
	rank := r.Rank(1)
	sum := 0.0
	for _, v := range rank {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("unused-topic mass = %g, want 1", sum)
	}
}
