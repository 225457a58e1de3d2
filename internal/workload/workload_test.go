package workload

import (
	"testing"

	"repro/internal/gen"
)

func TestGenerate(t *testing.T) {
	ds := gen.RandomWith(80, 800, 1)
	cfg := DefaultConfig()
	cfg.Queries = 100
	qs, err := Generate(ds.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 100 {
		t.Fatalf("%d queries", len(qs))
	}
	for _, q := range qs {
		if ds.Graph.OutDegree(q.User) < cfg.MinOutDegree {
			t.Fatalf("query user %d below activity floor", q.User)
		}
		if int(q.Topic) >= ds.Vocabulary().Len() {
			t.Fatalf("topic %d out of range", q.Topic)
		}
		if q.TopN != cfg.TopN {
			t.Fatal("TopN not propagated")
		}
	}
	// Deterministic under the seed.
	qs2, _ := Generate(ds.Graph, cfg)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("stream not deterministic")
		}
	}
}

func TestGenerateTopicBias(t *testing.T) {
	cfg0 := gen.DefaultTwitterConfig()
	cfg0.Nodes = 500
	ds, err := gen.Twitter(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Queries = 3000
	qs, err := Generate(ds.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, ds.Vocabulary().Len())
	for _, q := range qs {
		counts[q.Topic]++
	}
	tech := counts[ds.Vocabulary().MustLookup("technology")]
	social := counts[ds.Vocabulary().MustLookup("social")]
	if tech <= 3*social {
		t.Errorf("biased stream expected: tech %d vs social %d", tech, social)
	}
}

func TestGenerateNoActiveUsers(t *testing.T) {
	ds := gen.RandomWith(10, 5, 2)
	cfg := DefaultConfig()
	cfg.MinOutDegree = 100
	if _, err := Generate(ds.Graph, cfg); err == nil {
		t.Error("impossible activity floor must error")
	}
}
