package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/landmark"
)

// tinyConfig keeps every driver fast enough for the unit-test suite.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Twitter.Nodes = 1200
	cfg.DBLP.Authors = 1000
	cfg.Protocol.Trials = 1
	cfg.Protocol.TestSize = 12
	cfg.Protocol.Negatives = 200
	cfg.Landmarks = 5
	cfg.StoreTopN = 100
	cfg.QueryNodes = 4
	return cfg
}

func TestLookupAndIDs(t *testing.T) {
	if len(All()) != 16 {
		t.Fatalf("%d experiments registered", len(All()))
	}
	for _, e := range All() {
		got, ok := Lookup(e.ID)
		if !ok || got.Title != e.Title {
			t.Fatalf("Lookup(%q) broken", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown id must fail")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs incomplete")
	}
}

func TestTable2AndFig3(t *testing.T) {
	r := NewRunner(tinyConfig())
	t2, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if t2.Twitter.Nodes != 1200 || t2.DBLP.Nodes != 1000 {
		t.Errorf("sizes wrong: %+v", t2)
	}
	if !strings.Contains(t2.String(), "max in-degree") {
		t.Error("Table2 rendering incomplete")
	}
	f3, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if f3.Skew() < 3 {
		t.Errorf("edge-topic skew %.1f too flat for Figure 3", f3.Skew())
	}
	for i := 1; i < len(f3.Counts); i++ {
		if f3.Counts[i] > f3.Counts[i-1] {
			t.Error("Fig3 counts must be descending")
		}
	}
}

func TestFig4ShapeTwitter(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(tinyConfig())
	res, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 5 {
		t.Fatalf("%d curves, want Tr/Katz/TwitterRank/Tr-auth/Tr-sim", len(res.Curves))
	}
	tr, _ := res.CurveFor("Tr")
	twr, _ := res.CurveFor("TwitterRank")
	// The paper's headline: Tr outperforms TwitterRank decisively at 10.
	if tr.RecallAt(10) <= twr.RecallAt(10) {
		t.Errorf("Tr (%.2f) must beat TwitterRank (%.2f) at 10", tr.RecallAt(10), twr.RecallAt(10))
	}
	if tr.RecallAt(10) == 0 {
		t.Error("Tr recall must be positive")
	}
	if !strings.Contains(res.String(), "Tr R") {
		t.Error("rendering incomplete")
	}
}

func TestFig10AndTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(tinyConfig())
	f10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Results) != 3 {
		t.Fatalf("%d methods rated", len(f10.Results))
	}
	trm, ok := f10.ResultFor("Tr")
	if !ok || trm.Marks == 0 {
		t.Fatal("Tr unrated")
	}
	kz, _ := f10.ResultFor("Katz")
	if trm.Avg <= kz.Avg {
		t.Errorf("Fig10: Tr (%.2f) must out-rate Katz (%.2f)", trm.Avg, kz.Avg)
	}
	if !strings.Contains(f10.String(), "average mark") {
		t.Error("rendering incomplete")
	}

	t3, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	trd, _ := t3.ResultFor("Tr")
	twr, _ := t3.ResultFor("TwitterRank")
	if trd.Avg <= twr.Avg {
		t.Errorf("Table3: Tr (%.2f) must out-rate TwitterRank (%.2f)", trd.Avg, twr.Avg)
	}
}

func TestTable5And6(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(tinyConfig())
	t5, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != len(landmark.Strategies) {
		t.Fatalf("%d rows, want %d", len(t5.Rows), len(landmark.Strategies))
	}
	var random, central Table5Row
	for _, row := range t5.Rows {
		if row.ComputePerLandmark <= 0 {
			t.Errorf("%s: no computation time", row.Strategy)
		}
		switch row.Strategy {
		case landmark.Random:
			random = row
		case landmark.Central:
			central = row
		}
	}
	// Coverage-based selection costs orders of magnitude more than random
	// sampling (the paper's headline from Table 5).
	if central.SelectPerLandmark < 20*random.SelectPerLandmark {
		t.Errorf("Central select (%s) should dwarf Random (%s)",
			central.SelectPerLandmark, random.SelectPerLandmark)
	}

	t6, err := r.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != len(landmark.Strategies) {
		t.Fatalf("%d rows", len(t6.Rows))
	}
	for _, row := range t6.Rows {
		if row.Gain < 1 {
			t.Errorf("%s: approximate computation slower than exact (gain %.1f)", row.Strategy, row.Gain)
		}
		for _, size := range []int{10, 100, 1000} {
			tau := row.Tau[size]
			if tau < 0 || tau > 1 {
				t.Errorf("%s: tau(L%d) = %g out of range", row.Strategy, size, tau)
			}
		}
	}
	if !strings.Contains(t6.String(), "gain") {
		t.Error("rendering incomplete")
	}
}

func TestPipelineExperiment(t *testing.T) {
	r := NewRunner(tinyConfig())
	res, err := r.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if res.Inner.Classifier.Precision < 0.5 {
		t.Errorf("pipeline precision %.2f unreasonably low", res.Inner.Classifier.Precision)
	}
	if !strings.Contains(res.String(), "precision") {
		t.Error("rendering incomplete")
	}
}

func TestRunAndPrintUnknown(t *testing.T) {
	r := NewRunner(tinyConfig())
	var sb strings.Builder
	if err := RunAndPrint(&sb, r, "zzz"); err == nil {
		t.Error("unknown experiment must error")
	}
	if err := RunAndPrint(&sb, r, "table2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 2") {
		t.Error("output missing title")
	}
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(tinyConfig())
	dyn, err := r.ExtDynamic()
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Rows) != 3 {
		t.Fatalf("%d dynamic rows", len(dyn.Rows))
	}
	var eager, lazy DynamicRow
	for _, row := range dyn.Rows {
		switch row.Strategy.String() {
		case "Eager":
			eager = row
		case "Lazy":
			lazy = row
		}
	}
	if eager.Refreshes == 0 {
		t.Error("eager must refresh")
	}
	// Lazy refreshes one topic's list at a time; eager rewrites every list
	// of a landmark.
	tw, err := r.TwitterDataset()
	if err != nil {
		t.Fatal(err)
	}
	T := tw.Graph.Vocabulary().Len()
	if lazy.Refreshes != 0 || lazy.TopicRefreshes >= eager.Refreshes*T {
		t.Errorf("lazy (%d whole and %d topic refreshes) must do less work than eager (%d landmarks × %d topics)",
			lazy.Refreshes, lazy.TopicRefreshes, eager.Refreshes, T)
	}
	if !strings.Contains(dyn.String(), "refreshes") {
		t.Error("rendering incomplete")
	}

	dist, err := r.ExtDistrib()
	if err != nil {
		t.Fatal(err)
	}
	if dist.BytesPerQuery <= 0 {
		t.Errorf("bytes/query %g, want positive", dist.BytesPerQuery)
	}
	// Id mod P spreads the scoring: no shard may carry more than a
	// quarter over its fair share of the partial entries.
	if bound := 1.25 / float64(dist.Parts); dist.MaxShardShare > bound {
		t.Errorf("largest shard scores %.3f of the partial entries, bound %.3f", dist.MaxShardShare, bound)
	}
	if !strings.Contains(dist.String(), "bytes/query") {
		t.Error("rendering incomplete")
	}
}

func TestRunJSON(t *testing.T) {
	r := NewRunner(tinyConfig())
	var sb strings.Builder
	if err := RunJSON(&sb, r, "table2"); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc["id"] != "table2" || doc["result"] == nil {
		t.Errorf("doc = %v", doc)
	}
	if err := RunJSON(&sb, r, "zzz"); err == nil {
		t.Error("unknown id must error")
	}
}
