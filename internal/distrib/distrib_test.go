package distrib

import (
	"slices"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/landmark"
)

func setup(t *testing.T, seed uint64) (*core.Engine, *landmark.Store, *gen.Dataset) {
	t.Helper()
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 800
	cfg.Seed = seed
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 8, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 200})
	return eng, store, ds
}

func TestAssignments(t *testing.T) {
	ds := gen.RandomWith(100, 900, 1)
	a := HashPartition(ds.Graph, 4)
	if err := a.Validate(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if sizes := a.Sizes(); !slices.Equal(sizes, []int{25, 25, 25, 25}) {
		t.Fatalf("partition sizes %v, want 25 each", sizes)
	}
}
