package distrib

import (
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
	for name, a := range map[string]Assignment{
		"hash":         HashPartition(ds.Graph, 4),
		"connectivity": ConnectivityPartition(ds.Graph, 4, 7),
	} {
		if err := a.Validate(ds.Graph); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sizes := a.Sizes()
		total := 0
		for _, s := range sizes {
			total += s
			if s == 0 {
				t.Errorf("%s: empty partition", name)
			}
		}
		if total != 100 {
			t.Fatalf("%s: sizes sum to %d", name, total)
		}
		// Balance within 2x of ideal.
		for _, s := range sizes {
			if s > 2*100/4 {
				t.Errorf("%s: partition of %d nodes too large", name, s)
			}
		}
	}
}

func TestConnectivityBeatsHashOnCut(t *testing.T) {
	// On a clustered graph, connectivity partitioning must cut fewer
	// edges than hash partitioning.
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 1500
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 6
	hash := CutEdges(ds.Graph, HashPartition(ds.Graph, parts))
	conn := CutEdges(ds.Graph, ConnectivityPartition(ds.Graph, parts, 3))
	if conn >= hash {
		t.Errorf("connectivity cut %d must beat hash cut %d", conn, hash)
	}
}
