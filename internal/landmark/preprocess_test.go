package landmark

import (
	"math"
	"strings"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ranking"
)

// equalStores fails the test unless the two stores hold exactly the same
// landmarks with bit-identical lists.
func equalStores(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d landmarks stored, want %d", label, got.Len(), want.Len())
	}
	for _, lm := range want.Landmarks() {
		gd, wd := got.Get(lm), want.Get(lm)
		if gd == nil {
			t.Fatalf("%s: landmark %d missing", label, lm)
		}
		if gd.Iterations != wd.Iterations {
			t.Fatalf("%s: landmark %d ran %d iterations, want %d", label, lm, gd.Iterations, wd.Iterations)
		}
		for ti := range wd.Topical {
			equalLists(t, label, lm, ti, gd.Topical[ti], wd.Topical[ti])
		}
		equalLists(t, label, lm, -1, gd.TopoTop, wd.TopoTop)
	}
}

func equalLists(t *testing.T, label string, lm graph.NodeID, ti int, got, want List) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: landmark %d topic %d: %d entries, want %d", label, lm, ti, got.Len(), want.Len())
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] || got.Sigma[i] != want.Sigma[i] || got.Topo[i] != want.Topo[i] {
			t.Fatalf("%s: landmark %d topic %d entry %d: (%d, %g, %g), want (%d, %g, %g)",
				label, lm, ti, i,
				got.Nodes[i], got.Sigma[i], got.Topo[i],
				want.Nodes[i], want.Sigma[i], want.Topo[i])
		}
	}
}

// TestPreprocessWorkerDeterminism pins the parallelism contract: the
// produced store is a pure function of (engine, landmarks, TopN), whatever
// the worker count — one sequential worker, the GOMAXPROCS default
// (Workers <= 0) or more workers than landmarks. The same holds across
// representations of one edge set: an engine derived over an overlay
// stack and one built on the stack's compacted rebuild (the state a
// recovered manager boots into) produce bit-identical stores, decay
// weights included. Both exploration paths are held to it: the hop
// recurrence (β = 0.05, where no factored exploration converges) and the
// factored form (the 2000-node graph at the paper's parameters).
func TestPreprocessWorkerDeterminism(t *testing.T) {
	ds := gen.RandomWith(120, 1500, 3)
	checkWorkerDeterminism(t, "β = 0.05", ds, engineOn(t, ds, 0.05), []graph.NodeID{3, 17, 41, 77, 99}, 5)
	eng, g2k := benchSetup(t, 2000)
	lms, err := Select(g2k.Graph, InDeg, 5, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkWorkerDeterminism(t, "g2k", g2k, eng, lms, 0)
}

func checkWorkerDeterminism(t *testing.T, fixture string, ds *gen.Dataset, eng *core.Engine, lms []graph.NodeID, fallbacks int) {
	t.Helper()
	sequential, seqStats := Preprocess(eng, lms, PreprocessConfig{TopN: 50, Workers: 1})
	if seqStats.Landmarks != len(lms) || seqStats.Fallbacks != fallbacks {
		t.Fatalf("%s: sequential run processed %d landmarks with %d fallbacks, want %d and %d",
			fixture, seqStats.Landmarks, seqStats.Fallbacks, len(lms), fallbacks)
	}

	cases := []struct {
		label   string
		workers int
	}{
		{"Workers=0 (GOMAXPROCS)", 0},
		{"Workers=-4", -4},
		{"Workers=2", 2},
		{"Workers=4", 4},
		{"Workers>len(landmarks)", len(lms) * 3},
	}
	for _, tc := range cases {
		store, stats := Preprocess(eng, lms, PreprocessConfig{TopN: 50, Workers: tc.workers})
		if stats.Landmarks != len(lms) {
			t.Fatalf("%s, %s: processed %d landmarks, want %d", fixture, tc.label, stats.Landmarks, len(lms))
		}
		equalStores(t, fixture+", "+tc.label, store, sequential)
	}

	overEng, ov := streamedEngine(t, eng, 3, true)
	compact := ov.Compact()
	rebuilt, err := core.NewEngine(compact, authority.Compute(compact), ds.Sim, eng.Params())
	if err != nil {
		t.Fatal(err)
	}
	rebuilt = rebuilt.WithEdgeWeights(graph.BuildWeights(compact, testDecay))
	want, _ := Preprocess(rebuilt, lms, PreprocessConfig{TopN: 50, Workers: 1})
	for _, workers := range []int{1, 4} {
		got, _ := Preprocess(overEng, lms, PreprocessConfig{TopN: 50, Workers: workers})
		equalStores(t, fixture+", overlay vs Compact() rebuild", got, want)
	}
}

// relErr is |a-b| relative to the larger magnitude.
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// closeLists states the contract of one stored list against its
// hop-recurrence reference, whose horizon is shorter: same length; entry
// by entry the ranked score within 1e-5 relative; the same node at every
// rank except where 1e-5 cannot separate it from the node the reference
// ranks there (or, for a node the reference cut off, from the reference's
// last entry); normalized Kendall distance of the two rankings ≤ 1e-3.
// score picks the ranked column, other the carried one.
func closeLists(t *testing.T, label string, got, want List, score, other func(List) []float64) {
	t.Helper()
	const tol = 1e-5
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d entries, reference has %d", label, got.Len(), want.Len())
	}
	if want.Len() == 0 {
		return
	}
	gs, ws := score(got), score(want)
	wantAt := make(map[graph.NodeID]int, want.Len())
	for i, v := range want.Nodes {
		wantAt[v] = i
	}
	for i, v := range got.Nodes {
		if e := relErr(gs[i], ws[i]); e > tol {
			t.Fatalf("%s rank %d: score %g, reference %g (relative error %g)", label, i, gs[i], ws[i], e)
		}
		j, kept := wantAt[v]
		if !kept {
			j = want.Len() - 1
		}
		if j != i {
			if e := relErr(ws[j], ws[i]); e > tol {
				t.Fatalf("%s rank %d: node %d, reference ranks %d there and the two are not tied (%g vs %g)",
					label, i, v, want.Nodes[i], ws[j], ws[i])
			}
		}
		if kept {
			if e := relErr(other(got)[i], other(want)[j]); e > tol {
				t.Fatalf("%s node %d: carried score %g, reference %g", label, v, other(got)[i], other(want)[j])
			}
		}
	}
	a, b := make([]ranking.Scored, got.Len()), make([]ranking.Scored, want.Len())
	for i := range got.Nodes {
		a[i] = ranking.Scored{Node: got.Nodes[i], Score: gs[i]}
		b[i] = ranking.Scored{Node: want.Nodes[i], Score: ws[i]}
	}
	if d := ranking.KendallTopK(a, b); d > 1e-3 {
		t.Fatalf("%s: Kendall distance %g to the reference ranking", label, d)
	}
}

// TestPreprocessMatchesFloat64Reference is the contract of the default
// preprocessing path against the float64 hop recurrence: the
// lists keep membership and order up to ties within 1e-5 and
// every stored value to 1e-5 — on a frozen engine, on one derived over a
// 3-layer overlay, and on a decay-weighted one (the three shapes the
// manager preprocesses and refreshes). On the 2000-node graph at the
// paper's parameters, under every variant, every exploration runs in
// factored form and records a horizon at least the reference's. At
// β = 0.05 none converges in factored form, every one falls back to the
// hop recurrence, and the store is the reference bit for bit.
func TestPreprocessMatchesFloat64Reference(t *testing.T) {
	ds := gen.RandomWith(300, 4200, 11)
	slow := engineOn(t, ds, 0.05)
	lms, err := Select(ds.Graph, InDeg, 6, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkFloat64Contract(t, "β = 0.05", slow, lms, 40, true)

	_, g2k := benchSetup(t, 2000)
	lms, err = Select(g2k.Graph, InDeg, 4, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []core.Variant{core.TrFull, core.TrNoAuth, core.TrNoSim, core.TopoOnly} {
		p := core.DefaultParams()
		p.Variant = v
		eng, err := core.NewEngine(g2k.Graph, authority.Compute(g2k.Graph), g2k.Sim, p)
		if err != nil {
			t.Fatal(err)
		}
		checkFloat64Contract(t, "g2k "+v.String(), eng, lms, 200, false)
	}
}

// checkFloat64Contract runs the float64 contract on the frozen, overlaid
// and decay-weighted shapes of frozen. fallback states whether every
// exploration takes the hop recurrence (a store equal to the reference
// bit for bit) or none does (a horizon at least the reference's).
func checkFloat64Contract(t *testing.T, fixture string, frozen *core.Engine, lms []graph.NodeID, topN int, fallback bool) {
	t.Helper()
	overlaid, _ := streamedEngine(t, frozen, 3, false)
	decayed, _ := streamedEngine(t, frozen, 3, true)
	sigmaOf := func(l List) []float64 { return l.Sigma }
	topoOf := func(l List) []float64 { return l.Topo }
	for _, tc := range []struct {
		label string
		eng   *core.Engine
	}{{"frozen", frozen}, {"overlay", overlaid}, {"decay-weighted", decayed}} {
		label := fixture + " " + tc.label
		cfg := PreprocessConfig{TopN: topN}
		got, stats := Preprocess(tc.eng, lms, cfg)
		want, _ := preprocess(tc.eng, lms, cfg, false)
		if fell := stats.Fallbacks == len(lms); fell != fallback || (!fallback && stats.Fallbacks != 0) {
			t.Fatalf("%s: %d of %d explorations fell back to the hop recurrence", label, stats.Fallbacks, len(lms))
		}
		if fallback {
			equalStores(t, label+" vs the reference", got, want)
			continue
		}
		for _, lm := range lms {
			gd, wd := got.Get(lm), want.Get(lm)
			if gd.Iterations < wd.Iterations {
				t.Fatalf("%s λ=%d: %d iterations, reference %d", label, lm, gd.Iterations, wd.Iterations)
			}
			for ti := range wd.Topical {
				closeLists(t, label, gd.Topical[ti], wd.Topical[ti], sigmaOf, topoOf)
			}
			closeLists(t, label+" topo", gd.TopoTop, wd.TopoTop, topoOf, sigmaOf)
		}
	}
}

// TestPreprocessMetrics checks that an attached registry receives the
// Table 5 series: one compute-time observation per landmark, the
// processed counter, the wall-time histogram and a utilization gauge in
// (0, 1].
func TestPreprocessMetrics(t *testing.T) {
	ds := gen.RandomWith(80, 800, 1)
	eng := engineOn(t, ds, 0.05)
	lms := []graph.NodeID{1, 2, 3}
	reg := metrics.NewRegistry()
	_, stats := Preprocess(eng, lms, PreprocessConfig{TopN: 20, Workers: 2, Metrics: reg})
	if stats.Landmarks != len(lms) {
		t.Fatalf("processed %d landmarks, want %d", stats.Landmarks, len(lms))
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"landmark_preprocess_seconds_count 3",
		"landmark_preprocessed_total 3",
		"landmark_preprocess_wall_seconds_count 1",
		"landmark_preprocess_worker_utilization",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	util := reg.Gauge("landmark_preprocess_worker_utilization", "").Value()
	if util <= 0 || util > 1.0001 {
		t.Errorf("worker utilization = %g, want in (0, 1]", util)
	}

	// Every run builds its in-adjacency and says so, one observation per
	// run. At β = 0.05 no exploration converges in factored form within
	// MaxDepth, so every one falls back to the hop recurrence and is
	// counted, whatever the worker count.
	layouts := reg.Histogram("landmark_preprocess_layout_seconds", "", nil)
	fallbacks := reg.Counter("landmark_preprocess_fallbacks_total", "")
	check := func(run int) {
		t.Helper()
		if stats.LayoutTime <= 0 || layouts.Count() != uint64(run) {
			t.Errorf("run %d: LayoutTime = %v, %d layout observations, want > 0 and %d", run, stats.LayoutTime, layouts.Count(), run)
		}
		if stats.WallTime < stats.LayoutTime {
			t.Errorf("run %d: WallTime %v excludes LayoutTime %v", run, stats.WallTime, stats.LayoutTime)
		}
		if stats.Fallbacks != len(lms) || fallbacks.Value() != uint64(run*len(lms)) {
			t.Errorf("run %d at β = 0.05: %d fallbacks, counter %d, want %d and %d",
				run, stats.Fallbacks, fallbacks.Value(), len(lms), run*len(lms))
		}
	}
	check(1)
	_, stats = Preprocess(eng, lms, PreprocessConfig{TopN: 20, Metrics: reg})
	check(2)
	// At the paper's β every exploration converges in factored form.
	_, stats = Preprocess(engineOn(t, ds, 0), lms, PreprocessConfig{TopN: 20, Metrics: reg})
	if stats.Fallbacks != 0 || fallbacks.Value() != uint64(2*len(lms)) {
		t.Errorf("default β: %d fallbacks (counter %d), want 0 (counter %d)", stats.Fallbacks, fallbacks.Value(), 2*len(lms))
	}
}
