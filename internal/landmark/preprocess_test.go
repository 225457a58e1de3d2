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

// closeLists states the float32 contract of one stored list against its
// float64 reference: same length; entry by entry the ranked score within
// 1e-5 relative; the same node at every rank except where float32
// resolution cannot separate it from the node the reference ranks there
// (or, for a node the reference cut off, from the reference's last
// entry); normalized Kendall distance of the two rankings ≤ 1e-3.
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
// preprocessing path against the float64 hop recurrence (DenseMode): the
// lists keep membership and order up to ties at float32 resolution and
// every stored value to 1e-5 — on a frozen engine, on one derived over a
// 3-layer overlay, and on a decay-weighted one (the three shapes the
// manager preprocesses and refreshes). On the 2000-node graph at the
// paper's parameters, under every variant, every exploration runs in
// factored form and records a horizon at least the reference's. At
// β = 0.05 none converges in factored form, and the store is the float32
// kernel's hop recurrence bit for bit, as before the factored form
// existed.
func TestPreprocessMatchesFloat64Reference(t *testing.T) {
	ds := gen.RandomWith(300, 4200, 11)
	slow := engineOn(t, ds, 0.05)
	lms, err := Select(ds.Graph, InDeg, 6, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkFloat64Contract(t, "β = 0.05", slow, lms, 40, true)
	got, _ := Preprocess(slow, lms, PreprocessConfig{TopN: 40})
	equalStores(t, "β = 0.05 vs the kernel hop recurrence", got, kernelStore(slow, lms, 40))

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
// exploration takes the hop recurrence (same horizon as the reference) or
// none does (a horizon at least the reference's).
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
		want, _ := preprocess(tc.eng, lms, cfg, core.DenseMode)
		if tc.eng.HasOptimizedLayout() {
			t.Fatalf("%s: Preprocess left a layout on the caller's engine", label)
		}
		if fell := stats.Fallbacks == len(lms); fell != fallback || (!fallback && stats.Fallbacks != 0) {
			t.Fatalf("%s: %d of %d explorations fell back to the hop recurrence", label, stats.Fallbacks, len(lms))
		}
		for _, lm := range lms {
			gd, wd := got.Get(lm), want.Get(lm)
			if gd.Iterations < wd.Iterations || (fallback && gd.Iterations != wd.Iterations) {
				t.Fatalf("%s λ=%d: %d iterations, reference %d", label, lm, gd.Iterations, wd.Iterations)
			}
			for ti := range wd.Topical {
				closeLists(t, label, gd.Topical[ti], wd.Topical[ti], sigmaOf, topoOf)
			}
			closeLists(t, label+" topo", gd.TopoTop, wd.TopoTop, topoOf, sigmaOf)
		}
	}
}

// kernelStore is preprocessing as it ran before the factored form: every
// exploration is the hop recurrence on the float32 kernel over a
// degree-ordered layout, and the lists are drained from TopN heaps. The
// hop-recurrence fallback must reproduce it bit for bit.
func kernelStore(eng *core.Engine, lms []graph.NodeID, topN int) *Store {
	opt := eng.Optimized(graph.DegreeOrder)
	scratch := core.NewScratch(opt)
	T := eng.Graph().Vocabulary().Len()
	store := NewStore(T, topN)
	for _, l := range lms {
		x := opt.ExploreOpts(l, nil, core.ExploreOptions{Mode: core.KernelMode, Scratch: scratch, DenseResult: true})
		tops := make([]*ranking.TopN, T+1)
		for i := range tops {
			tops[i] = ranking.NewTopN(topN)
		}
		for _, v := range x.Reached {
			for ti, sc := range x.SigmaRow(v) {
				if sc > 0 {
					tops[ti].Insert(v, sc)
				}
			}
			if tv := x.TopoB(v); tv > 0 {
				tops[T].Insert(v, tv)
			}
		}
		d := &Data{Landmark: l, Topical: make([]List, T), Iterations: x.Iterations}
		for ti := range d.Topical {
			for _, e := range tops[ti].Drain() {
				d.Topical[ti].append1(e.Node, e.Score, x.TopoB(e.Node))
			}
		}
		for _, e := range tops[T].Drain() {
			d.TopoTop.append1(e.Node, 0, e.Score)
		}
		store.Put(d) //nolint:errcheck // T topical lists by construction
	}
	return store
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

	// Every run builds its in-adjacency and says so. At β = 0.05 no
	// exploration converges in factored form within MaxDepth, so every one
	// falls back to the hop recurrence and is counted; the plain engine's
	// run also built the kernel layout for them, a run on an already
	// optimized engine borrows that one.
	layouts := reg.Histogram("landmark_preprocess_layout_seconds", "", nil)
	fallbacks := reg.Counter("landmark_preprocess_fallbacks_total", "")
	if stats.LayoutTime <= 0 || layouts.Count() != 1 {
		t.Errorf("plain engine: LayoutTime = %v, %d layout observations, want > 0 and 1", stats.LayoutTime, layouts.Count())
	}
	if stats.WallTime < stats.LayoutTime {
		t.Errorf("WallTime %v excludes LayoutTime %v", stats.WallTime, stats.LayoutTime)
	}
	if stats.Fallbacks != len(lms) || fallbacks.Value() != uint64(len(lms)) {
		t.Errorf("β = 0.05: %d fallbacks, counter %d, want %d", stats.Fallbacks, fallbacks.Value(), len(lms))
	}
	_, stats = Preprocess(eng.Optimized(graph.BFSOrder), lms, PreprocessConfig{TopN: 20, Metrics: reg})
	if stats.LayoutTime <= 0 || layouts.Count() != 2 || stats.Fallbacks != len(lms) {
		t.Errorf("optimized engine: LayoutTime = %v, %d layout observations, %d fallbacks, want > 0, 2 and %d",
			stats.LayoutTime, layouts.Count(), stats.Fallbacks, len(lms))
	}
	// At the paper's β every exploration converges in factored form.
	_, stats = Preprocess(engineOn(t, ds, 0), lms, PreprocessConfig{TopN: 20, Metrics: reg})
	if stats.Fallbacks != 0 || fallbacks.Value() != uint64(2*len(lms)) {
		t.Errorf("default β: %d fallbacks (counter %d), want 0 (counter %d)", stats.Fallbacks, fallbacks.Value(), 2*len(lms))
	}
}
