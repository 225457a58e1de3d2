package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/topics"
)

func fixtureEngine(t *testing.T) *Engine {
	t.Helper()
	return figure1(t).engine(t, defaultTestParams())
}

// TestExploreCancelled runs an exploration under an already-cancelled
// context, with its results copied out and read in place: it must stop
// without propagating a single hop and mark itself Cancelled.
func TestExploreCancelled(t *testing.T) {
	e := fixtureEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range map[string]*Scratch{"copied": nil, "in place": NewScratch(e)} {
		x := e.ExploreOpts(0, []topics.ID{0}, ExploreOptions{Scratch: s, Ctx: ctx})
		if !x.Cancelled {
			t.Errorf("%s: exploration not marked cancelled", name)
		}
		if x.Iterations != 0 {
			t.Errorf("%s: %d hops ran under a cancelled context", name, x.Iterations)
		}
		if len(x.Reached) != 0 {
			t.Errorf("%s: %d nodes scored under a cancelled context", name, len(x.Reached))
		}
	}
}

// TestExploreScratchCleanAfterCancel reuses one scratch for a cancelled
// and then an unrestricted exploration; the second must match a fresh run
// exactly (the abandoned hop may not leak frontier marks).
func TestExploreScratchCleanAfterCancel(t *testing.T) {
	e := fixtureEngine(t)
	scratch := NewScratch(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = e.ExploreOpts(0, []topics.ID{0}, ExploreOptions{Scratch: scratch, Ctx: ctx})

	got := e.ExploreOpts(0, []topics.ID{0}, ExploreOptions{Scratch: scratch})
	want := e.Explore(0, []topics.ID{0}, 0)
	requireSameExploration(t, "post-cancel run", e, got, want)
}

func TestRecommendCtxCancelled(t *testing.T) {
	e := fixtureEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRecommender(e).RecommendCtx(ctx, 0, 0, 5); err == nil {
		t.Error("RecommendCtx under a cancelled context returned no error")
	}
}

// TestExploreMetrics checks the optional registry receives the
// exploration series whether the results are copied out or read in place.
func TestExploreMetrics(t *testing.T) {
	e := fixtureEngine(t)
	reg := metrics.NewRegistry()
	e.ExploreOpts(0, []topics.ID{0}, ExploreOptions{Metrics: reg})
	e.ExploreOpts(0, []topics.ID{0}, ExploreOptions{Scratch: NewScratch(e), Metrics: reg})
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{
		"core_explore_iterations_count 2",
		"core_explore_frontier_peak_count 2",
		"core_explore_scored_nodes_count 2",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("metrics missing %q in:\n%s", series, out)
		}
	}
}
