package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// TestEngineConcurrentExplores: an Engine is immutable and its scratch
// pool safe for concurrent use. Goroutines interleave explorations that
// borrow the engine's scratch, explorations through a scratch of their
// own, and explorations on a Derived engine that shares the pool, read in
// place or copied out; every one must equal the sequential reference bit
// for bit. Run with -race.
func TestEngineConcurrentExplores(t *testing.T) {
	ds := gen.RandomWith(60, 600, 21)
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Derive(ds.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Scratches() != e.Scratches() {
		t.Fatal("an engine derived over a view of the same size must share the scratch pool")
	}
	// Reference results computed sequentially.
	want := make([]*Exploration, 16)
	for i := range want {
		want[i] = e.Explore(graph.NodeID(i), []topics.ID{topics.ID(i % 18)}, 0)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := NewScratch(e)
			src, ts := graph.NodeID(i), []topics.ID{topics.ID(i % 18)}
			for rep := 0; rep < 8; rep++ {
				var msg string
				switch rep % 4 {
				case 0: // borrowed internally, copied out
					msg = diffExploration(e, e.ExploreOpts(src, ts, ExploreOptions{}), want[i])
				case 1: // the goroutine's own scratch, read in place
					msg = diffExploration(e, e.ExploreOpts(src, ts, ExploreOptions{Scratch: own}), want[i])
				case 2: // the derived engine, borrowed internally
					msg = diffExploration(e, d.ExploreOpts(src, ts, ExploreOptions{}), want[i])
				default: // borrowed from the shared pool, read in place
					s := d.Scratches().Get()
					msg = diffExploration(e, d.ExploreOpts(src, ts, ExploreOptions{Scratch: s}), want[i])
					d.Scratches().Put(s)
				}
				if msg != "" {
					errs <- fmt.Sprintf("src %d rep %d: %s", i, rep, msg)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
