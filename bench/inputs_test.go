package main

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	g := gen.RandomWith(300, 3000, datasetSeed).Graph

	draw := func(seed uint64) []int {
		z := newZipf(2048, 1.1, rng(seed, streamZipf))
		out := make([]int, 200)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(1), draw(1)) || reflect.DeepEqual(draw(1), draw(2)) {
		t.Error("zipf ranks: same seed must repeat, another seed must differ")
	}

	keys := func(seed uint64) []readKey {
		ks, err := distinctKeys(g, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ks
	}
	if !reflect.DeepEqual(keys(1), keys(1)) || reflect.DeepEqual(keys(1), keys(2)) {
		t.Error("read keys: same seed must repeat, another seed must differ")
	}
	seen := map[readKey]bool{}
	for _, k := range keys(1) {
		if seen[k] {
			t.Errorf("key %v drawn twice", k)
		}
		seen[k] = true
	}

	stream := func(seed uint64) *updateStream {
		st, err := churnStream(g, 100, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if !reflect.DeepEqual(stream(1), stream(1)) || reflect.DeepEqual(stream(1).Items, stream(2).Items) {
		t.Error("update stream: same seed must repeat, another seed must differ")
	}
}

// Every event of the stream changes the graph it was generated for, no
// pair occurs twice, and Net keeps the running edge balance.
func TestChurnStreamIsEffective(t *testing.T) {
	g := gen.RandomWith(300, 3000, datasetSeed).Graph
	st, err := churnStream(g, 200, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]uint32]bool{}
	net := 0
	for i, it := range st.Items {
		p := [2]uint32{it.Src, it.Dst}
		if pairs[p] {
			t.Fatalf("pair %v occurs twice", p)
		}
		pairs[p] = true
		has := g.HasEdge(graph.NodeID(it.Src), graph.NodeID(it.Dst))
		if it.Remove != has {
			t.Fatalf("event %d: remove=%v of a pair whose edge exists=%v", i, it.Remove, has)
		}
		if !it.Remove && len(it.Topics) == 0 {
			t.Fatalf("event %d: a follow without topics", i)
		}
		if it.Remove {
			net--
		} else {
			net++
		}
		if st.Net[i] != net {
			t.Fatalf("event %d: net %d, want %d", i, st.Net[i], net)
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z := newZipf(2048, 1.1, rng(1, streamZipf))
	head := 0
	for i := 0; i < 10000; i++ {
		if k := z.next(); k < 0 || k >= 2048 {
			t.Fatalf("rank %d out of range", k)
		} else if k < 20 {
			head++
		}
	}
	// The 20 most popular of 2048 keys draw about 44% of the requests at
	// s=1.1; uniform would give them 1%.
	if head < 3500 || head > 5500 {
		t.Errorf("%d of 10000 draws hit the top 20 keys", head)
	}
}

// The screened flips really move the subscriber's top-n both ways.
func TestScreenFlipsMoveTheRanking(t *testing.T) {
	s, err := newStack(stackConfig{Graph: "tiny", Landmarks: 8, StoreTopN: 50}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close() //nolint:errcheck // nothing to report from a stack that never served
	keys, err := distinctKeys(s.g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := screenFlips(s, keys, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := screenFlips(s, keys, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || !reflect.DeepEqual(a, b) {
		t.Errorf("two screenings of the same keys: %v, %v", a, b)
	}
	for _, f := range a {
		if f.Dst == f.Key.User || s.g.HasEdge(f.Key.User, f.Dst) {
			t.Errorf("flip %+v is not a fresh follow", f)
		}
	}
}
