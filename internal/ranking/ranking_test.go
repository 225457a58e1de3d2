package ranking

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestTopNAgainstSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(20)
		items := make([]Scored, 100)
		for i := range items {
			items[i] = Scored{Node: graph.NodeID(i), Score: float64(r.IntN(30))} // ties likely
		}
		top := NewTopN(n)
		for _, s := range items {
			top.Insert(s.Node, s.Score)
		}
		want := append([]Scored(nil), items...)
		SortDesc(want)
		want = want[:n]
		got := top.List()
		if len(got) != n {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTopNSmall(t *testing.T) {
	top := NewTopN(0)
	top.Insert(1, 5)
	if top.Len() != 0 {
		t.Error("capacity 0 must keep nothing")
	}
	top = NewTopN(3)
	if got := top.List(); len(got) != 0 {
		t.Errorf("empty list = %v", got)
	}
	top.Insert(1, 5)
	if got := top.List(); len(got) != 1 || got[0].Node != 1 {
		t.Errorf("singleton = %v", got)
	}
}

func TestSortDescDeterministicTies(t *testing.T) {
	list := []Scored{{Node: 5, Score: 1}, {Node: 2, Score: 1}, {Node: 9, Score: 2}}
	SortDesc(list)
	if list[0].Node != 9 || list[1].Node != 2 || list[2].Node != 5 {
		t.Errorf("tie order wrong: %v", list)
	}
}

// TestTopNProperty: for random inputs and capacities, the accumulator
// equals sort-then-truncate.
func TestTopNProperty(t *testing.T) {
	prop := func(seed uint64, n8 uint8) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		n := 1 + int(n8%15)
		m := 5 + r.IntN(60)
		top := NewTopN(n)
		all := make([]Scored, m)
		for i := 0; i < m; i++ {
			s := Scored{Node: graph.NodeID(r.IntN(1000)), Score: float64(r.IntN(10))}
			all[i] = s
			top.Insert(s.Node, s.Score)
		}
		SortDesc(all)
		if n > m {
			n = m
		}
		got := top.List()
		if len(got) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKendallIdenticalAndReversed(t *testing.T) {
	a := []Scored{{1, 3}, {2, 2}, {3, 1}}
	if d := KendallTopK(a, a); d != 0 {
		t.Errorf("identical lists distance = %g, want 0", d)
	}
	b := []Scored{{3, 3}, {2, 2}, {1, 1}}
	if d := KendallTopK(a, b); d != 1 {
		t.Errorf("reversed lists distance = %g, want 1", d)
	}
}

func TestKendallPartialOverlap(t *testing.T) {
	a := []Scored{{1, 3}, {2, 2}}
	b := []Scored{{1, 3}, {4, 2}}
	// Union {1,2,4}: pairs (1,2): a says 1>2, b has only 1 → concordant
	// (b kept the one a ranks higher) → 0. (1,4): b says 1>4, a has only
	// 1 → 0. (2,4): each list has one of them → penalty 0.
	if d := KendallTopK(a, b); d != 0 {
		t.Errorf("distance = %g, want 0", d)
	}
	// b keeps the item a ranks lower: discordant.
	c := []Scored{{2, 5}}
	// Union {1,2}: a ranks 1 above 2; c contains only 2 → 1 bad pair of 1.
	if d := KendallTopK(a, c); d != 1 {
		t.Errorf("distance = %g, want 1", d)
	}
}

func TestKendallDegenerate(t *testing.T) {
	if d := KendallTopK(nil, nil); d != 0 {
		t.Errorf("empty lists = %g", d)
	}
	if d := KendallTopK([]Scored{{1, 1}}, nil); d != 0 {
		t.Errorf("single item = %g", d)
	}
}

// TestKendallSymmetric: distance is symmetric for random lists.
func TestKendallSymmetric(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		mk := func() []Scored {
			m := 1 + r.IntN(12)
			perm := r.Perm(20)
			out := make([]Scored, m)
			for i := 0; i < m; i++ {
				out[i] = Scored{Node: graph.NodeID(perm[i]), Score: float64(m - i)}
			}
			return out
		}
		a, b := mk(), mk()
		return KendallTopK(a, b) == KendallTopK(b, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCombine(t *testing.T) {
	lists := [][]Scored{
		{{1, 1.0}, {2, 0.5}},
		{{2, 1.0}, {3, 0.2}},
	}
	got := Combine(lists, []float64{1, 2})
	// Scores: 1 → 1.0; 2 → 0.5 + 2.0 = 2.5; 3 → 0.4.
	if got[0].Node != 2 || got[1].Node != 1 || got[2].Node != 3 {
		t.Errorf("Combine order wrong: %v", got)
	}
	if got[0].Score != 2.5 {
		t.Errorf("Combine score = %g, want 2.5", got[0].Score)
	}
	// Missing weights default to 1.
	got = Combine(lists, nil)
	if got[0].Node != 2 || got[0].Score != 1.5 {
		t.Errorf("default-weight Combine wrong: %v", got)
	}
}

func TestListsAreSortedInvariant(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 17))
	top := NewTopN(10)
	for i := 0; i < 200; i++ {
		top.Insert(graph.NodeID(r.IntN(500)), r.Float64())
	}
	list := top.List()
	if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i].Score > list[j].Score }) {
		t.Error("List must be best-first")
	}
}

// TestSelectTopMatchesTopN: selection returns exactly what a TopN of n
// fed every entry lists — on random inputs with heavy score ties
// (broken by node id), on presorted, constant and duplicate inputs, and
// with n at, around and beyond the input length.
func TestSelectTopMatchesTopN(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 8))
	inputs := func(size int) map[string][]Scored {
		perm := r.Perm(4 * (size + 1))
		mk := func(score func(i int) float64) []Scored {
			out := make([]Scored, size)
			for i := range out {
				out[i] = Scored{Node: graph.NodeID(perm[i]), Score: score(i)}
			}
			return out
		}
		return map[string][]Scored{
			"heavy ties": mk(func(int) float64 { return float64(r.IntN(4)) }),
			"random":     mk(func(int) float64 { return r.Float64() }),
			"ascending":  mk(func(i int) float64 { return float64(i) }),
			"descending": mk(func(i int) float64 { return float64(-i) }),
			"constant":   mk(func(int) float64 { return 1 }),
			// Equal entries defeat every partition and exhaust the budget.
			"duplicates": make([]Scored, size),
		}
	}
	for _, size := range []int{0, 1, 2, 3, 7, 40, 257, 2000} {
		for name, items := range inputs(size) {
			for _, n := range []int{0, 1, size / 3, size - 1, size, size + 5} {
				if n < 0 {
					continue
				}
				top := NewTopN(n)
				for _, s := range items {
					top.Insert(s.Node, s.Score)
				}
				want := top.List()
				got := SelectTop(append([]Scored(nil), items...), n)
				if len(got) != len(want) {
					t.Fatalf("%s, %d items, n=%d: %d selected, TopN keeps %d", name, size, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, %d items, n=%d: rank %d = %v, TopN has %v", name, size, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
