package main

import "testing"

func TestJudge(t *testing.T) {
	lower := gate{Name: "l", Better: "lower", Bound: 0.10}
	higher := gate{Name: "h", Better: "higher", Bound: 0.10}
	s := func(median, spread float64) summary { return summary{Median: median, Spread: spread} }
	for _, c := range []struct {
		name string
		a, b summary
		g    gate
		want string
	}{
		{"within the bound", s(100, 0.02), s(105, 0.02), lower, verdictSame},
		{"slower by more than the bound", s(100, 0.02), s(111, 0.02), lower, verdictWorse},
		{"faster by more than the bound", s(100, 0.02), s(85, 0.02), lower, verdictBetter},
		{"throughput fell", s(100, 0.02), s(85, 0.02), higher, verdictWorse},
		{"throughput rose", s(100, 0.02), s(120, 0.02), higher, verdictBetter},
		{"runs too spread to tell", s(100, 0.30), s(104, 0.02), lower, verdictUnresolved},
		{"worse beats unresolved", s(100, 0.30), s(150, 0.02), lower, verdictWorse},
		{"nothing to compare with", s(0, 0), s(5, 0), lower, verdictUnresolved},
	} {
		if _, got := judge(c.a, c.b, c.g); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
