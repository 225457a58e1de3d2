package main

import (
	"math"
	"testing"
)

// A hand-built tree: a root with two nested children that overlap each
// other and one of which runs past the root's end, a grandchild, and a
// replay child measured after the fact.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // 10 inside the root
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 25},
		{ID: 6, Parent: 3, Name: "b.replay", Start: 200, End: 212, Replay: true},
		{ID: 7, Name: "lone", Start: 5, End: 6},
	}
	want := map[int64]int64{
		1: 100 - (30 + 20 + 10), // a, the part of b after a, the part of c inside
		2: 30 - 10,
		3: 30 - 12, // the replay's duration stands for the time spent inside
		4: 30,
		5: 10,
		6: 12,
		7: 1,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

// A replay that ran longer than the call it stands for leaves a negative
// self time; a nested child cannot.
func TestSelfTimesOfOverlongChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "c", Start: 50, End: 75, Replay: true},
		{ID: 3, Name: "q", Start: 0, End: 10},
		{ID: 4, Parent: 3, Name: "d", Start: -5, End: 30},
	}
	got := selfTimes(spans)
	if got[1] != -15 || got[3] != 0 {
		t.Errorf("self times %d and %d, want -15 and 0", got[1], got[3])
	}
}

func TestLayerTimesGroupByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "x", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "y", Start: 2, End: 5},
		{ID: 3, Name: "x", Start: 20, End: 24},
	}
	dur, self := layerTimes(spans)
	if len(dur["x"]) != 2 || dur["x"][0] != 10 || dur["x"][1] != 4 || dur["y"][0] != 3 {
		t.Errorf("durations %v", dur)
	}
	if self["x"][0] != 7 || self["x"][1] != 4 || self["y"][0] != 3 {
		t.Errorf("self times %v", self)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *recorder
	ran := false
	if id := r.timed("x", 0, 0, func() { ran = true }); id != 0 || !ran {
		t.Errorf("nil recorder: id %d, ran %v", id, ran)
	}
	r.count("n", 1)
	if spans, counts := r.snapshot(); spans != nil || counts != nil {
		t.Errorf("nil recorder kept something")
	}
}

// Ten queries whose levels cost 100, 70, 50, 40 and 10 ns, plus one whose
// round trip was held up for a microsecond: the slow one is left out, and
// the self times and the innermost level add up to the outermost.
func TestReadPathMetricsAddUp(t *testing.T) {
	var spans []span
	id := int64(0)
	add := func(req int64, name string, dur int64) {
		id++
		spans = append(spans, span{ID: id, Req: req, Name: name, Start: 1000 * id, End: 1000*id + dur})
	}
	for q := int64(1); q <= 11; q++ {
		outer := int64(100)
		if q == 11 {
			outer = 1100
		}
		add(q, "client.recommend", outer)
		add(q, "server.handler", 70)
		add(q, "dynamic.recommend", 50)
		add(q, "landmark.query", 40)
		add(q, "core.explore_d2", 10)
	}
	add(1, "core.exact_tr", 5000) // shares a request id, is no level of the path
	out := metricSet{}
	readPathMetrics(spans, out)
	want := map[string]float64{
		"client.recommend_us": 0.100, "server.handler_us": 0.070, "dynamic.recommend_us": 0.050,
		"landmark.query_us": 0.040, "core.explore_d2_us": 0.010,
		"client.http_self_us": 0.030, "server.self_us": 0.020, "dynamic.self_us": 0.010, "landmark.fold_self_us": 0.030,
	}
	if len(out) != len(want) {
		t.Errorf("reported %v", out)
	}
	for name, v := range want {
		if m := out[name]; math.Abs(m.Value-v) > 1e-12 || m.N != 10 || m.Unit != "us" {
			t.Errorf("%s = %+v, want %g over 10 queries", name, m, v)
		}
	}
	sum := out["client.http_self_us"].Value + out["server.self_us"].Value + out["dynamic.self_us"].Value +
		out["landmark.fold_self_us"].Value + out["core.explore_d2_us"].Value
	if math.Abs(sum-out["client.recommend_us"].Value) > 1e-12 {
		t.Errorf("self times and exploration sum to %g, the round trip is %g", sum, out["client.recommend_us"].Value)
	}
}
