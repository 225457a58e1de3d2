package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program (the program itself carries no spans).
// Spans of one request or batch share Req; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	// Replay marks a child measured by calling the inner layer again with
	// the same input right after its parent returned, because the parent
	// cannot be interrupted from outside: its interval lies outside the
	// parent's, and its duration stands for the time the parent spent in
	// that layer.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder holds spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op, so call sites need no
// branches.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	next   int64
	counts map[string][]float64
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), counts: make(map[string][]float64)} }

// count notes one observation of a quantity that is not a duration, at
// the boundary where it is known.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] = append(r.counts[name], v)
	r.mu.Unlock()
}

// reserve hands out a span id before the span has finished, so that
// children started meanwhile can name it as their parent.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, req int64, start, end time.Time, replay bool) int64 {
	id := r.reserve()
	r.addAs(id, name, parent, req, start, end, replay)
	return id
}

// addAs records a finished span under an id from reserve.
func (r *recorder) addAs(id int64, name string, parent, req int64, start, end time.Time, replay bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Replay: replay,
	})
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent, req int64, fn func()) int64 {
	start := time.Now()
	fn()
	return r.add(name, parent, req, start, time.Now(), false)
}

// replayed runs fn as a replay child of parent.
func (r *recorder) replayed(name string, parent, req int64, fn func()) int64 {
	start := time.Now()
	fn()
	return r.add(name, parent, req, start, time.Now(), true)
}

func (r *recorder) snapshot() ([]span, map[string][]float64) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[string][]float64, len(r.counts))
	for name, vs := range r.counts {
		counts[name] = append([]float64(nil), vs...)
	}
	return append([]span(nil), r.spans...), counts
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its children cover. Nested children cover the union of their
// intervals clipped to the parent; replay children cover their own
// duration, which noise can make longer than the parent's: the self time
// is then negative, and is left so, because clamping it would bias the
// medians taken over many spans.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, p := range spans {
		var covered int64
		var nested []span
		for _, c := range kids[p.ID] {
			if c.Replay {
				covered += c.dur()
			} else {
				nested = append(nested, c)
			}
		}
		sort.Slice(nested, func(i, j int) bool { return nested[i].Start < nested[j].Start })
		edge := p.Start
		for _, c := range nested {
			lo, hi := max(c.Start, edge), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// layerTimes groups span durations and self times by span name, in
// nanoseconds.
func layerTimes(spans []span) (dur, self map[string][]float64) {
	st := selfTimes(spans)
	dur, self = make(map[string][]float64), make(map[string][]float64)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.dur()))
		self[s.Name] = append(self[s.Name], float64(st[s.ID]))
	}
	return dur, self
}

// writeSpans dumps the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
