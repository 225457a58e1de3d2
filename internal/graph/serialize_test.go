package graph

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/topics"
)

func TestGraphRoundTrip(t *testing.T) {
	g := build(t, 6, []Edge{
		{0, 1, topics.NewSet(0)},
		{0, 2, topics.NewSet(1, 2)},
		{3, 0, topics.NewSet(2)},
		{5, 4, topics.NewSet(0, 1, 2)},
	})
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if got.Vocabulary().Len() != g.Vocabulary().Len() {
		t.Fatal("vocabulary lost")
	}
	for i, name := range g.Vocabulary().Names() {
		if got.Vocabulary().Names()[i] != name {
			t.Fatalf("topic %d renamed", i)
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		if got.NodeTopics(NodeID(u)) != g.NodeTopics(NodeID(u)) {
			t.Fatalf("node %d topics differ", u)
		}
	}
	a, b := g.Edges(), got.Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReadGraphRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 0, 0, 0, 0},
	}
	for name, in := range cases {
		if _, err := ReadGraph(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Truncation at any point must error, not panic.
	g := build(t, 4, []Edge{{0, 1, topics.NewSet(0)}, {1, 2, topics.NewSet(1)}})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := ReadGraph(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzReadGraph: the deserializer must never panic on arbitrary input —
// it either returns a graph or an error.
func FuzzReadGraph(f *testing.F) {
	b := NewBuilder(topics.MustVocabulary([]string{"a", "b"}), 3)
	b.AddEdge(0, 1, topics.NewSet(0))
	b.AddEdge(1, 2, topics.NewSet(1))
	var buf bytes.Buffer
	if _, err := b.MustFreeze().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0x31, 0x47, 0x52, 0x54})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
		if err == nil && g == nil {
			t.Fatal("nil graph without error")
		}
	})
}

// failAfterWriter accepts limit bytes, then fails every further write —
// a stand-in for a full disk mid-serialization.
type failAfterWriter struct {
	limit int
	n     int64
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n >= int64(w.limit) {
		return 0, errDiskFull
	}
	take := len(p)
	if rem := int64(w.limit) - w.n; int64(take) > rem {
		take = int(rem)
	}
	w.n += int64(take)
	if take < len(p) {
		return take, errDiskFull
	}
	return take, nil
}

var errDiskFull = errors.New("disk full")

// TestWriteToReportsFlushedBytes: the int64 a WriteTo returns must equal
// the bytes the underlying writer actually accepted — not bytes parked
// in an intermediate buffer that an error then discarded.
func TestWriteToReportsFlushedBytes(t *testing.T) {
	g := build(t, 6, []Edge{
		{0, 1, topics.NewSet(0)},
		{3, 0, topics.NewSet(2)},
		{5, 4, topics.NewSet(0, 1, 2)},
	})
	var buf bytes.Buffer
	full, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 7, int(full) / 2, int(full) - 1} {
		fw := &failAfterWriter{limit: limit}
		n, err := g.WriteTo(fw)
		if err == nil {
			t.Fatalf("limit %d: WriteTo succeeded on a failing writer", limit)
		}
		if n != fw.n {
			t.Fatalf("limit %d: WriteTo reported %d bytes, writer accepted %d", limit, n, fw.n)
		}
	}
}
