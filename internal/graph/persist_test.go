package graph_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/topics"
)

// A graph persists as TRG2 through internal/store, the one codec every
// tool shares; these tests drive its stream forms (store.WriteSnapshot /
// store.ReadSnapshot).

func freeze(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(topics.MustVocabulary([]string{"a", "b", "c"}), n)
	for u := 0; u < n; u++ {
		b.SetNodeTopics(graph.NodeID(u), topics.NewSet(topics.ID(u%3)))
	}
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst, e.Label)
	}
	return b.MustFreeze()
}

func encode(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := store.WriteSnapshot(&buf, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestGraphRoundTrip: ReadSnapshot(WriteSnapshot(g)) equals g edge for
// edge, with its vocabulary and node labels.
func TestGraphRoundTrip(t *testing.T) {
	g := freeze(t, 6, []graph.Edge{
		{Src: 0, Dst: 1, Label: topics.NewSet(0)},
		{Src: 0, Dst: 2, Label: topics.NewSet(1, 2)},
		{Src: 3, Dst: 0, Label: topics.NewSet(2)},
		{Src: 5, Dst: 4, Label: topics.NewSet(0, 1, 2)},
	})
	got, err := store.ReadSnapshot(bytes.NewReader(encode(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i, name := range g.Vocabulary().Names() {
		if got.Vocabulary().Names()[i] != name {
			t.Fatalf("topic %d renamed", i)
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		if got.NodeTopics(graph.NodeID(u)) != g.NodeTopics(graph.NodeID(u)) {
			t.Fatalf("node %d topics differ", u)
		}
	}
	a, b := g.Edges(), got.Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		ws, wl := g.In(graph.NodeID(u))
		gs, gl := got.In(graph.NodeID(u))
		if len(ws) != len(gs) {
			t.Fatalf("In(%d): %d edges, want %d", u, len(gs), len(ws))
		}
		for i := range ws {
			if ws[i] != gs[i] || wl[i] != gl[i] {
				t.Fatalf("In(%d)[%d] differs", u, i)
			}
		}
	}
}

// TestReadGraphRejectsGarbage: empty input, a foreign magic, a zeroed
// header page and every truncation of a valid image fail to read.
func TestReadGraphRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 0, 0, 0, 0},
		"zero page": make([]byte, 4096),
	}
	for name, in := range cases {
		if _, err := store.ReadSnapshot(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	full := encode(t, freeze(t, 4, []graph.Edge{
		{Src: 0, Dst: 1, Label: topics.NewSet(0)},
		{Src: 1, Dst: 2, Label: topics.NewSet(1)},
	}))
	// Every section is padded to a 4096-byte page and the last one is
	// short, so a cut past the last page's start may leave the image
	// whole; every earlier cut loses section bytes.
	for cut := 1; cut <= len(full)-4096; cut += 61 {
		if _, err := store.ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzReadGraph: the TRG2 stream reader must never panic on arbitrary
// input — it either returns a graph or an error.
func FuzzReadGraph(f *testing.F) {
	f.Add(encode(f, freeze(f, 3, []graph.Edge{
		{Src: 0, Dst: 1, Label: topics.NewSet(0)},
		{Src: 1, Dst: 2, Label: topics.NewSet(1)},
	})))
	f.Add([]byte{0x32, 0x47, 0x52, 0x54})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := store.ReadSnapshot(bytes.NewReader(data))
		if err == nil && g == nil {
			t.Fatal("nil graph without error")
		}
	})
}

// failAfterWriter accepts limit bytes, then fails every further write —
// a stand-in for a full disk mid-write.
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

// TestWriteToReportsFlushedBytes: the count a failed WriteSnapshot
// returns equals the bytes the underlying writer actually accepted.
func TestWriteToReportsFlushedBytes(t *testing.T) {
	g := freeze(t, 6, []graph.Edge{
		{Src: 0, Dst: 1, Label: topics.NewSet(0)},
		{Src: 3, Dst: 0, Label: topics.NewSet(2)},
		{Src: 5, Dst: 4, Label: topics.NewSet(0, 1, 2)},
	})
	full := len(encode(t, g))
	for _, limit := range []int{0, 1, 7, 4096, full / 2, full - 1} {
		fw := &failAfterWriter{limit: limit}
		n, err := store.WriteSnapshot(fw, g, nil)
		if err == nil {
			t.Fatalf("limit %d: WriteSnapshot succeeded on a failing writer", limit)
		}
		if n != fw.n {
			t.Fatalf("limit %d: WriteSnapshot reported %d bytes, writer accepted %d", limit, n, fw.n)
		}
	}
}
