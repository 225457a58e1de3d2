package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// requireViewsEqual compares two graph views accessor by accessor — the
// round-trip contract a snapshot must honor exactly.
func requireViewsEqual(t testing.TB, want, got graph.View) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("NumNodes: want %d, got %d", want.NumNodes(), got.NumNodes())
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("NumEdges: want %d, got %d", want.NumEdges(), got.NumEdges())
	}
	if wn, gn := want.Vocabulary().Names(), got.Vocabulary().Names(); len(wn) != len(gn) {
		t.Fatalf("vocab: want %d topics, got %d", len(wn), len(gn))
	} else {
		for i := range wn {
			if wn[i] != gn[i] {
				t.Fatalf("vocab[%d]: want %q, got %q", i, wn[i], gn[i])
			}
		}
	}
	for u := 0; u < want.NumNodes(); u++ {
		id := graph.NodeID(u)
		if want.NodeTopics(id) != got.NodeTopics(id) {
			t.Fatalf("NodeTopics(%d) differ", u)
		}
		wd, wl := want.Out(id)
		gd, gl := got.Out(id)
		if len(wd) != len(gd) {
			t.Fatalf("Out(%d): want %d edges, got %d", u, len(wd), len(gd))
		}
		for i := range wd {
			if wd[i] != gd[i] || wl[i] != gl[i] {
				t.Fatalf("Out(%d)[%d]: want (%d,%v), got (%d,%v)", u, i, wd[i], wl[i], gd[i], gl[i])
			}
		}
		ws, wl2 := want.In(id)
		gs, gl2 := got.In(id)
		if len(ws) != len(gs) {
			t.Fatalf("In(%d): want %d edges, got %d", u, len(ws), len(gs))
		}
		for i := range ws {
			if ws[i] != gs[i] || wl2[i] != gl2[i] {
				t.Fatalf("In(%d)[%d]: want (%d,%v), got (%d,%v)", u, i, ws[i], wl2[i], gs[i], gl2[i])
			}
		}
	}
}

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.RandomWith(80, 700, 42).Graph
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.trg2")
	if _, err := WriteSnapshotFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshot(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	requireViewsEqual(t, g, s.Graph())
	if _, ok := s.Permutation(); ok {
		t.Error("snapshot without perm reports one")
	}
}

func TestSnapshotRoundTripWithPerm(t *testing.T) {
	g := testGraph(t)
	fwd := make([]graph.NodeID, g.NumNodes())
	for i := range fwd {
		fwd[i] = graph.NodeID(len(fwd) - 1 - i)
	}
	perm, err := graph.PermutationFromForward(fwd)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.trg2")
	if _, err := WriteSnapshotFile(path, g, &perm); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshot(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	requireViewsEqual(t, g, s.Graph())
	got, ok := s.Permutation()
	if !ok {
		t.Fatal("embedded permutation missing")
	}
	for i := range fwd {
		if got.Apply(graph.NodeID(i)) != fwd[i] {
			t.Fatalf("perm[%d]: want %d, got %d", i, fwd[i], got.Apply(graph.NodeID(i)))
		}
	}
}

// TestSnapshotRejectsCorruption flips one byte at a sweep of offsets and
// requires every corrupted image to either fail Verify-open or decode
// without panicking — never crash.
func TestSnapshotRejectsCorruption(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.trg2")
	if _, err := WriteSnapshotFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A pristine copy opens.
	if _, err := newSnapshot(&mapping{data: append([]byte(nil), clean...)}, int64(len(clean)), OpenOptions{Verify: true}); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	for off := 0; off < len(clean); off += 97 {
		buf := append([]byte(nil), clean...)
		buf[off] ^= 0x40
		s, err := newSnapshot(&mapping{data: buf}, int64(len(buf)), OpenOptions{Verify: true})
		if err == nil {
			// The flip landed in page padding; the image is still intact.
			s.Close() //nolint:errcheck
		}
	}
	// Header corruption must always be fatal, even without Verify.
	buf := append([]byte(nil), clean...)
	buf[hdrOffCRC] ^= 0xff
	if _, err := newSnapshot(&mapping{data: buf}, int64(len(buf)), OpenOptions{}); err == nil {
		t.Fatal("corrupt header CRC accepted")
	}
	// Truncations that cut into section data must be rejected. (Chopping
	// only the final page padding still leaves a valid image, so the last
	// probe point is just shy of the final section's end.)
	for _, n := range []int{0, 1, headerLen - 1, headerLen, headerLen + 1, len(clean) / 2} {
		if _, err := newSnapshot(&mapping{data: clean[:n]}, int64(n), OpenOptions{}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func testLandmarkStore(t testing.TB) *landmark.Store {
	t.Helper()
	const vocabLen, topN = 3, 8
	s := landmark.NewStore(vocabLen, topN)
	for _, lm := range []graph.NodeID{4, 9, 17} {
		d := &landmark.Data{Landmark: lm, Iterations: 3, Topical: make([]landmark.List, vocabLen)}
		for tpc := 0; tpc < vocabLen; tpc++ {
			n := (int(lm)+tpc)%topN + 1
			l := landmark.List{}
			for i := 0; i < n; i++ {
				l.Nodes = append(l.Nodes, graph.NodeID(100+i))
				l.Sigma = append(l.Sigma, 1.0/float64(i+1))
				l.Topo = append(l.Topo, 0.5/float64(i+1))
			}
			d.Topical[tpc] = l
		}
		d.TopoTop = landmark.List{
			Nodes: []graph.NodeID{200, 201},
			Sigma: []float64{0.9, 0.8},
			Topo:  []float64{0.7, 0.6},
		}
		if err := s.Put(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestLandmarksRoundTrip(t *testing.T) {
	s := testLandmarkStore(t)
	path := filepath.Join(t.TempDir(), "l.lmk3")
	if _, err := WriteLandmarksFile(path, s); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLandmarks(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	requireStoresEqual(t, s, ls.Store())
}

// TestLandmarksIgnoreReservedMeta: header meta [3] once carried a layout
// generation, written nonzero by servers that relabeled their engines. A
// file carrying one still opens, with the same lists.
func TestLandmarksIgnoreReservedMeta(t *testing.T) {
	s := testLandmarkStore(t)
	path := filepath.Join(t.TempDir(), "l.lmk3")
	if _, err := WriteLandmarksFile(path, s); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(buf, landmarkMagic)
	if err != nil {
		t.Fatal(err)
	}
	if h.meta[3] != 0 {
		t.Fatalf("reserved meta written as %d, want 0", h.meta[3])
	}
	h.meta[3] = 42
	page, err := h.encode()
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, page)
	ls, err := newLandmarks(&mapping{data: buf}, int64(len(buf)), OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	requireStoresEqual(t, s, ls.Store())
}

// requireStoresEqual compares two landmark stores list by list.
func requireStoresEqual(t testing.TB, want, got *landmark.Store) {
	t.Helper()
	if got.VocabLen() != want.VocabLen() || got.TopN() != want.TopN() {
		t.Fatalf("store shape differs: %d/%d vs %d/%d",
			got.VocabLen(), got.TopN(), want.VocabLen(), want.TopN())
	}
	wantLms := want.Landmarks()
	gotLms := got.Landmarks()
	if len(wantLms) != len(gotLms) {
		t.Fatalf("landmark count: want %d, got %d", len(wantLms), len(gotLms))
	}
	for _, lm := range wantLms {
		wd, gd := want.Get(lm), got.Get(lm)
		if gd == nil {
			t.Fatalf("landmark %d missing", lm)
		}
		if wd.Iterations != gd.Iterations {
			t.Fatalf("landmark %d iterations: want %d, got %d", lm, wd.Iterations, gd.Iterations)
		}
		lists := func(d *landmark.Data) []landmark.List {
			return append(append([]landmark.List{}, d.Topical...), d.TopoTop)
		}
		wl, gl := lists(wd), lists(gd)
		for li := range wl {
			if len(wl[li].Nodes) != len(gl[li].Nodes) {
				t.Fatalf("landmark %d list %d: want %d entries, got %d", lm, li, len(wl[li].Nodes), len(gl[li].Nodes))
			}
			for i := range wl[li].Nodes {
				if wl[li].Nodes[i] != gl[li].Nodes[i] ||
					wl[li].Sigma[i] != gl[li].Sigma[i] ||
					wl[li].Topo[i] != gl[li].Topo[i] {
					t.Fatalf("landmark %d list %d entry %d differs", lm, li, i)
				}
			}
		}
	}
}

func TestLandmarksRejectsCorruption(t *testing.T) {
	s := testLandmarkStore(t)
	path := filepath.Join(t.TempDir(), "l.lmk3")
	if _, err := WriteLandmarksFile(path, s); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(clean); off += 53 {
		buf := append([]byte(nil), clean...)
		buf[off] ^= 0x10
		ls, err := newLandmarks(&mapping{data: buf}, int64(len(buf)), OpenOptions{Verify: true})
		if err == nil {
			ls.Close() //nolint:errcheck
		}
	}
	for _, n := range []int{0, headerLen - 2, headerLen, len(clean) / 2} {
		if _, err := newLandmarks(&mapping{data: clean[:n]}, int64(n), OpenOptions{}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func walBatches() [][]EdgeDelta {
	return [][]EdgeDelta{
		{{Src: 1, Dst: 2, Label: topics.NewSet(0), Add: true}},
		{
			{Src: 3, Dst: 4, Label: topics.NewSet(1), Add: true},
			{Src: 1, Dst: 2, Label: 0, Add: false},
		},
		{{Src: 7, Dst: 8, Label: topics.NewSet(0, 1), Add: true}},
	}
}

func requireBatchesEqual(t testing.TB, want, got [][]EdgeDelta) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("batch count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("batch %d: want %d deltas, got %d", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("batch %d delta %d: want %+v, got %+v", i, j, want[i][j], got[i][j])
			}
		}
	}
}

func TestWALAppendReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.wal")
	w, batches, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 0 {
		t.Fatalf("fresh WAL replayed %d batches", len(batches))
	}
	want := walBatches()
	for _, b := range want {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != uint64(len(want)) {
		t.Fatalf("records = %d, want %d", w.Records(), len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	requireBatchesEqual(t, want, got)
	// Appending after a reopen continues the sequence.
	extra := []EdgeDelta{{Src: 9, Dst: 10, Label: topics.NewSet(1), Add: true}}
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = OpenWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	requireBatchesEqual(t, append(want, extra), got)
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.wal")
	w, _, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	want := walBatches()
	for _, b := range want {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	full := w.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop the last record in half.
	if err := os.Truncate(path, full-9); err != nil {
		t.Fatal(err)
	}
	w2, got, err := OpenWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	requireBatchesEqual(t, want[:len(want)-1], got)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= full-9 {
		t.Fatalf("torn tail not truncated: %d bytes", st.Size())
	}
}

func TestWALCorruptRecordDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.wal")
	w, _, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	want := walBatches()
	offsets := []int64{w.Size()}
	for _, b := range want {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the second record: it and everything
	// after must be dropped; the first record must survive.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[1]+walFrameLen+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, got, err := OpenWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	requireBatchesEqual(t, want[:1], got)
}

func TestWALTruncateResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.wal")
	w, _, err := OpenWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range walBatches() {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != walHeaderLen || w.Records() != 0 {
		t.Fatalf("after truncate: size=%d records=%d", w.Size(), w.Records())
	}
	// The log still works: append and reopen from scratch.
	one := walBatches()[:1]
	if err := w.Append(one[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	requireBatchesEqual(t, one, got)
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("definitely not a WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path, SyncOS); err == nil {
		t.Fatal("foreign file accepted as WAL")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"os", SyncOS, true},
		{"always", SyncAlways, true},
		{"never", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
}
