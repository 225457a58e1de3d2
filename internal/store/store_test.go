package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// TestSnapshotRejectsUntransposedInRows: Verify checks that the in-rows
// are the transpose of the out-rows. An image whose one in-row label was
// changed, with every CRC recomputed, passes the per-row checks and the
// checksums, and only that check rejects it.
func TestSnapshotRejectsUntransposedInRows(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	h, err := decodeHeader(img, snapshotMagic, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	sec := &h.sections[secInLbl]
	lbl := img[sec.off : sec.off+sec.len]
	lbl[0] ^= 1 // the first in-edge's label, still inside the vocabulary
	sec.crc = crc32.Checksum(lbl, castagnoli)
	page, err := h.encode()
	if err != nil {
		t.Fatal(err)
	}
	copy(img, page)
	if _, err := newSnapshot(&mapping{data: img}, int64(len(img)), OpenOptions{}); err != nil {
		t.Fatalf("structural open rejected the image: %v", err)
	}
	if _, err := newSnapshot(&mapping{data: img}, int64(len(img)), OpenOptions{Verify: true}); err == nil {
		t.Fatal("Verify accepted in-rows that are not the transpose of the out-rows")
	}
}

func testLandmarkStore(t testing.TB) *landmark.Store {
	t.Helper()
	const vocabLen, topN = 3, 8
	s := landmark.NewStore(vocabLen, topN)
	for _, lm := range []graph.NodeID{4, 9, 17} {
		d := &landmark.Data{Landmark: lm, Iterations: 3, Topical: make([]landmark.List, vocabLen)}
		for tpc := 0; tpc < vocabLen; tpc++ {
			// Entries come in equal-σ pairs: distinct float64 scores
			// may round to one float32, so a ranked list can hold ties.
			n := (int(lm)+tpc)%topN + 1
			l := landmark.List{}
			for i := 0; i < n; i++ {
				l.Nodes = append(l.Nodes, graph.NodeID(100+i))
				l.Sigma = append(l.Sigma, 1.0/float32(i/2+1))
				l.Topo = append(l.Topo, 0.5/float32(i+1))
			}
			d.Topical[tpc] = l
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

// TestLandmarksRefuseVersion1: an LMK3 image is written at version 4. A
// version-1 image, whose list σ values are the paper's σ rather than
// σ/g(t), is refused at open with an error naming its version, even with
// a valid header checksum, instead of being misread; the same image at
// version 4 round-trips.
func TestLandmarksRefuseVersion1(t *testing.T) {
	requireLandmarksRefuseVersion(t, 1)
}

// TestLandmarksRefuseVersion2: a version-2 image holds a topological list
// per landmark after its topical ones, which version 3 dropped; it is
// refused at open with an error naming its version.
func TestLandmarksRefuseVersion2(t *testing.T) {
	requireLandmarksRefuseVersion(t, 2)
}

// TestLandmarksRefuseVersion3: a version-3 image holds its σ and topo
// columns as f64, twice the bytes version 4 reads per entry; it is
// refused at open with "unsupported format version 3, want 4".
func TestLandmarksRefuseVersion3(t *testing.T) {
	requireLandmarksRefuseVersion(t, 3)
}

// requireLandmarksRefuseVersion relabels a freshly written LMK3 image as
// version v and requires OpenLandmarks to refuse it by that version,
// while the image as written round-trips.
func requireLandmarksRefuseVersion(t *testing.T, v uint32) {
	t.Helper()
	s := testLandmarkStore(t)
	path := filepath.Join(t.TempDir(), "l.lmk3")
	if _, err := WriteLandmarksFile(path, s); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(buf, landmarkMagic, landmarkVersion)
	if err != nil {
		t.Fatal(err)
	}
	if h.version != 4 {
		t.Fatalf("image written at version %d, want 4", h.version)
	}
	h.version = v
	page, err := h.encode()
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old.lmk3")
	if err := os.WriteFile(old, append(page, buf[len(page):]...), 0o600); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("version %d, want 4", v)
	if ls, err := OpenLandmarks(old, OpenOptions{Verify: true}); err == nil || !strings.Contains(err.Error(), name) {
		if ls != nil {
			ls.Close() //nolint:errcheck
		}
		t.Fatalf("OpenLandmarks on a %s image: %v, want an error naming %s", name, err, name)
	}
	ls, err := OpenLandmarks(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	requireStoresEqual(t, s, ls.Store())
}

// TestLandmarksFloat32RoundTrip: the σ and topo columns are E × f32
// sections, and every float32 bit pattern a list can hold (subnormal,
// the largest finite, a full mantissa, equal neighbours) comes back bit
// for bit through the mapping (OpenLandmarks) and through the heap
// reader (ReadLandmarks).
func TestLandmarksFloat32RoundTrip(t *testing.T) {
	vals := []float32{
		math.MaxFloat32,
		math.Nextafter32(1, 2),
		1,
		1,
		math.Float32frombits(0x3eaaaaab), // ≈ 1/3, every mantissa bit used
		math.SmallestNonzeroFloat32 * 7,
		math.SmallestNonzeroFloat32,
		0,
	}
	s := landmark.NewStore(2, len(vals))
	d := &landmark.Data{Landmark: 3, Iterations: 5, Topical: make([]landmark.List, 2)}
	for i, v := range vals {
		d.Topical[1].Nodes = append(d.Topical[1].Nodes, graph.NodeID(i))
		d.Topical[1].Sigma = append(d.Topical[1].Sigma, v)
		d.Topical[1].Topo = append(d.Topical[1].Topo, vals[len(vals)-1-i])
	}
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "l.lmk3")
	if _, err := WriteLandmarksFile(path, s); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(img, landmarkMagic, landmarkVersion)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int{lmkSecSigma, lmkSecTopo} {
		if got, want := h.sections[sec].len, uint64(4*len(vals)); got != want {
			t.Fatalf("section %d holds %d bytes, want %d (E × f32)", sec, got, want)
		}
	}
	check := func(path string, got *landmark.Store) {
		t.Helper()
		l := got.Get(3).Topical[1]
		for i := range vals {
			if g, w := math.Float32bits(l.Sigma[i]), math.Float32bits(vals[i]); g != w {
				t.Fatalf("%s: σ[%d] bits %#x, want %#x", path, i, g, w)
			}
			if g, w := math.Float32bits(l.Topo[i]), math.Float32bits(vals[len(vals)-1-i]); g != w {
				t.Fatalf("%s: topo[%d] bits %#x, want %#x", path, i, g, w)
			}
		}
		requireStoresEqual(t, s, got)
	}
	ls, err := OpenLandmarks(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	check("OpenLandmarks", ls.Store())
	heap, err := ReadLandmarks(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	check("ReadLandmarks", heap)
}

// TestSortedBySigmaAcceptsTies: Verify's rank check admits equal
// neighbours, which float32 rounding produces, and refuses a rise.
func TestSortedBySigmaAcceptsTies(t *testing.T) {
	for _, tc := range []struct {
		s    []float32
		want bool
	}{
		{nil, true},
		{[]float32{1}, true},
		{[]float32{3, 2, 2, 2, 1}, true},
		{[]float32{2, 2}, true},
		{[]float32{2, 2, 3}, false},
		{[]float32{1, math.Nextafter32(1, 2)}, false},
	} {
		if got := sortedBySigma(tc.s); got != tc.want {
			t.Errorf("sortedBySigma(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
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
	h, err := decodeHeader(buf, landmarkMagic, landmarkVersion)
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

// TestLandmarksStaleMarks: the per-(landmark, topic) stale marks travel
// with the lists. An image written without the stale section opens with
// nothing stale, and a mark outside the vocabulary is refused.
func TestLandmarksStaleMarks(t *testing.T) {
	s := testLandmarkStore(t)
	s.SetStale(9, topics.NewSet(0, 2))
	s.SetStale(17, topics.NewSet(1))
	path := filepath.Join(t.TempDir(), "l.lmk3")
	if _, err := WriteLandmarksFile(path, s); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLandmarks(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	requireStoresEqual(t, s, ls.Store())
	if got := ls.Store().StaleLandmarks(); got != 2 {
		t.Fatalf("%d stale landmarks after the round trip, want 2", got)
	}
	ls.Close() //nolint:errcheck

	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(clean, landmarkMagic, landmarkVersion)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.sections) != lmkSecStale+1 {
		t.Fatalf("image holds %d sections, want %d", len(h.sections), lmkSecStale+1)
	}
	stale := h.sections[lmkSecStale]

	// Without the section: the lists, and nothing stale.
	old := append([]byte(nil), clean...)
	h.sections = h.sections[:lmkSecStale]
	page, err := h.encode()
	if err != nil {
		t.Fatal(err)
	}
	copy(old, page)
	ols, err := newLandmarks(&mapping{data: old}, int64(len(old)), OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, lm := range s.Landmarks() {
		if ols.Store().Stale(lm) != 0 {
			t.Fatalf("an image without marks opened landmark %d stale", lm)
		}
	}
	ols.Close() //nolint:errcheck

	// A mark on topic 5 of a 3-topic store.
	bad := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(bad[stale.off:], 1<<5)
	if _, err := newLandmarks(&mapping{data: bad}, int64(len(bad)), OpenOptions{}); err == nil {
		t.Fatal("a mark outside the vocabulary was accepted")
	}
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
		if want.Stale(lm) != got.Stale(lm) {
			t.Fatalf("landmark %d stale topics: want %v, got %v", lm, want.Stale(lm).Topics(), got.Stale(lm).Topics())
		}
		wl, gl := wd.Topical, gd.Topical
		if len(wl) != len(gl) {
			t.Fatalf("landmark %d: want %d lists, got %d", lm, len(wl), len(gl))
		}
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

// A version-1 log (untimestamped 13-byte deltas) has no reader: OpenWAL
// must name the version and leave every byte in place rather than treat
// the records as a torn tail and truncate them.
func TestWALRejectsVersion1(t *testing.T) {
	le := binary.LittleEndian
	data := le.AppendUint32(nil, walMagic)
	data = le.AppendUint32(data, 1)
	payload := le.AppendUint32(nil, 1) // one delta: src, dst, label, add
	payload = le.AppendUint32(payload, 1)
	payload = le.AppendUint32(payload, 2)
	payload = le.AppendUint32(payload, uint32(topics.NewSet(0)))
	payload = append(payload, 1)
	frame := le.AppendUint64(nil, 0) // seq ++ payload, the CRC's input
	frame = append(frame, payload...)
	data = le.AppendUint32(data, uint32(len(payload)))
	data = le.AppendUint32(data, crc32.Checksum(frame, castagnoli))
	data = append(data, frame...)

	path := filepath.Join(t.TempDir(), "v1.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(path, SyncOS)
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("OpenWAL on a version-1 log: %v, want an error naming version 1", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("version-1 log changed: %d bytes before, %d after", len(data), len(after))
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

// TestLandmarkIDBound: an LMK3 image naming a landmark id at or past
// maxLandmarkID is rejected before the store sizes its node-indexed table
// from it; the same image with a smaller new id decodes.
func TestLandmarkIDBound(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteLandmarks(&buf, testLandmarkStore(t)); err != nil {
		t.Fatal(err)
	}
	ids := []byte{4, 0, 0, 0, 9, 0, 0, 0, 17, 0, 0, 0} // lmIDs: 4, 9, 17
	at := bytes.Index(buf.Bytes(), ids)
	if at < 0 {
		t.Fatal("lmIDs section not found")
	}
	for _, c := range []struct {
		id uint32
		ok bool
	}{{1000, true}, {maxLandmarkID, false}, {1<<32 - 1, false}} {
		img := bytes.Clone(buf.Bytes())
		img[at+8], img[at+9], img[at+10], img[at+11] = byte(c.id), byte(c.id>>8), byte(c.id>>16), byte(c.id>>24)
		_, err := newLandmarks(&mapping{data: img}, int64(len(img)), OpenOptions{})
		if (err == nil) != c.ok {
			t.Errorf("landmark id %d: err %v, want accepted %v", c.id, err, c.ok)
		}
	}
}
