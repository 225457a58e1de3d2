package landmark_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/store"
)

// The landmark store persists as LMK3 through internal/store, the one
// codec every tool shares; these tests drive its stream forms
// (store.WriteLandmarks / store.ReadLandmarks) with preprocessed stores.

// randomLandmarks builds an engine over a random graph and selects k
// In-Deg landmarks on it.
func randomLandmarks(tb testing.TB, nodes, edges int, seed uint64, k int) (*core.Engine, []graph.NodeID) {
	tb.Helper()
	ds := gen.RandomWith(nodes, edges, seed)
	p := core.DefaultParams()
	p.Beta = 0.05
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, p)
	if err != nil {
		tb.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, k, landmark.DefaultSelectConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return eng, lms
}

// preprocessed preprocesses k In-Deg landmarks of a random graph into
// top-topN lists.
func preprocessed(tb testing.TB, nodes, edges int, seed uint64, k, topN int) *landmark.Store {
	tb.Helper()
	eng, lms := randomLandmarks(tb, nodes, edges, seed, k)
	s, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: topN})
	return s
}

func encode(tb testing.TB, s *landmark.Store) []byte {
	tb.Helper()
	var buf bytes.Buffer
	n, err := store.WriteLandmarks(&buf, s)
	if err != nil {
		tb.Fatal(err)
	}
	if n != int64(buf.Len()) {
		tb.Fatalf("WriteLandmarks reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// requireSameStore compares two stores landmark by landmark, list by list.
func requireSameStore(t *testing.T, want, got *landmark.Store) {
	t.Helper()
	if got.Len() != want.Len() || got.VocabLen() != want.VocabLen() || got.TopN() != want.TopN() {
		t.Fatalf("store shape %d/%d/%d, want %d/%d/%d",
			got.Len(), got.VocabLen(), got.TopN(), want.Len(), want.VocabLen(), want.TopN())
	}
	for _, lm := range want.Landmarks() {
		a, b := want.Get(lm), got.Get(lm)
		if b == nil {
			t.Fatalf("landmark %d lost", lm)
		}
		if a.Iterations != b.Iterations {
			t.Errorf("iterations differ for %d", lm)
		}
		la, lb := a.Topical, b.Topical
		if len(la) != len(lb) {
			t.Fatalf("landmark %d: %d lists vs %d", lm, len(la), len(lb))
		}
		for li := range la {
			if la[li].Len() != lb[li].Len() {
				t.Fatalf("list %d of %d: length %d vs %d", li, lm, la[li].Len(), lb[li].Len())
			}
			for i := range la[li].Nodes {
				if la[li].Nodes[i] != lb[li].Nodes[i] || la[li].Sigma[i] != lb[li].Sigma[i] || la[li].Topo[i] != lb[li].Topo[i] {
					t.Fatalf("entry %d of list %d of %d differs", i, li, lm)
				}
			}
		}
	}
}

// TestStoreRoundTrip: ReadLandmarks(WriteLandmarks(s)) equals s entry for
// entry.
func TestStoreRoundTrip(t *testing.T) {
	s := preprocessed(t, 40, 400, 7, 4, 20)
	got, err := store.ReadLandmarks(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameStore(t, s, got)
}

// TestParallelPreprocessKeepsInputOrder: parallel workers finish in any
// order, yet the store lists the landmarks in the order they were asked
// for, so the LMK3 image of a parallel run is byte-identical from run to
// run and to a single-worker run.
func TestParallelPreprocessKeepsInputOrder(t *testing.T) {
	eng, lms := randomLandmarks(t, 300, 3000, 5, 16)
	// Reverse the selection so the input order is not the cost order.
	for i, j := 0, len(lms)-1; i < j; i, j = i+1, j-1 {
		lms[i], lms[j] = lms[j], lms[i]
	}
	seq, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 20, Workers: 1})
	want := encode(t, seq)
	for run := 0; run < 5; run++ {
		s, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 20, Workers: 4})
		if got := s.Landmarks(); !slices.Equal(got, lms) {
			t.Fatalf("run %d: Landmarks() = %v, want the input order %v", run, got, lms)
		}
		if !bytes.Equal(encode(t, s), want) {
			t.Fatalf("run %d: Workers=4 image differs from the Workers=1 image", run)
		}
	}
}

// Header page layout: meta scalars from byte 24 (LMK3's meta[0] is the
// vocabulary size, meta[3] the reserved slot); the header CRC-32C, over
// the page with the CRC field zeroed, at byte 16.
const metaOff, crcOff, headerPage = 24, 16, 4096

// setMeta overwrites one header meta scalar of an image and re-stamps
// the header CRC, so only the decoder's content checks can object.
func setMeta(raw []byte, i int, v uint64) {
	binary.LittleEndian.PutUint64(raw[metaOff+8*i:], v)
	binary.LittleEndian.PutUint32(raw[crcOff:], 0)
	binary.LittleEndian.PutUint32(raw[crcOff:], crc32.Checksum(raw[:headerPage], crc32.MakeTable(crc32.Castagnoli)))
}

// TestReadStoreIgnoresReservedSlot: header meta slot 3 once carried a
// layout generation, written nonzero by servers that relabeled their
// engines. An image carrying one still reads, with the same lists.
func TestReadStoreIgnoresReservedSlot(t *testing.T) {
	s := preprocessed(t, 40, 400, 7, 3, 20)
	raw := encode(t, s)
	if v := binary.LittleEndian.Uint64(raw[metaOff+3*8:]); v != 0 {
		t.Fatalf("reserved slot written as %d, want 0", v)
	}
	setMeta(raw, 3, 42)
	got, err := store.ReadLandmarks(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	requireSameStore(t, s, got)
}

// TestReadStoreRejectsGarbage: short input, a foreign magic, a zeroed
// header page and a checksummed header claiming an implausible
// vocabulary all fail to read.
func TestReadStoreRejectsGarbage(t *testing.T) {
	implausible := encode(t, preprocessed(t, 30, 200, 8, 2, 10))
	setMeta(implausible, 0, 65535)
	cases := map[string][]byte{
		"short":       {1, 2, 3},
		"bad magic":   {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0},
		"zero page":   make([]byte, headerPage),
		"vocab 65535": implausible,
	}
	for name, in := range cases {
		if _, err := store.ReadLandmarks(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestReadStoreTruncatedPayload: an image cut anywhere inside its
// sections fails to read.
func TestReadStoreTruncatedPayload(t *testing.T) {
	raw := encode(t, preprocessed(t, 30, 200, 8, 2, 10))
	for _, cut := range []int{1, 4095, 4096, 4097, len(raw) / 2} {
		if _, err := store.ReadLandmarks(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation to %d of %d bytes accepted", cut, len(raw))
		}
	}
}

// failAfterWriter accepts limit bytes, then fails — a full disk
// mid-write.
type failAfterWriter struct {
	limit int
	n     int64
}

var errDiskFull = errors.New("disk full")

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

// TestWriteToReportsFlushedBytes: the count a failed WriteLandmarks
// returns is what the underlying writer accepted.
func TestWriteToReportsFlushedBytes(t *testing.T) {
	s := preprocessed(t, 30, 250, 9, 3, 10)
	full := len(encode(t, s))
	for _, limit := range []int{0, 5, 4096, full / 3, full - 1} {
		fw := &failAfterWriter{limit: limit}
		n, err := store.WriteLandmarks(fw, s)
		if err == nil {
			t.Fatalf("limit %d: WriteLandmarks succeeded on a failing writer", limit)
		}
		if n != fw.n {
			t.Fatalf("limit %d: WriteLandmarks reported %d bytes, writer accepted %d", limit, n, fw.n)
		}
	}
}

// FuzzReadStore: the LMK3 stream reader must never panic on arbitrary
// bytes.
func FuzzReadStore(f *testing.F) {
	full := encode(f, preprocessed(f, 25, 200, 11, 3, 8))
	f.Add(full)
	f.Add(full[:len(full)/2])
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	f.Add(full[:headerPage])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := store.ReadLandmarks(bytes.NewReader(data))
		if err == nil && s == nil {
			t.Fatal("nil store without error")
		}
	})
}

func BenchmarkStoreSerialize(b *testing.B) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 2000
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	lms, _ := landmark.Select(ds.Graph, landmark.InDeg, 10, landmark.DefaultSelectConfig())
	s, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 1000})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := store.WriteLandmarks(&buf, s); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		if _, err := store.ReadLandmarks(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
