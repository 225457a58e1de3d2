package landmark

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/gen"
)

func TestStoreRoundTrip(t *testing.T) {
	ds := gen.RandomWith(40, 400, 7)
	eng := engineOn(t, ds, 0.05)
	lms, err := Select(ds.Graph, InDeg, 4, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 20})

	var buf bytes.Buffer
	n, err := store.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != store.Len() || got.VocabLen() != store.VocabLen() || got.TopN() != store.TopN() {
		t.Fatalf("store shape mismatch after round trip")
	}
	for _, l := range store.Landmarks() {
		a, b := store.Get(l), got.Get(l)
		if b == nil {
			t.Fatalf("landmark %d lost", l)
		}
		if a.Iterations != b.Iterations {
			t.Errorf("iterations differ for %d", l)
		}
		for ti := range a.Topical {
			la, lb := a.Topical[ti], b.Topical[ti]
			if la.Len() != lb.Len() {
				t.Fatalf("list %d of %d: length %d vs %d", ti, l, la.Len(), lb.Len())
			}
			for i := range la.Nodes {
				if la.Nodes[i] != lb.Nodes[i] || la.Sigma[i] != lb.Sigma[i] || la.Topo[i] != lb.Topo[i] {
					t.Fatalf("entry %d of list %d differs", i, ti)
				}
			}
		}
		if a.TopoTop.Len() != b.TopoTop.Len() {
			t.Error("topo list length differs")
		}
	}
}

// TestReadStoreIgnoresReservedSlot: the header's reserved 8 bytes once
// carried a layout generation, written nonzero by servers that relabeled
// their engines. Such a stream still loads, with the same lists.
func TestReadStoreIgnoresReservedSlot(t *testing.T) {
	ds := gen.RandomWith(40, 400, 7)
	lms, err := Select(ds.Graph, InDeg, 3, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := Preprocess(engineOn(t, ds, 0), lms, PreprocessConfig{TopN: 20})
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.Equal(raw[16:24], make([]byte, 8)) {
		t.Fatalf("reserved slot written as % x, want zeros", raw[16:24])
	}
	binary.LittleEndian.PutUint64(raw[16:24], 42)
	got, err := ReadStore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, "epoch 42", got, store)
}

func TestReadStoreRejectsGarbage(t *testing.T) {
	if _, err := ReadStore(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short input must error")
	}
	if _, err := ReadStore(bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0})); err == nil {
		t.Error("bad magic must error")
	}
	// The retired LMK1 stream, whose header had no reserved slot.
	lmk1 := []byte{0x31, 0x4b, 0x4d, 0x4c, 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0}
	if _, err := ReadStore(bytes.NewReader(lmk1)); err == nil {
		t.Error("LMK1 magic must error")
	}
	// A header claiming an implausible vocabulary.
	var buf bytes.Buffer
	buf.Write([]byte{0x32, 0x4b, 0x4d, 0x4c}) // LMK2 magic, little-endian
	buf.Write([]byte{0xff, 0xff, 0, 0})       // vocabLen = 65535
	buf.Write([]byte{10, 0, 0, 0})
	buf.Write([]byte{0, 0, 0, 0})
	buf.Write(make([]byte, 8)) // reserved
	if _, err := ReadStore(&buf); err == nil {
		t.Error("implausible vocabulary size must error")
	}
}

func TestReadStoreTruncatedPayload(t *testing.T) {
	ds := gen.RandomWith(30, 200, 8)
	eng := engineOn(t, ds, 0.05)
	lms, _ := Select(ds.Graph, Random, 2, DefaultSelectConfig())
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 10})
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadStore(bytes.NewReader(cut)); err == nil {
		t.Error("truncated payload must error")
	}
}

// failAfterWriter accepts limit bytes, then fails — a full disk
// mid-serialization.
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

// TestWriteToReportsFlushedBytes: the count a failed WriteTo returns must
// match what the underlying writer accepted, not what bufio buffered.
func TestWriteToReportsFlushedBytes(t *testing.T) {
	ds := gen.RandomWith(30, 250, 9)
	eng := engineOn(t, ds, 0.05)
	lms, err := Select(ds.Graph, InDeg, 3, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 10})
	var buf bytes.Buffer
	full, err := store.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 5, int(full) / 3, int(full) - 1} {
		fw := &failAfterWriter{limit: limit}
		n, err := store.WriteTo(fw)
		if err == nil {
			t.Fatalf("limit %d: WriteTo succeeded on a failing writer", limit)
		}
		if n != fw.n {
			t.Fatalf("limit %d: WriteTo reported %d bytes, writer accepted %d", limit, n, fw.n)
		}
	}
}

// FuzzReadStore: the store reader must never panic on arbitrary bytes.
func FuzzReadStore(f *testing.F) {
	ds := gen.RandomWith(25, 200, 11)
	eng := engineOn(f, ds, 0.05)
	lms, err := Select(ds.Graph, InDeg, 3, DefaultSelectConfig())
	if err != nil {
		f.Fatal(err)
	}
	store, _ := Preprocess(eng, lms, PreprocessConfig{TopN: 8})
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	f.Add([]byte{0x31, 0x4b, 0x4d, 0x4c})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadStore(bytes.NewReader(data))
		if err == nil && s == nil {
			t.Fatal("nil store without error")
		}
	})
}
