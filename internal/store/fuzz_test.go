package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// snapshotCorpus writes a small real snapshot and returns its bytes plus
// mutated variants (truncated, bit-flipped) as fuzz seeds.
func seedVariants(f *testing.F, clean []byte) {
	f.Helper()
	f.Add(clean)
	f.Add(clean[:len(clean)/2])
	f.Add(clean[:headerLen])
	flip := func(off int) {
		buf := append([]byte(nil), clean...)
		buf[off] ^= 0x80
		f.Add(buf)
	}
	flip(hdrOffNSec)
	flip(hdrOffMeta + 3)
	flip(hdrOffSections + 9)
	flip(headerLen + 5)
	flip(len(clean) - 1)
}

// FuzzOpenSnapshot: a mapped TRG2 image of arbitrary bytes must decode or
// error, never panic or index outside the mapping.
func FuzzOpenSnapshot(f *testing.F) {
	path := filepath.Join(f.TempDir(), "g.trg2")
	if _, err := WriteSnapshotFile(path, testGraph(f), nil); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	seedVariants(f, clean)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, verify := range []bool{false, true} {
			s, err := newSnapshot(&mapping{data: data}, int64(len(data)), OpenOptions{Verify: verify})
			if err != nil {
				continue
			}
			if s.Graph() == nil {
				t.Fatal("nil graph without error")
			}
			// Touch the accepted graph: the structural checks must have
			// made every adjacency access safe.
			g := s.Graph()
			for u := 0; u < g.NumNodes(); u++ {
				g.Out(graph.NodeID(u))
				g.In(graph.NodeID(u))
			}
		}
	})
}

// FuzzOpenLandmarks: same contract for LMK3 images. The seeds are
// written by the current writer (version 4, f32 columns, equal-σ
// neighbours), so the clean seed must open verified.
func FuzzOpenLandmarks(f *testing.F) {
	path := filepath.Join(f.TempDir(), "l.lmk3")
	if _, err := WriteLandmarksFile(path, testLandmarkStore(f)); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := newLandmarks(&mapping{data: clean}, int64(len(clean)), OpenOptions{Verify: true}); err != nil {
		f.Fatalf("clean seed refused: %v", err)
	}
	seedVariants(f, clean)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, verify := range []bool{false, true} {
			ls, err := newLandmarks(&mapping{data: data}, int64(len(data)), OpenOptions{Verify: verify})
			if err != nil {
				continue
			}
			s := ls.Store()
			for _, lm := range s.Landmarks() {
				d := s.Get(lm)
				for i := range d.Topical {
					_ = d.Topical[i].Len()
				}
			}
		}
	})
}

// FuzzDecodeDecay: a decay sidecar of arbitrary bytes must decode or
// error, never panic or over-allocate.
func FuzzDecodeDecay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "g.trdk")
	if _, err := WriteDecayFile(path, &DecayState{
		Ref:    42,
		Origin: 7,
		Edges:  []DecayEdge{{Src: 1, Dst: 2, At: 99}, {Src: 2, Dst: 0, At: 100}},
	}); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-1])
	flip := append([]byte(nil), clean...)
	flip[decayHeaderLen+3] ^= 0x10
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeDecay(data)
		if err != nil {
			return
		}
		if uint64(len(data)-decayHeaderLen) != uint64(len(s.Edges))*decayEdgeLen {
			t.Fatalf("accepted sidecar with %d edges from %d bytes", len(s.Edges), len(data))
		}
	})
}

// FuzzScanWAL: replay over arbitrary bytes must return only fully
// validated batches and a cut offset inside the input.
func FuzzScanWAL(f *testing.F) {
	path := filepath.Join(f.TempDir(), "edges.wal")
	w, _, err := OpenWAL(path, SyncOS)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range walBatches() {
		if err := w.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	flip := append([]byte(nil), clean...)
	flip[walHeaderLen+walFrameLen+1] ^= 0x01
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, valid := scanWAL(data)
		if valid < walHeaderLen || valid > int64(len(data)) {
			// A sub-header file never reaches scanWAL in production
			// (OpenWAL rejects it), but the cut must still be sane.
			if len(data) >= walHeaderLen {
				t.Fatalf("cut offset %d outside [%d,%d]", valid, walHeaderLen, len(data))
			}
		}
		// Every returned batch must be non-empty: Append refuses empty
		// batches, so a decoded empty one means a forged frame slipped by.
		for i, b := range batches {
			if len(b) == 0 {
				t.Fatalf("batch %d decoded empty", i)
			}
		}
	})
}
