//go:build unix

package store

import (
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
)

// openAllocBytes is the heap an open allocates, averaged over a few
// open/close cycles.
func openAllocBytes(t *testing.T, open func() (io.Closer, error)) uint64 {
	t.Helper()
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c, err := open()
		if err != nil {
			t.Fatal(err)
		}
		c.Close() //nolint:errcheck
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// requireZeroCopy checks that opening the larger file allocates no more
// than opening the smaller one (with slack for allocator noise) and far
// less than the file holds: the sections are mapped, not copied.
func requireZeroCopy(t *testing.T, what string, sizes [2]int64, allocs [2]uint64) {
	t.Helper()
	if sizes[1] < 8*sizes[0] {
		t.Fatalf("%s: files %d and %d bytes are not ~10x apart", what, sizes[0], sizes[1])
	}
	if allocs[1] > 2*allocs[0]+1024 {
		t.Errorf("%s: open allocates %d B for a %d B file but %d B for a %d B file: grows with the file",
			what, allocs[0], sizes[0], allocs[1], sizes[1])
	}
	if allocs[1] > uint64(sizes[1]/100) {
		t.Errorf("%s: open allocates %d B for a %d B file", what, allocs[1], sizes[1])
	}
}

// TestOpenSnapshotIsZeroCopy: with checksum verification off, the heap an
// OpenSnapshot allocates does not grow with the graph.
func TestOpenSnapshotIsZeroCopy(t *testing.T) {
	var sizes [2]int64
	var allocs [2]uint64
	for i, n := range []int{2000, 20000} {
		path := filepath.Join(t.TempDir(), "g.trg2")
		size, err := WriteSnapshotFile(path, gen.RandomWith(n, 10*n, 1).Graph, nil)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = size
		allocs[i] = openAllocBytes(t, func() (io.Closer, error) {
			return OpenSnapshot(path, OpenOptions{})
		})
	}
	requireZeroCopy(t, "snapshot", sizes, allocs)
}

// TestOpenLandmarksIsZeroCopy: with checksum verification off, the heap an
// OpenLandmarks allocates depends on the landmark count, not on the
// length of the lists it maps.
func TestOpenLandmarksIsZeroCopy(t *testing.T) {
	const vocabLen, numLm = 3, 8
	var sizes [2]int64
	var allocs [2]uint64
	for i, topN := range []int{500, 5000} {
		s := landmark.NewStore(vocabLen, topN)
		for lm := 0; lm < numLm; lm++ {
			d := &landmark.Data{Landmark: graph.NodeID(lm), Topical: make([]landmark.List, vocabLen)}
			for li := range d.Topical {
				var l landmark.List
				for k := 0; k < topN; k++ {
					l.Nodes = append(l.Nodes, graph.NodeID(k))
					l.Sigma = append(l.Sigma, 1/float32(k+1))
					l.Topo = append(l.Topo, 1/float32(k+2))
				}
				d.Topical[li] = l
			}
			if err := s.Put(d); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "l.lmk3")
		size, err := WriteLandmarksFile(path, s)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = size
		allocs[i] = openAllocBytes(t, func() (io.Closer, error) {
			return OpenLandmarks(path, OpenOptions{})
		})
	}
	requireZeroCopy(t, "landmarks", sizes, allocs)
}
