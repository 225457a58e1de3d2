package store

import (
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/landmark"
)

// LMK3 landmark-store layout, reusing the TRG2 section framing. Header
// meta: [0]=vocabLen, [1]=topN, [2]=numLandmarks, [3]=reserved (written
// as 0, ignored on open; it once held a layout generation),
// [4]=totalEntries. Sections, in file order:
//
//	0 lmIDs    L × u32            landmark ids, insertion order
//	1 lmIters  L × u32            exploration iterations per landmark
//	2 listIdx  (L×(V+1) + 1) × u64  prefix offsets into the entry columns:
//	                               landmark i's topical list t is
//	                               [idx[i×(V+1)+t], idx[i×(V+1)+t+1]),
//	                               its topo list sits at t = V
//	3 nodes    E × u32            recommended-node column
//	4 sigma    E × f64            σ column
//	5 topo     E × f64            topo_β column
//
// Where the legacy LMK2 stream interleaves per-entry (node, σ, topo)
// triplets that must be read element-by-element into heap lists, LMK3
// stores the three columns contiguously: an open casts each column once
// and every list is a subslice — the bulk of a multi-GB store is never
// copied, only the O(L) per-landmark headers go on the heap.
const (
	lmkSecIDs = iota
	lmkSecIters
	lmkSecListIdx
	lmkSecNodes
	lmkSecSigma
	lmkSecTopo
	lmkSections
)

// WriteLandmarks writes s as an LMK3 store into f.
func WriteLandmarks(f *os.File, s *landmark.Store) (int64, error) {
	lms := s.Landmarks()
	vocabLen := s.VocabLen()
	listsPer := vocabLen + 1
	ids := make([]uint32, len(lms))
	iters := make([]uint32, len(lms))
	idx := make([]uint64, len(lms)*listsPer+1)
	var total uint64
	forEachList(s, func(i, li int, l *landmark.List) {
		total += uint64(l.Len())
		idx[i*listsPer+li+1] = total
	})
	nodes := make([]graph.NodeID, 0, total)
	sigma := make([]float64, 0, total)
	topo := make([]float64, 0, total)
	for i, lm := range lms {
		d := s.Get(lm)
		ids[i] = uint32(lm)
		iters[i] = uint32(d.Iterations)
	}
	forEachList(s, func(i, li int, l *landmark.List) {
		nodes = append(nodes, l.Nodes...)
		sigma = append(sigma, l.Sigma...)
		topo = append(topo, l.Topo...)
	})
	h := &header{
		magic: landmarkMagic,
		meta: [maxMeta]uint64{
			uint64(vocabLen),
			uint64(s.TopN()),
			uint64(len(lms)),
			0, // reserved
			total,
		},
	}
	return writeSections(f, h, func(sw *sectionWriter) {
		sw.add(u32Bytes(ids))
		sw.add(u32Bytes(iters))
		sw.add(u64Bytes(idx))
		sw.add(nodeBytes(nodes))
		sw.add(f64Bytes(sigma))
		sw.add(f64Bytes(topo))
	})
}

// forEachList visits every list of every landmark in file order: the
// vocabLen topical lists, then the topo list, per landmark.
func forEachList(s *landmark.Store, f func(lmIdx, listIdx int, l *landmark.List)) {
	for i, lm := range s.Landmarks() {
		d := s.Get(lm)
		for t := range d.Topical {
			f(i, t, &d.Topical[t])
		}
		f(i, len(d.Topical), &d.TopoTop)
	}
}

// WriteLandmarksFile writes an LMK3 store atomically (temp + rename +
// dir fsync).
func WriteLandmarksFile(path string, s *landmark.Store) (int64, error) {
	return atomicWriteFile(path, func(f *os.File) (int64, error) {
		return WriteLandmarks(f, s)
	})
}

// Landmarks is an opened LMK3 file: a landmark.Store whose list columns
// alias the mapping. Close invalidates the store.
type Landmarks struct {
	m     *mapping
	s     *landmark.Store
	bytes int64
}

// OpenLandmarks maps path and wraps its columns as a zero-copy
// *landmark.Store.
func OpenLandmarks(path string, opts OpenOptions) (*Landmarks, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m, err := mapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	ls, err := newLandmarks(m, st.Size(), opts)
	if err != nil {
		m.Close() //nolint:errcheck
		return nil, err
	}
	return ls, nil
}

// newLandmarks decodes a mapped LMK3 image.
func newLandmarks(m *mapping, size int64, opts OpenOptions) (*Landmarks, error) {
	h, err := decodeHeader(m.data, landmarkMagic)
	if err != nil {
		return nil, err
	}
	if len(h.sections) < lmkSections {
		return nil, fmt.Errorf("store: landmark store has %d sections, want %d", len(h.sections), lmkSections)
	}
	vocabLen, topN, numLm, total := h.meta[0], h.meta[1], h.meta[2], h.meta[4]
	if vocabLen == 0 || vocabLen > 1024 {
		return nil, fmt.Errorf("store: implausible vocabulary size %d", vocabLen)
	}
	if numLm > 1<<24 || total > 1<<40 {
		return nil, fmt.Errorf("store: implausible store shape (%d landmarks, %d entries)", numLm, total)
	}
	listsPer := vocabLen + 1
	nIdx := numLm*listsPer + 1
	want := []struct {
		sec   int
		bytes uint64
		what  string
	}{
		{lmkSecIDs, numLm * 4, "lmIDs"},
		{lmkSecIters, numLm * 4, "lmIters"},
		{lmkSecListIdx, nIdx * 8, "listIdx"},
		{lmkSecNodes, total * 4, "nodes"},
		{lmkSecSigma, total * 8, "sigma"},
		{lmkSecTopo, total * 8, "topo"},
	}
	raw := make(map[int][]byte, len(want))
	for _, w := range want {
		b, err := m.sectionBytes(h.sections[w.sec], w.what)
		if err != nil {
			return nil, err
		}
		if uint64(len(b)) != w.bytes {
			return nil, fmt.Errorf("store: section %s holds %d bytes, want %d", w.what, len(b), w.bytes)
		}
		raw[w.sec] = b
	}
	if opts.Verify {
		names := []string{"lmIDs", "lmIters", "listIdx", "nodes", "sigma", "topo"}
		for i, s := range h.sections[:lmkSections] {
			if err := m.verifySection(s, names[i]); err != nil {
				return nil, err
			}
		}
	}
	ids := u32Slice(raw[lmkSecIDs])
	iters := u32Slice(raw[lmkSecIters])
	idx := u64Slice(raw[lmkSecListIdx])
	nodes := nodeSlice(raw[lmkSecNodes])
	sigma := f64Slice(raw[lmkSecSigma])
	topo := f64Slice(raw[lmkSecTopo])

	if idx[0] != 0 || idx[len(idx)-1] != total {
		return nil, fmt.Errorf("store: list index does not span the entry columns")
	}
	s := landmark.NewStore(int(vocabLen), int(topN))
	for i := uint64(0); i < numLm; i++ {
		d := &landmark.Data{
			Landmark:   graph.NodeID(ids[i]),
			Iterations: int(iters[i]),
			Topical:    make([]landmark.List, vocabLen),
		}
		for li := uint64(0); li <= vocabLen; li++ {
			k := i*listsPer + li
			lo, hi := idx[k], idx[k+1]
			if hi < lo || hi > total {
				return nil, fmt.Errorf("store: list index corrupt at landmark %d list %d", i, li)
			}
			if hi-lo > topN {
				return nil, fmt.Errorf("store: list of landmark %d exceeds topN %d", ids[i], topN)
			}
			l := landmark.List{
				Nodes: nodes[lo:hi:hi],
				Sigma: sigma[lo:hi:hi],
				Topo:  topo[lo:hi:hi],
			}
			if opts.Verify && !sortedBySigma(l.Sigma) {
				return nil, fmt.Errorf("store: list %d of landmark %d not ranked", li, ids[i])
			}
			if li < vocabLen {
				d.Topical[li] = l
			} else {
				d.TopoTop = l
			}
		}
		if err := s.Put(d); err != nil {
			return nil, err
		}
	}
	return &Landmarks{m: m, s: s, bytes: size}, nil
}

// sortedBySigma mirrors the LMK2 reader's ranking check.
func sortedBySigma(s []float64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			return false
		}
	}
	return true
}

// Store returns the mapping-backed landmark store. It stays valid until
// Close.
func (l *Landmarks) Store() *landmark.Store { return l.s }

// Bytes returns the file size.
func (l *Landmarks) Bytes() int64 { return l.bytes }

// Close unmaps the store; its lists must not be used afterwards.
func (l *Landmarks) Close() error {
	l.s = nil
	return l.m.Close()
}
