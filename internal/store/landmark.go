package store

import (
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// LMK3 landmark-store layout, reusing the TRG2 section framing. Header
// meta: [0]=vocabLen, [1]=topN, [2]=numLandmarks, [3]=reserved (written
// as 0, ignored on open; it once held a layout generation),
// [4]=totalEntries. Sections, in file order:
//
//	0 lmIDs    L × u32            landmark ids, insertion order
//	1 lmIters  L × u32            exploration iterations per landmark
//	2 listIdx  (L×V + 1) × u64    prefix offsets into the entry columns:
//	                               landmark i's topical list t is
//	                               [idx[i×V+t], idx[i×V+t+1])
//	3 nodes    E × u32            recommended-node column
//	4 sigma    E × f32            σ column
//	5 topo     E × f32            topo_β column
//	6 stale    L × u32            per landmark, the topics whose list
//	                               awaits a refresh (bit t for topic t)
//
// Section 6 is optional: an image without it opens with nothing stale.
// An entry costs 12 bytes: its node id and its float32 σ and topo_β, as
// landmark.List holds them (version 3 held f64 columns, 20 bytes). The
// three entry columns are stored contiguously: an open casts each
// column once and every list is a subslice — the bulk of a multi-GB
// store is never copied, only the O(L) per-landmark headers go on the
// heap.
const (
	lmkSecIDs = iota
	lmkSecIters
	lmkSecListIdx
	lmkSecNodes
	lmkSecSigma
	lmkSecTopo
	lmkSections // the sections every image holds
	lmkSecStale = lmkSections
)

// WriteLandmarks writes s as an LMK3 image to w, returning the bytes w
// accepted.
func WriteLandmarks(w io.Writer, s *landmark.Store) (int64, error) {
	lms := s.Landmarks()
	vocabLen := s.VocabLen()
	ids := make([]uint32, len(lms))
	iters := make([]uint32, len(lms))
	stale := make([]uint32, len(lms))
	idx := make([]uint64, len(lms)*vocabLen+1)
	var total uint64
	forEachList(s, func(i, li int, l *landmark.List) {
		total += uint64(l.Len())
		idx[i*vocabLen+li+1] = total
	})
	nodes := make([]graph.NodeID, 0, total)
	sigma := make([]float32, 0, total)
	topo := make([]float32, 0, total)
	for i, lm := range lms {
		d := s.Get(lm)
		ids[i] = uint32(lm)
		iters[i] = uint32(d.Iterations)
		stale[i] = uint32(s.Stale(lm))
	}
	forEachList(s, func(i, li int, l *landmark.List) {
		nodes = append(nodes, l.Nodes...)
		sigma = append(sigma, l.Sigma...)
		topo = append(topo, l.Topo...)
	})
	h := &header{
		magic:   landmarkMagic,
		version: landmarkVersion,
		meta: [maxMeta]uint64{
			uint64(vocabLen),
			uint64(s.TopN()),
			uint64(len(lms)),
			0, // reserved
			total,
		},
	}
	return writeImage(w, h, [][]byte{
		u32Bytes(ids),
		u32Bytes(iters),
		u64Bytes(idx),
		nodeBytes(nodes),
		f32Bytes(sigma),
		f32Bytes(topo),
		u32Bytes(stale),
	})
}

// forEachList visits every list of every landmark in file order: the
// vocabLen topical lists per landmark.
func forEachList(s *landmark.Store, f func(lmIdx, listIdx int, l *landmark.List)) {
	for i, lm := range s.Landmarks() {
		d := s.Get(lm)
		for t := range d.Topical {
			f(i, t, &d.Topical[t])
		}
	}
}

// WriteLandmarksFile writes an LMK3 store atomically (temp + rename +
// dir fsync).
func WriteLandmarksFile(path string, s *landmark.Store) (int64, error) {
	return atomicWriteFile(path, func(w io.Writer) (int64, error) {
		return WriteLandmarks(w, s)
	})
}

// ReadLandmarks reads an LMK3 image from r into the heap and decodes it
// with the deep integrity pass on (OpenOptions.Verify).
func ReadLandmarks(r io.Reader) (*landmark.Store, error) {
	m, err := readImage(r)
	if err != nil {
		return nil, err
	}
	ls, err := newLandmarks(m, int64(len(m.data)), OpenOptions{Verify: true})
	if err != nil {
		return nil, err
	}
	return ls.Store(), nil
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

// maxLandmarkID bounds the landmark ids an LMK3 image may name.
// landmark.Store indexes its data by node id up to its largest landmark,
// so an unchecked id would size that table from the file: the bound caps
// it at 128 MB, for graphs of up to 16.7M nodes (7.7× the paper's Twitter
// crawl). Entry ids are checked against the graph on adoption
// (landmark.Store.CheckNodes).
const maxLandmarkID = 1 << 24

// newLandmarks decodes a mapped LMK3 image.
func newLandmarks(m *mapping, size int64, opts OpenOptions) (*Landmarks, error) {
	h, err := decodeHeader(m.data, landmarkMagic, landmarkVersion)
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
	nIdx := numLm*vocabLen + 1
	want := []struct {
		sec   int
		bytes uint64
		what  string
	}{
		{lmkSecIDs, numLm * 4, "lmIDs"},
		{lmkSecIters, numLm * 4, "lmIters"},
		{lmkSecListIdx, nIdx * 8, "listIdx"},
		{lmkSecNodes, total * 4, "nodes"},
		{lmkSecSigma, total * 4, "sigma"},
		{lmkSecTopo, total * 4, "topo"},
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
	var stale []uint32
	if len(h.sections) > lmkSecStale {
		b, err := m.sectionBytes(h.sections[lmkSecStale], "stale")
		if err != nil {
			return nil, err
		}
		if uint64(len(b)) != numLm*4 {
			return nil, fmt.Errorf("store: section stale holds %d bytes, want %d", len(b), numLm*4)
		}
		if opts.Verify {
			if err := m.verifySection(h.sections[lmkSecStale], "stale"); err != nil {
				return nil, err
			}
		}
		stale = u32Slice(b)
	}
	ids := u32Slice(raw[lmkSecIDs])
	iters := u32Slice(raw[lmkSecIters])
	idx := u64Slice(raw[lmkSecListIdx])
	nodes := nodeSlice(raw[lmkSecNodes])
	sigma := f32Slice(raw[lmkSecSigma])
	topo := f32Slice(raw[lmkSecTopo])

	if idx[0] != 0 || idx[len(idx)-1] != total {
		return nil, fmt.Errorf("store: list index does not span the entry columns")
	}
	s := landmark.NewStore(int(vocabLen), int(topN))
	for i := uint64(0); i < numLm; i++ {
		if ids[i] >= maxLandmarkID {
			return nil, fmt.Errorf("store: landmark id %d not below %d", ids[i], maxLandmarkID)
		}
		d := &landmark.Data{
			Landmark:   graph.NodeID(ids[i]),
			Iterations: int(iters[i]),
			Topical:    make([]landmark.List, vocabLen),
		}
		for li := uint64(0); li < vocabLen; li++ {
			k := i*vocabLen + li
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
			d.Topical[li] = l
		}
		if err := s.Put(d); err != nil {
			return nil, err
		}
		if stale != nil {
			if stale[i]>>vocabLen != 0 {
				return nil, fmt.Errorf("store: landmark %d marks a topic outside the %d-topic vocabulary stale", ids[i], vocabLen)
			}
			s.SetStale(d.Landmark, topics.Set(stale[i]))
		}
	}
	return &Landmarks{m: m, s: s, bytes: size}, nil
}

// sortedBySigma reports whether a list is ranked best σ first. Equal
// neighbours are ranked: distinct float64 scores may round to one
// float32.
func sortedBySigma(s []float32) bool {
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
