package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/topics"
)

// TRG2 snapshot layout. Header meta: [0]=numNodes, [1]=numEdges,
// [2]=vocabLen. Flag bit 0 marks an embedded node permutation, which the
// reader validates and exposes but nothing in this module consumes.
// Sections, in file order:
//
//	0 vocab       count u32, then per topic: nameLen u16 + name bytes
//	1 nodeTopics  n × u32 (labelN bitmasks)
//	2 outStart    (n+1) × u32
//	3 outDst      m × u32
//	4 outLbl      m × u32
//	5 inStart     (n+1) × u32
//	6 inSrc       m × u32
//	7 inLbl       m × u32
//	8 perm        n × u32 external→internal (only with flag bit 0)
//
// Sections 1–8 are raw little-endian arrays, page-aligned, so an open
// casts them in place over the mapping; only the tiny vocab blob is
// decoded onto the heap.
const (
	secVocab = iota
	secNodeTopics
	secOutStart
	secOutDst
	secOutLbl
	secInStart
	secInSrc
	secInLbl
	secPerm
	snapshotSections = secPerm // mandatory count; perm is optional

	flagHasPerm = 1 << 0
)

// WriteSnapshot writes g (and, when non-nil, a node permutation) as a
// TRG2 image to w, returning the bytes w accepted. The image streams in
// file order, header page first; a torn copy is rejected on open because
// its sections outrun it.
func WriteSnapshot(w io.Writer, g *graph.Graph, perm *graph.Permutation) (int64, error) {
	if perm != nil && perm.Len() != g.NumNodes() {
		return 0, fmt.Errorf("store: permutation over %d nodes, graph has %d", perm.Len(), g.NumNodes())
	}
	d := g.CSR()
	h := &header{
		magic:   snapshotMagic,
		version: snapshotVersion,
		meta: [maxMeta]uint64{
			uint64(g.NumNodes()),
			uint64(g.NumEdges()),
			uint64(g.Vocabulary().Len()),
		},
	}
	secs := [][]byte{
		encodeVocab(g.Vocabulary()),
		setBytes(d.NodeTopics),
		u32Bytes(d.OutStart),
		nodeBytes(d.OutDst),
		setBytes(d.OutLbl),
		u32Bytes(d.InStart),
		nodeBytes(d.InSrc),
		setBytes(d.InLbl),
	}
	if perm != nil {
		h.flags |= flagHasPerm
		secs = append(secs, nodeBytes(perm.Forward()))
	}
	return writeImage(w, h, secs)
}

// WriteSnapshotFile writes a TRG2 snapshot atomically: temp file in the
// same directory, fsync, rename, directory fsync. A reader (or a crash)
// can never observe a partial snapshot under path.
func WriteSnapshotFile(path string, g *graph.Graph, perm *graph.Permutation) (int64, error) {
	return atomicWriteFile(path, func(w io.Writer) (int64, error) {
		return WriteSnapshot(w, g, perm)
	})
}

// ReadSnapshot reads a TRG2 image from r into the heap and decodes it
// with the deep integrity pass on (OpenOptions.Verify). An embedded
// permutation is validated and dropped.
func ReadSnapshot(r io.Reader) (*graph.Graph, error) {
	m, err := readImage(r)
	if err != nil {
		return nil, err
	}
	s, err := newSnapshot(m, int64(len(m.data)), OpenOptions{Verify: true})
	if err != nil {
		return nil, err
	}
	return s.Graph(), nil
}

// OpenOptions tunes snapshot opening.
type OpenOptions struct {
	// Verify runs the deep integrity pass: every section's CRC-32C plus
	// the O(m log d) CSR content invariants. Off by default — the open path
	// then touches only the header and the O(n) row-start arrays, which
	// is what makes cold starts milliseconds at paper scale.
	Verify bool
}

// Snapshot is an opened TRG2 file: a frozen graph whose CSR arrays alias
// the mapping. Close invalidates the graph (and permutation).
type Snapshot struct {
	m       *mapping
	g       *graph.Graph
	perm    graph.Permutation
	hasPerm bool
	bytes   int64
}

// OpenSnapshot maps path and wraps its sections as a zero-copy
// *graph.Graph without materializing the heap CSR.
func OpenSnapshot(path string, opts OpenOptions) (*Snapshot, error) {
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
	s, err := newSnapshot(m, st.Size(), opts)
	if err != nil {
		m.Close() //nolint:errcheck
		return nil, err
	}
	return s, nil
}

// newSnapshot decodes a mapped TRG2 image (split out so fuzzing can drive
// it with in-memory corpora).
func newSnapshot(m *mapping, size int64, opts OpenOptions) (*Snapshot, error) {
	h, err := decodeHeader(m.data, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, err
	}
	nSec := snapshotSections
	if h.flags&flagHasPerm != 0 {
		nSec++
	}
	if len(h.sections) < nSec {
		return nil, fmt.Errorf("store: snapshot has %d sections, want %d", len(h.sections), nSec)
	}
	n, mEdges, vocabLen := h.meta[0], h.meta[1], h.meta[2]
	if n == 0 || n > 1<<31 {
		return nil, fmt.Errorf("store: implausible node count %d", n)
	}
	if vocabLen == 0 || vocabLen > uint64(topics.MaxTopics) {
		return nil, fmt.Errorf("store: implausible vocabulary size %d", vocabLen)
	}
	if mEdges > 1<<40 {
		return nil, fmt.Errorf("store: implausible edge count %d", mEdges)
	}
	// Section lengths must match the header scalars exactly before any
	// cast; a forged header cannot make a slice outrun the mapping.
	want := []struct {
		sec   int
		bytes uint64
		what  string
	}{
		{secNodeTopics, n * 4, "nodeTopics"},
		{secOutStart, (n + 1) * 4, "outStart"},
		{secOutDst, mEdges * 4, "outDst"},
		{secOutLbl, mEdges * 4, "outLbl"},
		{secInStart, (n + 1) * 4, "inStart"},
		{secInSrc, mEdges * 4, "inSrc"},
		{secInLbl, mEdges * 4, "inLbl"},
	}
	raw := make(map[int][]byte, len(want)+2)
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
	vb, err := m.sectionBytes(h.sections[secVocab], "vocab")
	if err != nil {
		return nil, err
	}
	vocab, err := decodeVocab(vb, int(vocabLen))
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		names := []string{"vocab", "nodeTopics", "outStart", "outDst", "outLbl", "inStart", "inSrc", "inLbl", "perm"}
		for i, s := range h.sections[:nSec] {
			if err := m.verifySection(s, names[i]); err != nil {
				return nil, err
			}
		}
	}
	g, err := graph.NewFromCSR(vocab, graph.CSRData{
		NodeTopics: setSlice(raw[secNodeTopics]),
		OutStart:   u32Slice(raw[secOutStart]),
		OutDst:     nodeSlice(raw[secOutDst]),
		OutLbl:     setSlice(raw[secOutLbl]),
		InStart:    u32Slice(raw[secInStart]),
		InSrc:      nodeSlice(raw[secInSrc]),
		InLbl:      setSlice(raw[secInLbl]),
	}, opts.Verify)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{m: m, g: g, bytes: size}
	if h.flags&flagHasPerm != 0 {
		pb, err := m.sectionBytes(h.sections[secPerm], "perm")
		if err != nil {
			return nil, err
		}
		if uint64(len(pb)) != n*4 {
			return nil, fmt.Errorf("store: perm section holds %d bytes, want %d", len(pb), n*4)
		}
		// PermutationFromForward validates bijectivity and copies: the
		// permutation is O(n) heap either way.
		perm, err := graph.PermutationFromForward(nodeSlice(pb))
		if err != nil {
			return nil, fmt.Errorf("store: embedded permutation: %w", err)
		}
		snap.perm, snap.hasPerm = perm, true
	}
	return snap, nil
}

// Graph returns the snapshot-backed frozen graph. It stays valid until
// Close.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Permutation returns the embedded node permutation, if the snapshot
// carries one.
func (s *Snapshot) Permutation() (graph.Permutation, bool) { return s.perm, s.hasPerm }

// Bytes returns the snapshot file size.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// Close unmaps the snapshot. The graph (and anything still aliasing its
// CSR) must not be used afterwards.
func (s *Snapshot) Close() error {
	s.g = nil
	return s.m.Close()
}

// encodeVocab serializes a vocabulary blob: count, then len-prefixed
// names.
func encodeVocab(v *topics.Vocabulary) []byte {
	names := v.Names()
	out := make([]byte, 4, 4+16*len(names))
	binary.LittleEndian.PutUint32(out, uint32(len(names)))
	for _, n := range names {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(n)))
		out = append(out, l[:]...)
		out = append(out, n...)
	}
	return out
}

// decodeVocab parses a vocabulary blob, cross-checking the header's
// topic count.
func decodeVocab(b []byte, wantLen int) (*topics.Vocabulary, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("store: vocab section truncated")
	}
	count := binary.LittleEndian.Uint32(b)
	if int(count) != wantLen {
		return nil, fmt.Errorf("store: vocab holds %d names, header says %d", count, wantLen)
	}
	b = b[4:]
	names := make([]string, count)
	for i := range names {
		if len(b) < 2 {
			return nil, fmt.Errorf("store: vocab name %d truncated", i)
		}
		l := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < l {
			return nil, fmt.Errorf("store: vocab name %d truncated", i)
		}
		names[i] = string(b[:l])
		b = b[l:]
	}
	v, err := topics.NewVocabulary(names)
	if err != nil {
		return nil, fmt.Errorf("store: stored vocabulary invalid: %w", err)
	}
	return v, nil
}
