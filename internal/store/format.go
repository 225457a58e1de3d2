// Package store is the durable storage tier: memory-mappable, zero-copy
// snapshot files for the frozen CSR graph (TRG2) and the landmark lists
// (LMK3), and a CRC-framed write-ahead log of edge-delta batches that
// makes the dynamic update path crash-recoverable.
//
// Both snapshot formats share one framing: a single header page carrying
// the magic, format-specific scalars and a section table, followed by
// page-aligned sections holding the raw little-endian arrays. Alignment
// means an opened file needs no decode step — each section is cast in
// place to its typed slice ([]uint32, []float64, ...) over the mapped
// bytes — so cold-starting a server on a paper-scale graph costs page
// table setup plus an O(n) structural check, not an O(m) rebuild, and
// the graph can exceed RAM (clean pages are just evicted).
//
// The header is always checksummed; each section carries a CRC-32C that
// Open verifies only on request, keeping the default open path
// independent of file size. On a big-endian host (or a corrupt-tolerant
// caller) the same sections are decoded into heap slices instead — the
// format, not the zero-copy trick, is the contract.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/topics"
)

const (
	// pageSize aligns every section so any element type up to 8 bytes is
	// cast-safe at offset 0 of its section and mmap'd sections start on
	// hardware page boundaries.
	pageSize = 4096

	// headerLen is the fixed prefix of every snapshot: one page.
	headerLen = pageSize

	maxInt = int(^uint(0) >> 1)

	snapshotMagic = 0x54524732 // "TRG2"
	landmarkMagic = 0x4c4d4b33 // "LMK3"
	walMagic      = 0x5452574c // "TRWL"

	// Header versions; an image at another one is refused at open. LMK3
	// version 1 held the paper's σ, version 2 σ/g(t) (landmark.List) and a
	// topological list per landmark after its topical ones; version 3
	// held the topical lists alone with f64 σ and topo columns; version 4
	// holds them as f32.
	snapshotVersion = 1
	landmarkVersion = 4

	// maxSections bounds the section table within the header page.
	maxSections = 16
	// maxMeta is the number of format-specific uint64 scalars a header
	// carries.
	maxMeta = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nativeLittle reports whether the host is little-endian, the layout the
// formats are defined in. On big-endian hosts sections are decoded, not
// cast.
var nativeLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// section locates one array inside a snapshot file.
type section struct {
	off uint64 // byte offset, page-aligned
	len uint64 // byte length (unpadded)
	crc uint32 // CRC-32C of the section bytes
}

// header is the decoded first page of a snapshot file.
type header struct {
	magic    uint32
	version  uint32
	flags    uint32
	meta     [maxMeta]uint64
	sections []section
}

// Header page layout (little-endian):
//
//	0   magic    uint32
//	4   version  uint32
//	8   flags    uint32
//	12  nSections uint32
//	16  headerCRC uint32  (CRC-32C of the page with this field zeroed)
//	20  reserved  uint32
//	24  meta      maxMeta × uint64
//	88  sections  nSections × {off uint64, len uint64, crc uint32, pad uint32}
const (
	hdrOffMagic    = 0
	hdrOffVersion  = 4
	hdrOffFlags    = 8
	hdrOffNSec     = 12
	hdrOffCRC      = 16
	hdrOffMeta     = 24
	hdrOffSections = hdrOffMeta + maxMeta*8
	sectionEntry   = 24
)

// encode serializes the header into one page with its CRC stamped.
func (h *header) encode() ([]byte, error) {
	if len(h.sections) > maxSections {
		return nil, fmt.Errorf("store: %d sections exceeds %d", len(h.sections), maxSections)
	}
	if hdrOffSections+len(h.sections)*sectionEntry > headerLen {
		return nil, fmt.Errorf("store: header overflows its page")
	}
	buf := make([]byte, headerLen)
	le := binary.LittleEndian
	le.PutUint32(buf[hdrOffMagic:], h.magic)
	le.PutUint32(buf[hdrOffVersion:], h.version)
	le.PutUint32(buf[hdrOffFlags:], h.flags)
	le.PutUint32(buf[hdrOffNSec:], uint32(len(h.sections)))
	for i, m := range h.meta {
		le.PutUint64(buf[hdrOffMeta+8*i:], m)
	}
	for i, s := range h.sections {
		o := hdrOffSections + i*sectionEntry
		le.PutUint64(buf[o:], s.off)
		le.PutUint64(buf[o+8:], s.len)
		le.PutUint32(buf[o+16:], s.crc)
	}
	le.PutUint32(buf[hdrOffCRC:], crc32.Checksum(buf, castagnoli))
	return buf, nil
}

// decodeHeader parses and CRC-verifies a header page of the given magic
// and version.
func decodeHeader(buf []byte, wantMagic, wantVersion uint32) (*header, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("store: file shorter than one header page")
	}
	buf = buf[:headerLen]
	le := binary.LittleEndian
	h := &header{
		magic:   le.Uint32(buf[hdrOffMagic:]),
		version: le.Uint32(buf[hdrOffVersion:]),
		flags:   le.Uint32(buf[hdrOffFlags:]),
	}
	if h.magic != wantMagic {
		return nil, fmt.Errorf("store: bad magic %#x, want %#x", h.magic, wantMagic)
	}
	if h.version != wantVersion {
		return nil, fmt.Errorf("store: unsupported format version %d, want %d", h.version, wantVersion)
	}
	want := le.Uint32(buf[hdrOffCRC:])
	scratch := make([]byte, headerLen)
	copy(scratch, buf)
	le.PutUint32(scratch[hdrOffCRC:], 0)
	if got := crc32.Checksum(scratch, castagnoli); got != want {
		return nil, fmt.Errorf("store: header checksum mismatch (%#x vs %#x)", got, want)
	}
	nSec := le.Uint32(buf[hdrOffNSec:])
	if nSec > maxSections {
		return nil, fmt.Errorf("store: implausible section count %d", nSec)
	}
	for i := range h.meta {
		h.meta[i] = le.Uint64(buf[hdrOffMeta+8*i:])
	}
	h.sections = make([]section, nSec)
	for i := range h.sections {
		o := hdrOffSections + i*sectionEntry
		h.sections[i] = section{
			off: le.Uint64(buf[o:]),
			len: le.Uint64(buf[o+8:]),
			crc: le.Uint32(buf[o+16:]),
		}
	}
	return h, nil
}

// mapping is one read-only byte view of a whole file: mmap-backed on unix
// (unmap releases it), heap-backed otherwise.
type mapping struct {
	data  []byte
	unmap func() error
}

// Close releases the mapping; the typed slices cast over it become
// invalid.
func (m *mapping) Close() error {
	if m.unmap != nil {
		err := m.unmap()
		m.unmap = nil
		m.data = nil
		return err
	}
	m.data = nil
	return nil
}

// sectionBytes bounds-checks a section against the mapping and returns
// its bytes.
func (m *mapping) sectionBytes(s section, what string) ([]byte, error) {
	end := s.off + s.len
	if s.off%8 != 0 || end < s.off || end > uint64(len(m.data)) {
		return nil, fmt.Errorf("store: section %s [%d,%d) outside file of %d bytes", what, s.off, end, len(m.data))
	}
	return m.data[s.off:end:end], nil
}

// verifySection checks a section's CRC-32C (the optional deep-integrity
// pass; Open skips it by default to keep cold-start O(n)).
func (m *mapping) verifySection(s section, what string) error {
	b, err := m.sectionBytes(s, what)
	if err != nil {
		return err
	}
	if got := crc32.Checksum(b, castagnoli); got != s.crc {
		return fmt.Errorf("store: section %s checksum mismatch (%#x vs %#x)", what, got, s.crc)
	}
	return nil
}

// --- typed views over section bytes -----------------------------------
//
// Each xSlice helper returns a typed slice over the raw bytes: a zero-copy
// cast on little-endian hosts, a decoded heap copy otherwise. Lengths are
// validated by the callers against the header meta.

func u32Slice(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return []uint32{}
	}
	if nativeLittle {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func u64Slice(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return []uint64{}
	}
	if nativeLittle {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func f32Slice(b []byte) []float32 {
	u := u32Slice(b)
	if len(u) == 0 {
		return []float32{}
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&u[0])), len(u))
}

func nodeSlice(b []byte) []graph.NodeID {
	u := u32Slice(b)
	if len(u) == 0 {
		return []graph.NodeID{}
	}
	return unsafe.Slice((*graph.NodeID)(unsafe.Pointer(&u[0])), len(u))
}

func setSlice(b []byte) []topics.Set {
	u := u32Slice(b)
	if len(u) == 0 {
		return []topics.Set{}
	}
	return unsafe.Slice((*topics.Set)(unsafe.Pointer(&u[0])), len(u))
}

// --- typed bytes for the write path ------------------------------------

func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	if nativeLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	if nativeLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return u32Bytes(unsafe.Slice((*uint32)(unsafe.Pointer(&s[0])), len(s)))
}

func nodeBytes(s []graph.NodeID) []byte {
	if len(s) == 0 {
		return nil
	}
	return u32Bytes(unsafe.Slice((*uint32)(unsafe.Pointer(&s[0])), len(s)))
}

func setBytes(s []topics.Set) []byte {
	if len(s) == 0 {
		return nil
	}
	return u32Bytes(unsafe.Slice((*uint32)(unsafe.Pointer(&s[0])), len(s)))
}

// writeImage writes a snapshot image to w in one pass. Every section is
// already an in-memory slice, so the section table and CRCs are computed
// first; then the checksummed header page goes out, followed by each
// section padded to the next page boundary. The count returned is the
// bytes w accepted, also on error.
func writeImage(w io.Writer, h *header, secs [][]byte) (int64, error) {
	h.sections = make([]section, len(secs))
	off := uint64(headerLen)
	for i, b := range secs {
		h.sections[i] = section{off: off, len: uint64(len(b)), crc: crc32.Checksum(b, castagnoli)}
		off += uint64(len(b) + pagePad(len(b)))
	}
	page, err := h.encode()
	if err != nil {
		return 0, err
	}
	var n int64
	write := func(b []byte) error {
		if len(b) == 0 {
			return nil
		}
		k, err := w.Write(b)
		n += int64(k)
		return err
	}
	if err := write(page); err != nil {
		return n, err
	}
	var zeros [pageSize]byte
	for _, b := range secs {
		if err := write(b); err != nil {
			return n, err
		}
		if err := write(zeros[:pagePad(len(b))]); err != nil {
			return n, err
		}
	}
	return n, nil
}

// pagePad is the zero padding that follows a section of n bytes.
func pagePad(n int) int { return (pageSize - n%pageSize) % pageSize }

// readImage reads a whole snapshot image from r into the heap. Heap
// slices this large are at least 8-byte aligned, so the page-aligned
// section offsets keep every typed cast aligned.
func readImage(r io.Reader) (*mapping, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading image: %w", err)
	}
	return &mapping{data: data}, nil
}

// atomicWriteFile writes a snapshot through a temp file in the same
// directory and renames it into place, fsyncing file and directory, so a
// crash mid-write can never leave a half-written snapshot under the
// published name.
func atomicWriteFile(path string, write func(w io.Writer) (int64, error)) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return n, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return n, err
	}
	return n, syncDir(path)
}

// syncDir fsyncs the directory containing path so a rename survives a
// crash. Filesystems that cannot fsync a directory are tolerated.
func syncDir(path string) error {
	d, err := os.Open(dirOf(path))
	if err != nil {
		return nil //nolint:nilerr // best-effort: the rename itself succeeded
	}
	defer d.Close()
	d.Sync() //nolint:errcheck // best-effort, see above
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			if i == 0 {
				return string(path[0])
			}
			return path[:i]
		}
	}
	return "."
}
