package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/graph"
)

// The decay sidecar (TRDK) persists the time-decay bookkeeping that a
// TRG2 snapshot cannot carry: the fold reference timestamp the weight
// tables were anchored to, the origin timestamp shared by every
// base-graph edge, and the sparse per-edge event timestamps of streamed
// edges. A manager recovered from snapshot + sidecar + WAL tail
// re-derives exactly the decay weights it held before the crash — the
// sidecar is what makes decayed rankings bit-identical across recovery
// (a WAL-only replay needs no sidecar; every timestamp is in the log).
//
// File layout (little-endian):
//
//	magic u32 = "TRDK", version u32, crc u32, reserved u32
//	ref    i64   fold reference timestamp (Unix ns)
//	origin i64   base-graph edge timestamp (Unix ns)
//	count  u64
//	count × {src u32, dst u32, at i64}
//
// crc is CRC-32C over everything after the reserved word. The file is
// written atomically (temp + rename) alongside the snapshot, so snapshot
// and sidecar publish as a pair.

const (
	decayMagic     = 0x5452444b // "TRDK"
	decayVersion   = 1
	decayHeaderLen = 16 + 8 + 8 + 8
	decayEdgeLen   = 16
	// maxDecayEdges bounds the decode allocation against a corrupt count.
	maxDecayEdges = 1 << 27
)

// DecayEdge is one streamed edge's event timestamp.
type DecayEdge struct {
	Src, Dst graph.NodeID
	At       int64 // Unix ns
}

// DecayState is the decoded sidecar: everything beyond the graph bytes
// that deterministic decay reconstruction needs.
type DecayState struct {
	Ref    int64 // fold reference timestamp (Unix ns)
	Origin int64 // timestamp assigned to base-graph edges (Unix ns)
	Edges  []DecayEdge
}

// WriteDecayFile writes the sidecar atomically (temp file + rename +
// dir fsync), mirroring the snapshot write contract.
func WriteDecayFile(path string, s *DecayState) (int64, error) {
	return atomicWriteFile(path, func(w io.Writer) (int64, error) {
		n := decayHeaderLen + len(s.Edges)*decayEdgeLen
		buf := make([]byte, n)
		le := binary.LittleEndian
		le.PutUint32(buf[0:], decayMagic)
		le.PutUint32(buf[4:], decayVersion)
		le.PutUint64(buf[16:], uint64(s.Ref))
		le.PutUint64(buf[24:], uint64(s.Origin))
		le.PutUint64(buf[32:], uint64(len(s.Edges)))
		p := buf[decayHeaderLen:]
		for _, e := range s.Edges {
			le.PutUint32(p[0:], uint32(e.Src))
			le.PutUint32(p[4:], uint32(e.Dst))
			le.PutUint64(p[8:], uint64(e.At))
			p = p[decayEdgeLen:]
		}
		le.PutUint32(buf[8:], crc32.Checksum(buf[16:], castagnoli))
		if _, err := w.Write(buf); err != nil {
			return 0, err
		}
		return int64(n), nil
	})
}

// ReadDecayFile loads and validates a sidecar. A missing file is an
// error the caller distinguishes with os.IsNotExist.
func ReadDecayFile(path string) (*DecayState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeDecay(data)
}

// decodeDecay parses sidecar bytes; any framing or checksum violation is
// an error (the sidecar is written atomically, so unlike the WAL there
// is no torn tail to tolerate).
func decodeDecay(data []byte) (*DecayState, error) {
	le := binary.LittleEndian
	if len(data) < decayHeaderLen || le.Uint32(data[0:]) != decayMagic {
		return nil, fmt.Errorf("store: not a decay sidecar (bad header)")
	}
	if v := le.Uint32(data[4:]); v != decayVersion {
		return nil, fmt.Errorf("store: unsupported decay sidecar version %d", v)
	}
	if got := crc32.Checksum(data[16:], castagnoli); got != le.Uint32(data[8:]) {
		return nil, fmt.Errorf("store: decay sidecar checksum mismatch")
	}
	count := le.Uint64(data[32:])
	if count > maxDecayEdges ||
		uint64(len(data)-decayHeaderLen) != count*decayEdgeLen {
		return nil, fmt.Errorf("store: decay sidecar length does not match edge count")
	}
	s := &DecayState{
		Ref:    int64(le.Uint64(data[16:])),
		Origin: int64(le.Uint64(data[24:])),
		Edges:  make([]DecayEdge, count),
	}
	p := data[decayHeaderLen:]
	for i := range s.Edges {
		s.Edges[i] = DecayEdge{
			Src: graph.NodeID(le.Uint32(p[0:])),
			Dst: graph.NodeID(le.Uint32(p[4:])),
			At:  int64(le.Uint64(p[8:])),
		}
		p = p[decayEdgeLen:]
	}
	return s, nil
}
