// wire.go defines what crosses the shard boundary. The request is tiny
// and debuggable, so it is JSON; the response is a partial score list that
// can run to thousands of entries per query, so it is a fixed-layout
// little-endian binary frame — the gather side decodes it with two slice
// reads per entry and no reflection. Every positive-score entry is
// shipped today. Partials are disjoint and each candidate is scored in
// full on its owner, so a worker could ship only its local top-n and the
// merge would stay exact; that change (ROADMAP item 18) is not made yet.
package distrib

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/topics"
)

// PartialContentType is the media type of an encoded partial response.
const PartialContentType = "application/x-tr-partial"

// partialMagic identifies a partial response frame ("TRP1").
var partialMagic = [4]byte{'T', 'R', 'P', '1'}

// partialHeaderLen is magic(4) + shard(2) + parts(2) + reserved(8) +
// count(4). The reserved word is written as 0 and ignored on decode: a
// router and its shards serve one snapshot, so there is no graph version
// to stamp.
const partialHeaderLen = 4 + 2 + 2 + 8 + 4

// partialEntryLen is node(4) + score(8).
const partialEntryLen = 4 + 8

// PartialRequest is the JSON body of POST /shard/v1/partial.
type PartialRequest struct {
	User  graph.NodeID `json:"user"`
	Topic topics.ID    `json:"topic"`
}

// PartialResponse is one worker's answer: which shard of how many it is,
// and the partial list.
type PartialResponse struct {
	Shard   int
	Parts   int
	Entries []PartialEntry
}

// EncodePartial serializes a response into the binary frame.
func EncodePartial(r *PartialResponse) []byte {
	buf := make([]byte, partialHeaderLen+len(r.Entries)*partialEntryLen)
	copy(buf[0:4], partialMagic[:])
	binary.LittleEndian.PutUint16(buf[4:6], uint16(r.Shard))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(r.Parts))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(r.Entries)))
	off := partialHeaderLen
	for _, e := range r.Entries {
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(e.Node))
		binary.LittleEndian.PutUint64(buf[off+4:off+12], math.Float64bits(e.Score))
		off += partialEntryLen
	}
	return buf
}

// DecodePartial parses a binary frame back into a response.
func DecodePartial(buf []byte) (*PartialResponse, error) {
	if len(buf) < partialHeaderLen {
		return nil, fmt.Errorf("distrib: partial frame too short (%d bytes)", len(buf))
	}
	if [4]byte(buf[0:4]) != partialMagic {
		return nil, fmt.Errorf("distrib: bad partial magic %q", buf[0:4])
	}
	r := &PartialResponse{
		Shard: int(binary.LittleEndian.Uint16(buf[4:6])),
		Parts: int(binary.LittleEndian.Uint16(buf[6:8])),
	}
	count := int(binary.LittleEndian.Uint32(buf[16:20]))
	if want := partialHeaderLen + count*partialEntryLen; len(buf) != want {
		return nil, fmt.Errorf("distrib: partial frame %d bytes, header promises %d entries (%d bytes)",
			len(buf), count, want)
	}
	if count == 0 {
		return r, nil
	}
	r.Entries = make([]PartialEntry, count)
	off := partialHeaderLen
	for i := range r.Entries {
		r.Entries[i] = PartialEntry{
			Node:  graph.NodeID(binary.LittleEndian.Uint32(buf[off : off+4])),
			Score: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4 : off+12])),
		}
		off += partialEntryLen
	}
	return r, nil
}
