package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/topics"
)

// The write-ahead log makes edge-delta batches durable before they apply
// as overlays: on a crash, the last snapshot plus a WAL replay
// reconstructs the exact pre-crash graph (and therefore, by the overlay
// bit-identity contract, the exact pre-crash rankings).
//
// File layout (little-endian):
//
//	magic u32 = "TRWL", version u32
//	records, back to back:
//	    payloadLen u32
//	    crc        u32   CRC-32C over seq ++ payload
//	    seq        u64   record index, contiguous from 0
//	    payload:   count u32, then count deltas:
//	        {src u32, dst u32, label u32, add u8, at i64}
//
// Every delta carries its event time (Unix nanoseconds), which the
// streaming tier's time-decayed weights need for replay-correct decay: a
// recovered manager re-derives each edge's decay weight from the logged
// timestamp, not from the replay wall clock. The layout is version 2;
// OpenWAL refuses any other version (the untimestamped version 1 has no
// reader) and leaves such a file as it found it.
//
// Records are self-checking: replay stops at the first frame whose CRC,
// sequence number or length does not hold and truncates the file there —
// a torn tail from a crash mid-append costs the torn record only, never
// an error. Truncate (after a compaction published a fresh snapshot)
// resets the log to its header.

// SyncPolicy picks the WAL durability/throughput trade-off.
type SyncPolicy int

const (
	// SyncOS leaves flushing to the OS page cache: batches can be lost
	// in a power failure, never corrupted (the CRC framing drops a torn
	// tail on replay).
	SyncOS SyncPolicy = iota
	// SyncAlways fsyncs after every append: an acknowledged batch
	// survives power loss.
	SyncAlways
)

// String names the policy (flag value syntax).
func (p SyncPolicy) String() string {
	if p == SyncAlways {
		return "always"
	}
	return "os"
}

// ParseSyncPolicy parses the -wal-sync flag syntax.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "os":
		return SyncOS, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (os, always)", s)
}

// EdgeDelta is one durable edge change: the WAL's unit of payload,
// mirroring dynamic.Update without importing it (the dependency points
// the other way). At is the event's Unix-nanosecond timestamp (0 =
// unstamped: the caller supplied no event time).
type EdgeDelta struct {
	Src, Dst graph.NodeID
	Label    topics.Set
	Add      bool
	At       int64
}

const (
	walHeaderLen = 8
	walFrameLen  = 16 // payloadLen + crc + seq
	deltaLen     = 21 // src + dst + label + add + at
	// walVersion is the one layout OpenWAL reads and writes.
	walVersion = 2
	// maxWalPayload bounds one record so a corrupt length cannot force a
	// giant allocation on replay.
	maxWalPayload = 1 << 28
)

// WAL is an open write-ahead log. Append/Truncate are not safe for
// concurrent use with each other — the dynamic manager serializes them
// under its own lock — but the size/records accessors are atomic so a
// metrics exposition can read them while an append is in flight.
type WAL struct {
	f      *os.File
	policy SyncPolicy
	size   atomic.Int64  // current valid length (next append offset)
	seq    atomic.Uint64 // next record sequence number
	buf    []byte        // reused append encoding buffer
	bytes  atomic.Uint64
}

// OpenWAL opens (creating if absent) the log at path and replays its
// records: the returned batches are every durable batch in append order,
// already validated. A torn or corrupt tail is truncated away; the WAL
// is positioned to append after the last valid record. The recovered
// byte count reports how much of the file survived validation.
func OpenWAL(path string, policy SyncPolicy) (w *WAL, batches [][]EdgeDelta, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close() //nolint:errcheck
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() == 0 {
		var hdr [walHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], walMagic)
		binary.LittleEndian.PutUint32(hdr[4:], walVersion)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, nil, err
		}
		w = &WAL{f: f, policy: policy}
		w.size.Store(walHeaderLen)
		return w, nil, nil
	}

	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < walHeaderLen ||
		binary.LittleEndian.Uint32(data[0:]) != walMagic {
		return nil, nil, fmt.Errorf("store: %s is not a WAL (bad header)", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
		return nil, nil, fmt.Errorf("store: %s is WAL version %d, want %d", path, v, walVersion)
	}
	batches, valid := scanWAL(data)
	if valid < int64(len(data)) {
		// Torn or corrupt tail: drop it so the next append starts at the
		// last record boundary the CRCs vouch for.
		if err := f.Truncate(valid); err != nil {
			return nil, nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return nil, nil, err
	}
	w = &WAL{f: f, policy: policy}
	w.size.Store(valid)
	w.seq.Store(uint64(len(batches)))
	return w, batches, nil
}

// scanWAL walks records from the header on, returning the decoded
// batches and the byte offset of the first frame that fails validation
// (== len(data) when the whole file holds).
func scanWAL(data []byte) (batches [][]EdgeDelta, valid int64) {
	off := int64(walHeaderLen)
	for {
		if int64(len(data))-off < walFrameLen {
			return batches, off
		}
		le := binary.LittleEndian
		plen := le.Uint32(data[off:])
		crc := le.Uint32(data[off+4:])
		seq := le.Uint64(data[off+8:])
		if plen > maxWalPayload || int64(len(data))-off-walFrameLen < int64(plen) {
			return batches, off
		}
		if seq != uint64(len(batches)) {
			return batches, off
		}
		frame := data[off+8 : off+walFrameLen+int64(plen)] // seq ++ payload
		if crc32.Checksum(frame, castagnoli) != crc {
			return batches, off
		}
		batch, ok := decodeBatch(data[off+walFrameLen : off+walFrameLen+int64(plen)])
		if !ok {
			return batches, off
		}
		batches = append(batches, batch)
		off += walFrameLen + int64(plen)
	}
}

// decodeBatch parses one record payload.
func decodeBatch(p []byte) ([]EdgeDelta, bool) {
	if len(p) < 4 {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(p)
	// Append never writes an empty batch, so a zero count is forgery.
	if count == 0 || uint64(len(p)-4) != uint64(count)*deltaLen {
		return nil, false
	}
	p = p[4:]
	out := make([]EdgeDelta, count)
	for i := range out {
		le := binary.LittleEndian
		out[i] = EdgeDelta{
			Src:   graph.NodeID(le.Uint32(p[0:])),
			Dst:   graph.NodeID(le.Uint32(p[4:])),
			Label: topics.Set(le.Uint32(p[8:])),
			Add:   p[12] != 0,
			At:    int64(le.Uint64(p[13:])),
		}
		if p[12] > 1 {
			return nil, false
		}
		p = p[deltaLen:]
	}
	return out, true
}

// Append encodes batch as one CRC-framed record and writes it at the
// log's tail, fsyncing per the policy. The record is durable (per the
// policy) when Append returns; the caller applies the batch only
// afterwards — write-ahead, so a crash between the two replays it.
func (w *WAL) Append(batch []EdgeDelta) error {
	if len(batch) == 0 {
		return nil
	}
	plen := 4 + len(batch)*deltaLen
	need := walFrameLen + plen
	if plen > maxWalPayload {
		return fmt.Errorf("store: batch of %d deltas exceeds the record bound", len(batch))
	}
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	buf := w.buf[:need]
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(plen))
	le.PutUint64(buf[8:], w.seq.Load())
	le.PutUint32(buf[16:], uint32(len(batch)))
	p := buf[20:]
	for _, d := range batch {
		le.PutUint32(p[0:], uint32(d.Src))
		le.PutUint32(p[4:], uint32(d.Dst))
		le.PutUint32(p[8:], uint32(d.Label))
		if d.Add {
			p[12] = 1
		} else {
			p[12] = 0
		}
		le.PutUint64(p[13:], uint64(d.At))
		p = p[deltaLen:]
	}
	le.PutUint32(buf[4:], crc32.Checksum(buf[8:], castagnoli))
	if _, err := w.f.WriteAt(buf, w.size.Load()); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal fsync: %w", err)
		}
	}
	w.size.Add(int64(need))
	w.seq.Add(1)
	w.bytes.Add(uint64(need))
	return nil
}

// Truncate resets the log to its header — called after a fresh snapshot
// has been atomically published, making the logged batches redundant.
// The truncation is fsynced regardless of policy: a stale WAL replayed
// over a newer snapshot would double-apply its batches.
func (w *WAL) Truncate() error {
	if err := w.f.Truncate(walHeaderLen); err != nil {
		return fmt.Errorf("store: wal truncate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal truncate fsync: %w", err)
	}
	w.size.Store(walHeaderLen)
	w.seq.Store(0)
	return nil
}

// Size returns the log's current length in bytes (header included).
func (w *WAL) Size() int64 { return w.size.Load() }

// Records returns the number of batches the log currently holds.
func (w *WAL) Records() uint64 { return w.seq.Load() }

// AppendedBytes returns the bytes appended through this handle.
func (w *WAL) AppendedBytes() uint64 { return w.bytes.Load() }

// Sync forces an fsync regardless of policy.
func (w *WAL) Sync() error { return w.f.Sync() }

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close() //nolint:errcheck
		return err
	}
	return w.f.Close()
}
