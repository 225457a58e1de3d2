package dynamic

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/store"
	"repro/internal/topics"
)

// stampBatches assigns strictly increasing event timestamps across the
// batches, starting after origin. Explicit stamps keep the live and the
// recovered manager on the same timeline — the clock never enters.
func stampBatches(batches [][]Update, origin, step int64) {
	at := origin
	for _, b := range batches {
		for i := range b {
			at += step
			b[i].At = at
		}
	}
}

func decayConfig(ds *gen.Dataset, w *store.WAL, snapPath, lmkPath, decayPath string, compactDepth int) Config {
	cfg := durableConfig(ds, w, snapPath, lmkPath, compactDepth)
	cfg.HalfLife = 500 * time.Millisecond
	cfg.DecayOrigin = int64(time.Second) // t=1s Unix ns: base edges decay from here
	cfg.DecayPath = decayPath
	return cfg
}

// TestDecayRecoveryFromWALOnly: crash before any compaction with decay
// enabled. The v2 log carries every event timestamp, so a replaying
// manager re-derives the exact same weight tables and serves
// bit-identical decayed rankings.
func TestDecayRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	ds := gen.RandomWith(50, 500, 11)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 5, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}

	w, _, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewManager(ds.Graph, lms, decayConfig(ds, w, "", "", "", 1000))
	if err != nil {
		t.Fatal(err)
	}
	batches := recoveryBatches(ds.Graph, 6)
	stampBatches(batches, int64(time.Second), int64(25*time.Millisecond))
	for _, b := range batches {
		if err := live.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// The 90 updates span 4.5 half-lives: weights of early vs late edges
	// differ by more than an order of magnitude, so the drill exercises
	// real decay, not a near-uniform table.
	if len(live.decay.edgeTs) == 0 {
		t.Fatal("no streamed edge carries a timestamp")
	}

	// Crash; replay over the seed graph.
	w2, replay, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	reborn, err := NewManager(ds.Graph, lms, decayConfig(ds, w2, "", "", "", 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reborn.Replay(replay); err != nil {
		t.Fatal(err)
	}
	if live.decay.tRef != reborn.decay.tRef || live.decay.maxTs != reborn.decay.maxTs {
		t.Fatalf("decay references diverged: live (ref %d, max %d) vs reborn (ref %d, max %d)",
			live.decay.tRef, live.decay.maxTs, reborn.decay.tRef, reborn.decay.maxTs)
	}
	requireSameRankings(t, live, reborn)
}

// TestDecayRecoveryFromSnapshotPlusSidecar is the full decayed crash
// drill: compaction persists snapshot + landmark store + decay sidecar
// and truncates the log, more timestamped batches land in the WAL, the
// process dies. Recovery adopts the sidecar (timestamps + fold
// reference) alongside the snapshot, replays the tail, and must serve
// bit-identical decayed rankings.
func TestDecayRecoveryFromSnapshotPlusSidecar(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	snapPath := filepath.Join(dir, "graph.trg2")
	lmkPath := filepath.Join(dir, "landmarks.lmk3")
	decayPath := filepath.Join(dir, "decay.trdk")
	ds := gen.RandomWith(50, 500, 13)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 5, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}

	w, _, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	const compactDepth = 3
	live, err := NewManager(ds.Graph, lms, decayConfig(ds, w, snapPath, lmkPath, decayPath, compactDepth))
	if err != nil {
		t.Fatal(err)
	}
	// Compactions after batches 3 and 6 rewrite the sidecar and re-anchor
	// tRef; batches 7 and 8 stay in the WAL across the crash.
	batches := recoveryBatches(ds.Graph, 8)
	stampBatches(batches, int64(time.Second), int64(25*time.Millisecond))
	for _, b := range batches {
		if err := live.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if live.Stats().SnapshotFailures != 0 {
		t.Fatalf("SnapshotFailures = %d", live.Stats().SnapshotFailures)
	}
	if _, err := os.Stat(decayPath); err != nil {
		t.Fatalf("compaction left no decay sidecar: %v", err)
	}

	// Crash. Recovery: snapshot + landmark store + decay sidecar, then
	// the WAL tail.
	snap, err := store.OpenSnapshot(snapPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	lmks, err := store.OpenLandmarks(lmkPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lmks.Close()
	dec, err := store.ReadDecayFile(decayPath)
	if err != nil {
		t.Fatal(err)
	}
	w2, replay, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	wantTail := len(batches) - compactDepth*live.Stats().Compactions
	if len(replay) != wantTail {
		t.Fatalf("WAL holds %d batches, want %d", len(replay), wantTail)
	}
	cfg := decayConfig(ds, w2, snapPath, lmkPath, decayPath, compactDepth)
	cfg.InitialStore = lmks.Store()
	cfg.InitialDecay = dec
	reborn, err := NewManager(snap.Graph(), lms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reborn.Replay(replay); err != nil {
		t.Fatal(err)
	}
	if live.decay.tRef != reborn.decay.tRef || live.decay.maxTs != reborn.decay.maxTs {
		t.Fatalf("decay references diverged: live (ref %d, max %d) vs reborn (ref %d, max %d)",
			live.decay.tRef, live.decay.maxTs, reborn.decay.tRef, reborn.decay.maxTs)
	}
	if len(live.decay.edgeTs) != len(reborn.decay.edgeTs) {
		t.Fatalf("edge timestamp maps diverged: %d vs %d entries",
			len(live.decay.edgeTs), len(reborn.decay.edgeTs))
	}
	for k, at := range live.decay.edgeTs {
		if reborn.decay.edgeTs[k] != at {
			t.Fatalf("edge %x: live ts %d, reborn ts %d", k, at, reborn.decay.edgeTs[k])
		}
	}
	requireSameRankings(t, live, reborn)

	// Post-recovery the manager is live: the next compaction re-exports
	// the sidecar with a fresh reference.
	before, err := store.ReadDecayFile(decayPath)
	if err != nil {
		t.Fatal(err)
	}
	extra := recoveryBatches(ds.Graph, compactDepth)
	stampBatches(extra, int64(10*time.Second), int64(25*time.Millisecond))
	for _, b := range extra {
		if err := reborn.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	after, err := store.ReadDecayFile(decayPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Ref <= before.Ref {
		t.Fatalf("post-recovery compaction did not advance the sidecar reference: %d -> %d",
			before.Ref, after.Ref)
	}
}

// TestDecayUnstampedUpdatesGetStamped: durable live updates arriving
// with At == 0 are stamped from the manager's clock BEFORE the WAL
// append, so the log — not the replay clock — owns every event time.
func TestDecayUnstampedUpdatesGetStamped(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	ds := gen.RandomWith(50, 500, 17)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 5, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewManager(ds.Graph, lms, decayConfig(ds, w, "", "", "", 1000))
	if err != nil {
		t.Fatal(err)
	}
	const stamp = int64(42 * time.Second)
	live.nowFn = func() int64 { return stamp }
	if err := live.Apply([]Update{
		{Edge: graph.Edge{Src: 1, Dst: 2, Label: topics.NewSet(0)}, Add: true},
	}); err != nil {
		t.Fatal(err)
	}
	if got := live.decay.edgeTs[graph.KeyOf(1, 2)]; got != stamp {
		t.Fatalf("unstamped update recorded ts %d, want %d", got, stamp)
	}

	w2, replay, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(replay) != 1 || len(replay[0]) != 1 {
		t.Fatalf("log shape: %d batches", len(replay))
	}
	if replay[0][0].At != stamp {
		t.Fatalf("logged At = %d, want the manager stamp %d", replay[0][0].At, stamp)
	}
}
