package dynamic

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/store"
	"repro/internal/topics"
)

// recoveryBatches builds n deterministic update batches over g, cycling
// through sizes 1, 4, 16 and 64: two adds for every removal of an edge g
// holds. The authority table is maintained exactly whatever the batch
// holds, so a recovered manager can be compared bit-for-bit against the
// live one under any mix.
func recoveryBatches(g *graph.Graph, n int) [][]Update {
	edges := g.Edges()
	nodes, T := g.NumNodes(), g.Vocabulary().Len()
	var batches [][]Update
	for i := 0; i < n; i++ {
		batch := make([]Update, []int{1, 4, 16, 64}[i%4])
		for j := range batch {
			if j%3 == 2 {
				batch[j] = Update{Edge: edges[(i*17+j*5)%len(edges)]}
				continue
			}
			batch[j] = Update{Edge: graph.Edge{
				Src:   graph.NodeID((i*7 + j*3) % nodes),
				Dst:   graph.NodeID((i*11 + j*13 + 29) % nodes),
				Label: topics.NewSet(topics.ID((i + j) % T)),
			}, Add: true}
		}
		batches = append(batches, batch)
	}
	return batches
}

// requireSameAuthority requires got to hold want's authority factors bit
// for bit: every topic's num column and g(t).
func requireSameAuthority(t *testing.T, label string, got, want *authority.Table) {
	t.Helper()
	for tp := 0; tp < want.Vocabulary().Len(); tp++ {
		id := topics.ID(tp)
		if !slices.Equal(got.Num(id), want.Num(id)) || got.Norm(id) != want.Norm(id) {
			t.Fatalf("%s authority on topic %d: num or g(t) = %v differs from %v", label, tp, got.Norm(id), want.Norm(id))
		}
	}
}

// requireSameRankings compares the authority tables of two managers
// topic by topic (and against a from-scratch authority.Compute), then their
// landmark-backed and exact rankings over a spread of (user, topic)
// queries — all bit-for-bit.
func requireSameRankings(t *testing.T, want, got *Manager) {
	t.Helper()
	requireSameAuthority(t, "recovered", got.auth, want.auth)
	requireSameAuthority(t, "maintained", want.auth, authority.Compute(want.Graph()))
	for _, u := range []graph.NodeID{0, 7, 23, 41} {
		for _, tp := range []topics.ID{0, 1, 2} {
			wl, err := want.Recommend(u, tp, 10)
			if err != nil {
				t.Fatal(err)
			}
			gl, err := got.Recommend(u, tp, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(wl) != len(gl) {
				t.Fatalf("user %d topic %d: %d vs %d landmark results", u, tp, len(wl), len(gl))
			}
			for i := range wl {
				if wl[i] != gl[i] {
					t.Fatalf("user %d topic %d rank %d: %+v vs %+v (landmark path)", u, tp, i, wl[i], gl[i])
				}
			}
			we := want.RecommendExact(u, tp, 10)
			ge := got.RecommendExact(u, tp, 10)
			if len(we) != len(ge) {
				t.Fatalf("user %d topic %d: %d vs %d exact results", u, tp, len(we), len(ge))
			}
			for i := range we {
				if we[i] != ge[i] {
					t.Fatalf("user %d topic %d rank %d: %+v vs %+v (exact path)", u, tp, i, we[i], ge[i])
				}
			}
		}
	}
}

func durableConfig(ds *gen.Dataset, w *store.WAL, snapPath, lmkPath string, compactDepth int) Config {
	return Config{
		Params:       core.DefaultParams(),
		Sim:          ds.Sim,
		StoreTopN:    200,
		QueryDepth:   2,
		Strategy:     Eager,
		CompactDepth: compactDepth,
		LandmarkPath: lmkPath,
		// Keep the fraction trigger out of the way so compaction timing —
		// and therefore snapshot/truncate points — is exactly depth-driven
		// and identical between the live and the recovered manager.
		CompactFraction: 1000,
		WAL:             w,
		SnapshotPath:    snapPath,
	}
}

// TestRecoveryFromWALOnly: crash before any compaction — no snapshot
// exists yet, the whole history lives in the log. A recovered manager
// replaying it over the seed graph must serve bit-identical rankings.
func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	snapPath := filepath.Join(dir, "graph.trg2")
	ds := gen.RandomWith(50, 500, 3)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 5, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}

	w, recovered, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh WAL recovered %d batches", len(recovered))
	}
	live, err := NewManager(ds.Graph, lms, durableConfig(ds, w, snapPath, "", 1000))
	if err != nil {
		t.Fatal(err)
	}
	batches := recoveryBatches(ds.Graph, 6)
	for _, b := range batches {
		if err := live.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if live.Stats().WALAppends != len(batches) {
		t.Fatalf("WALAppends = %d, want %d", live.Stats().WALAppends, len(batches))
	}
	// Crash: the process dies here. SyncAlways means every acknowledged
	// batch is on disk; nothing is closed cleanly.
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("no compaction ran, yet a snapshot exists (err=%v)", err)
	}

	w2, replay, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(replay) != len(batches) {
		t.Fatalf("recovered %d batches, want %d", len(replay), len(batches))
	}
	reborn, err := NewManager(ds.Graph, lms, durableConfig(ds, w2, snapPath, "", 1000))
	if err != nil {
		t.Fatal(err)
	}
	n, err := reborn.Replay(replay)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(batches) {
		t.Fatalf("replayed %d batches, want %d", n, len(batches))
	}
	st := reborn.Stats()
	if st.WALReplayed != len(batches) {
		t.Fatalf("WALReplayed = %d, want %d", st.WALReplayed, len(batches))
	}
	if st.WALAppends != 0 {
		t.Fatalf("replay re-logged %d batches", st.WALAppends)
	}
	if w2.Records() != uint64(len(batches)) {
		t.Fatalf("replay changed the log: %d records, want %d", w2.Records(), len(batches))
	}
	requireSameRankings(t, live, reborn)
}

// TestRecoveryFromSnapshotPlusWAL is the full crash drill: compactions
// persist snapshots and truncate the log mid-history, more batches land
// in the WAL afterwards, then the process dies between a WAL append and
// the compaction that would have absorbed it. Recovery = open the
// snapshot, replay the WAL tail, serve bit-identical rankings.
func TestRecoveryFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	snapPath := filepath.Join(dir, "graph.trg2")
	lmkPath := filepath.Join(dir, "landmarks.lmk3")
	ds := gen.RandomWith(50, 500, 5)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 5, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}

	w, _, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	const compactDepth = 3
	live, err := NewManager(ds.Graph, lms, durableConfig(ds, w, snapPath, lmkPath, compactDepth))
	if err != nil {
		t.Fatal(err)
	}
	// 8 batches at depth 3: compactions (snapshot + truncate) after
	// batches 3 and 6, then batches 7 and 8 stay in the WAL — the crash
	// lands after their appends, before the next compaction.
	batches := recoveryBatches(ds.Graph, 8)
	for _, b := range batches {
		if err := live.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	st := live.Stats()
	if st.Compactions == 0 || st.SnapshotWrites != st.Compactions {
		t.Fatalf("compactions=%d snapshotWrites=%d; the drill needs persisted compactions",
			st.Compactions, st.SnapshotWrites)
	}
	if st.SnapshotFailures != 0 {
		t.Fatalf("SnapshotFailures = %d", st.SnapshotFailures)
	}
	wantTail := len(batches) - compactDepth*st.Compactions
	if wantTail <= 0 {
		t.Fatalf("test shape broken: no batches left in the WAL after the last compaction")
	}

	// Crash here. Recovery: snapshot first, then the WAL tail.
	snap, err := store.OpenSnapshot(snapPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	w2, replay, err := store.OpenWAL(walPath, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(replay) != wantTail {
		t.Fatalf("WAL holds %d batches, want %d (those after the last compaction)", len(replay), wantTail)
	}
	lmks, err := store.OpenLandmarks(lmkPath, store.OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lmks.Close()
	cfg := durableConfig(ds, w2, snapPath, lmkPath, compactDepth)
	cfg.InitialStore = lmks.Store()
	reborn, err := NewManager(snap.Graph(), lms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reborn.Replay(replay); err != nil {
		t.Fatal(err)
	}
	// A replay-triggered compaction must not touch the log: its batches
	// exist nowhere else until a live batch triggers a durable one.
	if w2.Records() != uint64(wantTail) {
		t.Fatalf("replay truncated or extended the log: %d records, want %d", w2.Records(), wantTail)
	}
	if reborn.Stats().SnapshotWrites != 0 {
		t.Fatalf("replay persisted %d snapshots", reborn.Stats().SnapshotWrites)
	}
	requireSameRankings(t, live, reborn)

	// Post-recovery, the manager is live again: the next applied batch is
	// logged and, at the compaction point, snapshotted + truncated.
	extra := recoveryBatches(ds.Graph, compactDepth+1)
	for _, b := range extra {
		if err := reborn.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	st2 := reborn.Stats()
	if st2.WALAppends != len(extra) {
		t.Fatalf("post-recovery WALAppends = %d, want %d", st2.WALAppends, len(extra))
	}
	if st2.SnapshotWrites == 0 {
		t.Fatal("post-recovery compaction did not persist a snapshot")
	}
	if w2.Records() >= uint64(wantTail+len(extra)) {
		t.Fatalf("post-recovery compaction did not truncate the log (%d records)", w2.Records())
	}
}

// TestWALAppendFailureRejectsBatch: when the log cannot take the batch,
// Apply must fail without installing anything — the in-memory state may
// never run ahead of the log.
func TestWALAppendFailureRejectsBatch(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")
	ds := gen.RandomWith(50, 500, 7)
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 5, landmark.DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := store.OpenWAL(walPath, store.SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewManager(ds.Graph, lms, durableConfig(ds, w, "", "", 1000))
	if err != nil {
		t.Fatal(err)
	}
	// Close the log underneath the manager: the next append must fail.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := live.Stats()
	g := live.Graph()
	err = live.Apply([]Update{{Edge: graph.Edge{Src: 1, Dst: 2, Label: topics.NewSet(0)}, Add: true}})
	if err == nil {
		t.Fatal("Apply succeeded with a dead WAL")
	}
	after := live.Stats()
	if after.Epoch != before.Epoch || after.Batches != before.Batches || after.EdgesAdded != before.EdgesAdded {
		t.Fatalf("failed append still installed state: %+v vs %+v", before, after)
	}
	if live.Graph() != g {
		t.Fatal("failed append swapped the view")
	}
}
