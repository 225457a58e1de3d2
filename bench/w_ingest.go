package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dynamic"
	"repro/internal/ingest"
	"repro/internal/store"
)

// ingestOnly: the README streaming quickstart, written to and never read.
// The ingest queue, the WAL (fsync per batch), the overlay, the authority
// patch, the engine derivation and the periodic compaction with its
// snapshot do all the work; with no reader the Lazy strategy never
// refreshes a landmark, so a change to exploration or landmark code must
// leave this workload where it was.
//
//	phase A  open loop, 40 updates/s, one update per POST, `at` = due time -> lag at a fixed rate
//	phase B  closed loop, one sender, 16-update POSTs, at most two unapplied  -> capacity
//
//	latency_p50_ms      update_lag_p50_ms: due time of the POST to the pipeline reporting the update applied
//	throughput_ops_s    ingest_capacity_upd_s: updates applied per second in phase B, from the median time per batch
//	within_limit_share  updates of phase A applied within 250 ms of their due time
var ingestOnly = workload{
	Name:    "ingest-only",
	Why:     "writes only: queue, WAL fsync, overlay, authority patch, compaction; no exploration runs, so kernel changes must not move it",
	Stack:   g8k.streaming(),
	Limit:   updateLimit,
	traffic: ingestOnlyTraffic,
}

const (
	updateRate  = 40.0 // updates/s in phase A
	updateBatch = 16   // updates per POST in phase B
	updateLimit = 250 * time.Millisecond
)

// applyWatcher turns the pipeline's Applied counter into per-update
// completion times: the pipeline applies in admission order, so the k-th
// admitted update has applied once Applied reaches k. It polls every
// millisecond, which bounds the resolution of the lag it reports.
type applyWatcher struct {
	pipe *ingest.Pipeline
	mu   sync.Mutex
	wait []pendingUpdate // in admission order
	lags []time.Duration // due time to applied, of the updates seen applied
	// depthMax is the deepest queue any poll saw.
	depthMax int
	stop     chan struct{}
	stopped  chan struct{}
}

type pendingUpdate struct {
	seq uint64 // position in the pipeline's admission order, 1-based
	due time.Time
}

func watchApplies(pipe *ingest.Pipeline) *applyWatcher {
	w := &applyWatcher{pipe: pipe, stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(w.stopped)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *applyWatcher) poll() {
	st := w.pipe.Stats()
	now := time.Now()
	w.mu.Lock()
	w.depthMax = max(w.depthMax, st.Depth)
	for len(w.wait) > 0 && w.wait[0].seq <= st.Applied {
		w.lags = append(w.lags, now.Sub(w.wait[0].due))
		w.wait = w.wait[1:]
	}
	w.mu.Unlock()
}

// expect registers an admitted update.
func (w *applyWatcher) expect(seq uint64, due time.Time) {
	w.mu.Lock()
	w.wait = append(w.wait, pendingUpdate{seq: seq, due: due})
	w.mu.Unlock()
}

// close stops polling after one last look and returns what it saw.
func (w *applyWatcher) close() (lags []time.Duration, unapplied, depthMax int) {
	close(w.stop)
	<-w.stopped
	w.poll()
	return w.lags, len(w.wait), w.depthMax
}

// poster sends update POSTs and classifies the answers.
type poster struct {
	s *stack
	t *tally
}

// post sends one POST /v1/update and reports whether it was admitted
// (202) or pushed back (429). Anything else is counted as a failure.
func (p poster) post(items []client.UpdateItem) (admitted, pushedBack bool) {
	_, err := p.s.cli.Update(context.Background(), items)
	var apiErr *client.APIError
	switch {
	case err == nil:
		p.t.ok()
		return true, false
	case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
		p.t.fail("POST update: queue full (429)")
		return false, true
	default:
		p.t.fail("POST update: %v", err)
		return false, false
	}
}

func ingestOnlyTraffic(e runEnv, s *stack, r *runResult, t *tally) error {
	warm, durA, durB := e.warmup(), e.dur(2.0/3), e.dur(1.0/3)
	nWarm, nA := int(updateRate*warm.Seconds()), int(updateRate*durA.Seconds())
	// Phase B is closed loop; 400 updates/s is more than three times what
	// the 8000-node stack applies, and the sender stops at the end of the
	// stream if a faster one gets there.
	nB := int(400*durB.Seconds())/updateBatch*updateBatch + updateBatch
	stream, err := churnStream(s.g, nWarm+nA+nB, e.Seed, nil)
	if err != nil {
		return err
	}
	p := poster{s: s, t: &tally{}} // warm-up posts are not counted

	openLoop{Name: "warm-up", Rate: updateRate, Dur: warm, Grace: warm, Workers: 1}.run(
		func(_, i int, due time.Time) (bool, uint8) {
			ok, _ := p.post(stamped(stream.Items[i:i+1], due.UnixNano()))
			return ok, 0
		})
	if err := s.pipe.Flush(); err != nil {
		return err
	}
	p.t = t
	base := s.pipe.Stats()
	admitted := base.Enqueued // only the one sender below admits from here on
	watch := watchApplies(s.pipe)

	// Phase A.
	itemsA := stream.Items[nWarm : nWarm+nA]
	_, phA := openLoop{Name: "A", Rate: updateRate, Dur: durA, Grace: durA / 4, Workers: 1}.run(
		func(_, i int, due time.Time) (bool, uint8) {
			ok, _ := p.post(stamped(itemsA[i:i+1], due.UnixNano()))
			if ok {
				admitted++
				watch.expect(admitted, due)
			}
			return ok, 0
		})
	if err := s.pipe.Flush(); err != nil {
		return err
	}
	applied, unapplied, _ := watch.close()
	if unapplied != 0 {
		t.flaw("%d admitted updates never reported applied", unapplied)
	}

	// Phase B: post the next batch as soon as fewer than two are unapplied,
	// so the consumer never idles and the backlog to drain at the end
	// stays two batches deep.
	itemsB := stream.Items[nWarm+nA:]
	watch = watchApplies(s.pipe)
	startB := time.Now()
	appliedBefore := s.pipe.Stats().Applied
	sentB := 0
	// perUpdate collects, for every step of the pipeline's Applied counter,
	// the time since the previous step divided by the updates it covered.
	var perUpdate []float64
	lastApplied, lastStep := appliedBefore, startB
	for time.Since(startB) < durB && sentB+updateBatch <= len(itemsB) {
		st := s.pipe.Stats()
		if st.Applied > lastApplied {
			now := time.Now()
			perUpdate = append(perUpdate, float64(now.Sub(lastStep).Nanoseconds())/float64(st.Applied-lastApplied))
			lastApplied, lastStep = st.Applied, now
		}
		if st.Enqueued-st.Applied >= 2*updateBatch {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		ok, pushedBack := p.post(stamped(itemsB[sentB:sentB+updateBatch], time.Now().UnixNano()))
		if pushedBack {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if ok {
			sentB += updateBatch
		}
	}
	if err := s.pipe.Flush(); err != nil {
		return err
	}
	elapsedB := time.Since(startB)
	_, _, depthMax := watch.close()
	end := s.pipe.Stats()
	appliedB := end.Applied - appliedBefore
	r.Phases = append(r.Phases, phA, phaseStats{Name: "B", Loop: "closed", Seconds: elapsedB.Seconds(), Workers: 1,
		AchievedRate: float64(sentB) / elapsedB.Seconds(), AchievedShare: 1, Scheduled: sentB, Sent: sentB, OK: int(appliedB)})
	r.Layers.set("ingest.queue_depth_max", float64(depthMax), "count")

	var lags []float64
	within := 0
	for _, lag := range applied {
		lags = append(lags, msOf(lag.Nanoseconds()))
		if lag <= updateLimit {
			within++
		}
	}
	p50 := reportPercentiles(r.Named, "update_lag", lags)
	// The consumer is never idle in this phase, so the time between two
	// steps of Applied is the time it took to apply the batch between
	// them. The rate is taken from the median step: a batch that paid for
	// a compaction, or ran while the machine was busy elsewhere, does not
	// move it. A phase too short to have ten steps falls back on its mean.
	capacity := float64(appliedB) / elapsedB.Seconds()
	if len(perUpdate) >= 10 {
		capacity = 1e9 / median(perUpdate)
	}
	r.Named.set("ingest_capacity_upd_s", capacity, "upd/s")
	r.EndToEnd.setN(mLatP50, p50, "ms", len(lags))
	r.EndToEnd.set(mThroughput, capacity, "1/s")
	r.EndToEnd.set(mWithinLimit, float64(within)/float64(nA), "ratio")

	// Nothing offered may be lost: what was admitted has applied, and the
	// rest was refused to the sender's face.
	if end.Enqueued != end.Applied || end.Depth != 0 {
		t.flaw("pipeline after flush: enqueued %d, applied %d, depth %d", end.Enqueued, end.Applied, end.Depth)
	}
	posted := nWarm + nA + sentB
	if got := int(end.Enqueued); got != posted {
		t.flaw("pipeline admitted %d updates, the sender had %d accepted", got, posted)
	}
	stats, err := s.cli.Stats(context.Background())
	if err != nil {
		return err
	}
	if want := s.g.NumEdges() + stream.Net[posted-1]; stats.Edges != want {
		t.flaw("/v1/stats reports %d edges, the stream leaves %d", stats.Edges, want)
	}
	return recoveryCheck(e, s, t)
}

// recoveryCheck boots a second manager from the files the live one
// wrote, the way trserver does after a crash, and compares rankings.
func recoveryCheck(e runEnv, s *stack, t *tally) error {
	snapPath, lmkPath, walPath, decayPath := s.paths()
	mcfg := s.managerConfig()
	snap, err := store.OpenSnapshot(snapPath, store.OpenOptions{})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer snap.Close() //nolint:errcheck // read-only mapping
	// The landmark store and the decay sidecar exist once a compaction has
	// published them; before that a reboot preprocesses afresh.
	if lm, err := store.OpenLandmarks(lmkPath, store.OpenOptions{}); err == nil {
		defer lm.Close() //nolint:errcheck // read-only mapping
		mcfg.InitialStore = lm.Store()
	}
	if dec, err := store.ReadDecayFile(decayPath); err == nil {
		mcfg.InitialDecay = dec
	}
	// The live WAL stays open (the stack closes it); a second handle reads
	// the same records.
	wal, tail, err := store.OpenWAL(walPath, store.SyncOS)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer wal.Close() //nolint:errcheck // opened for reading
	rec, err := dynamic.NewManager(snap.Graph(), s.lms, mcfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	if _, err := rec.Replay(tail); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	if got, want := rec.Graph().NumEdges(), s.mgr.Graph().NumEdges(); got != want {
		t.flaw("recovered graph has %d edges, the live one %d", got, want)
	}
	keys, err := distinctKeys(s.g, 25, e.Seed)
	if err != nil {
		return err
	}
	for _, k := range keys {
		live := s.mgr.RecommendExact(k.User, k.Topic, 10)
		back := rec.RecommendExact(k.User, k.Topic, 10)
		if len(live) != len(back) {
			t.flaw("recovery: user %d: %d exact results live, %d recovered", k.User, len(live), len(back))
			continue
		}
		for i := range live {
			if live[i] != back[i] {
				t.flaw("recovery: user %d exact rank %d: live %v, recovered %v", k.User, i+1, live[i], back[i])
				break
			}
		}
	}
	return nil
}
