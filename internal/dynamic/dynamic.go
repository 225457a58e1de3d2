// Package dynamic implements the paper's first future-work direction
// (Section 6): keeping recommendations correct while the follow graph
// changes. "Many following links have a short lifespan. This graph
// dynamicity may impact the scores stored by the landmarks."
//
// A Manager owns the current graph view, its authority table and the
// landmark store. Follow/unfollow updates are applied in batches as
// O(|batch|) overlay snapshots over the immutable base — no CSR rebuild —
// and the overlay stack is folded back into a fresh frozen graph only
// when its accumulated delta crosses a compaction threshold. Each Apply
// installs a new immutable epoch (view + authority + engine) under the
// manager's lock, so readers always see a consistent snapshot. The
// authority table is maintained incrementally and exactly for any batch
// size (authority.ApplyDelta), and the landmarks whose stored
// recommendations may have changed are identified. Three refresh
// strategies trade staleness for preprocessing work:
//
//   - Eager: every affected landmark is re-explored immediately;
//   - Lazy: affected landmarks are only marked stale; a stale landmark is
//     refreshed the first time a query meets it;
//   - Threshold: stale landmarks accumulate and are refreshed together
//     once their number crosses a bound (amortizing rebuild cost).
//
// A landmark is "affected" by an edge change when one of the changed
// edge's endpoints is reachable from the landmark within its exploration
// horizon — then some stored path score includes the edge (source) or the
// authority row it moved (destination). Reachability is tested with one
// level-synchronous multi-source reverse BFS per batch, from the batch's
// distinct endpoints over the *new* graph, bounded by the landmark
// iteration depth recorded at preprocessing and stopped as soon as every
// landmark has been found (invalidate.go).
package dynamic

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/store"
	"repro/internal/topics"
)

// Strategy selects when stale landmarks are refreshed.
type Strategy int

const (
	// Eager refreshes every affected landmark at Apply time.
	Eager Strategy = iota
	// Lazy refreshes a stale landmark when a query first meets it.
	Lazy
	// Threshold refreshes all stale landmarks once their count passes
	// StaleBound.
	Threshold
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Eager:
		return "Eager"
	case Lazy:
		return "Lazy"
	case Threshold:
		return "Threshold"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterizes a Manager.
type Config struct {
	// Params are the scoring parameters used for engines and refreshes.
	Params core.Params
	// Sim is the topic similarity matrix.
	Sim *topics.SimMatrix
	// StoreTopN is the per-topic list length kept per landmark.
	StoreTopN int
	// QueryDepth is the approximate query exploration depth.
	QueryDepth int
	// Strategy picks the refresh policy.
	Strategy Strategy
	// StaleBound triggers the Threshold strategy.
	StaleBound int
	// CompactDepth bounds the overlay stack: once Apply would leave this
	// many overlay layers above the bottom CSR, the stack is folded into
	// a fresh frozen graph. <= 0 uses 32.
	CompactDepth int
	// CompactFraction triggers compaction once the accumulated edge delta
	// reaches this fraction of the bottom CSR's edge count (overlay reads
	// degrade gracefully, but a large delta wastes memory and map
	// lookups). <= 0 uses 0.25.
	CompactFraction float64
	// RefreshBackoff throttles landmark-refresh retries after a failure.
	// A failed refresh no longer propagates to the caller — the affected
	// landmarks simply stay stale and are retried later — and no further
	// refresh is attempted until the backoff window (doubled per
	// consecutive failure, capped at 64x, with ±25% jitter so retries
	// desynchronize) has passed, so a persistently failing refresh can
	// neither fail update batches nor starve queries with repeated
	// refresh attempts. 0 uses 500ms. The remaining window is exported
	// as the dynamic_refresh_backoff_seconds gauge.
	RefreshBackoff time.Duration
	// Scheduler picks which stale landmarks a refresh opportunity
	// repairs (see SchedulerKind). The zero value SchedAll is the
	// legacy refresh-everything policy.
	Scheduler SchedulerKind
	// RefreshBudget caps how many landmarks the budgeted schedulers
	// (SchedRoundRobin, SchedPriority) refresh per opportunity. <= 0
	// uses 4. SchedAll ignores it.
	RefreshBudget int
	// HalfLife enables time-decayed edge weights: an edge's topical
	// contribution halves per HalfLife of age (see decay.go for the
	// fold semantics). 0 disables decay — the legacy unweighted path.
	HalfLife time.Duration
	// DecayOrigin is the event timestamp (Unix ns) assigned to the
	// base graph's edges when decay is enabled. 0 stamps them with the
	// manager's construction time.
	DecayOrigin int64
	// DecayPath, when non-empty (and decay is enabled), persists the
	// decay sidecar (TRDK: fold reference, origin, per-edge
	// timestamps) alongside each graph snapshot, so snapshot+WAL-tail
	// recovery reproduces the decayed weights bit-identically.
	DecayPath string
	// InitialDecay, when non-nil, is adopted as the decay state instead
	// of starting fresh — the recovery path for a sidecar persisted via
	// DecayPath. Adopt it together with the snapshot it was written
	// beside, before replaying the WAL tail.
	InitialDecay *store.DecayState
	// Metrics, when non-nil, receives maintenance counters and gauges
	// (batches, edge changes, refreshes, stale landmarks) plus the
	// preprocessing timings of every refresh. Equivalent to calling
	// Instrument after NewManager, but also covers the initial
	// preprocessing run.
	Metrics *metrics.Registry
	// WAL, when non-nil, makes Apply durable: every batch is appended to
	// the log as a CRC-framed record — after overlay validation, before
	// the new epoch installs — so a crash loses at most the batch being
	// acknowledged (none under store.SyncAlways). Replay feeds recovered
	// batches back through the same apply path without re-logging them.
	WAL *store.WAL
	// SnapshotPath, when non-empty, gives compaction a durable form:
	// each time the overlay stack folds into a fresh frozen graph, the
	// graph is also written there as a TRG2 snapshot (atomic
	// temp+rename) and the WAL is truncated — the logged batches are
	// redundant once the snapshot that contains them is published. A
	// failed snapshot write is absorbed like a failed refresh: the
	// in-memory epoch still installs, the WAL keeps its records, and the
	// next compaction retries.
	SnapshotPath string
	// LandmarkPath, when non-empty, persists the landmark store (LMK3,
	// atomic) alongside each graph snapshot. Recovering with both — the
	// snapshot graph, the persisted store via InitialStore, then a WAL
	// replay — restores rankings bit-identical to the pre-crash manager,
	// including the landmark lists' refresh history, which a fresh
	// preprocessing over the snapshot graph would not reproduce.
	LandmarkPath string
	// InitialStore, when non-nil, is adopted as the landmark store
	// instead of preprocessing one at construction — the recovery path
	// for a store persisted via LandmarkPath. The caller must pass the
	// lms the store was built for.
	InitialStore *landmark.Store
}

// Stats counts the maintenance work done.
type Stats struct {
	// Batches is the number of Apply calls.
	Batches int
	// EdgesAdded and EdgesRemoved count applied changes.
	EdgesAdded, EdgesRemoved int
	// Refreshes counts landmark re-explorations.
	Refreshes int
	// RefreshFailures counts failed refresh runs (absorbed, not
	// propagated; the affected landmarks stay stale).
	RefreshFailures int
	// RefreshDeferred counts refresh opportunities skipped because the
	// manager was backing off after a failure.
	RefreshDeferred int
	// StaleNow is the current number of stale landmarks.
	StaleNow int
	// Compactions counts overlay stacks folded back into a fresh CSR.
	Compactions int
	// OverlayDepth is the current overlay layer count above the bottom
	// CSR (0 right after a compaction or before any update).
	OverlayDepth int
	// OverlayDelta is the edge-change count the overlay stack has
	// accumulated since the bottom CSR was frozen.
	OverlayDelta int
	// Epoch counts view installs (one per Apply, plus one per
	// compaction): the serving path hot-swaps to a new immutable epoch
	// at each increment.
	Epoch uint64
	// WALAppends counts batches made durable before applying.
	WALAppends int
	// WALReplayed counts batches recovered from the log at boot.
	WALReplayed int
	// SnapshotWrites counts compactions persisted as TRG2 snapshots
	// (each followed by a WAL truncation).
	SnapshotWrites int
	// SnapshotFailures counts snapshot or WAL-truncate failures
	// (absorbed: the epoch installed, durability degraded until the next
	// compaction retries).
	SnapshotFailures int
	// InvalidationVisited counts the nodes the per-batch invalidation pass
	// reached (endpoints included) — at most NumNodes per batch, far fewer
	// when the last landmark is found early.
	InvalidationVisited int
	// AuthorityColumnRewrites counts per-topic maxima moved by a batch,
	// each one authority score column rewritten for every node; batches
	// that move none keep the change in their destination rows.
	AuthorityColumnRewrites int
}

// BatchEffect describes what one applied batch may have changed — the
// dirty set PR 3's ApplyDelta computes internally, exported so a
// subscription hub can invert it into an affected-subscription index.
// The fields are conservative supersets: a recommendation whose
// dependency set is disjoint from every field is guaranteed unchanged
// (unless Global is set), while overlap only means "re-score to find
// out".
type BatchEffect struct {
	// Epoch is the graph epoch installed by this batch (after any
	// compaction increment).
	Epoch uint64
	// Endpoints are the distinct sources and destinations of the batch's
	// edge changes. Paths through any of them — and the destinations'
	// authority rows, rewritten by authority.ApplyDelta — may have moved.
	Endpoints []graph.NodeID
	// StaleLandmarks are the landmarks this batch marked stale: their
	// stored lists no longer match the graph, so queries meeting them
	// may shift when the refresh lands.
	StaleLandmarks []graph.NodeID
	// Refreshed are the landmarks whose stored lists were rewritten
	// while applying this batch (Eager/Threshold strategies, budgeted
	// schedulers). A refresh can fold in staleness from *earlier*
	// batches, so it dirties dependents even when the landmark is not in
	// this batch's StaleLandmarks.
	Refreshed []graph.NodeID
	// Global marks effects that are not localized: a batch that moved a
	// per-topic follower maximum (authority.ApplyDelta then rewrote that
	// topic's score for every node) and compactions (re-anchored decay
	// reference). Every standing query must re-score. Batch
	// size alone never sets it.
	Global bool
	// OldestAt is the smallest nonzero event timestamp (Unix ns) in the
	// batch — the ingest-accept anchor for push-latency measurement. 0
	// when no update carried a timestamp.
	OldestAt int64
}

// Manager maintains a queryable recommendation state under updates.
// Every method is safe for concurrent use: they serialize on mu (Graph
// alone reads a lock-free published view), so the ingest worker applies
// batches beside live queries.
type Manager struct {
	mu   sync.Mutex
	cfg  Config
	view graph.View // current epoch: the bottom CSR or an overlay stack
	// viewPub is the lock-free published copy of view. Views are
	// immutable, so Graph() serves from an atomic pointer instead of
	// taking mu — the serving path (response enrichment, cache hits,
	// request validation) never stalls behind an in-progress Apply.
	viewPub atomic.Pointer[viewBox]
	auth    *authority.Table
	eng     *core.Engine
	store   *landmark.Store
	lms     []graph.NodeID
	// isLandmark marks lms by node id (the node set never grows) and
	// maxIter is the deepest exploration horizon recorded in the store;
	// together they bound affectedLandmarks' reverse BFS. maxIter follows
	// every store write.
	isLandmark []bool
	maxIter    int
	// inv is affectedLandmarks' scratch, sized once at construction.
	inv   invalidation
	stale map[graph.NodeID]bool
	// staleMeta carries the scheduling evidence (age, dirty hits, query
	// traffic) of each stale landmark; entries live exactly as long as
	// the stale mark (scheduler.go).
	staleMeta map[graph.NodeID]*staleMeta
	stats     Stats
	// decay is the time-decayed edge-weight bookkeeping; inert unless
	// Config.HalfLife is set (decay.go).
	decay decayState
	// nowFn stamps updates that arrive without a timestamp; the test
	// seam for deterministic streams. Defaults to time.Now().UnixNano.
	nowFn func() int64
	// rng drives the backoff jitter (failure path only, so determinism
	// drills — which never fail — are unaffected).
	rng *rand.Rand

	// Refresh retry/backoff state: after a failed refresh, nextRefresh
	// holds the earliest time another attempt may run and refreshFails
	// counts consecutive failures (driving the exponential window).
	nextRefresh  time.Time
	refreshFails int
	// refreshErrHook, when non-nil, is consulted before every refresh run
	// — the test seam for injecting refresh failures.
	refreshErrHook func() error

	// Batch-effect export (SetBatchHook): applyLocked collects one
	// BatchEffect per applied batch into pendingFx via the collectFx
	// cursor; Apply/Replay fire the hook after releasing mu so the
	// callback may query the manager freely.
	onBatch   func(BatchEffect)
	pendingFx []BatchEffect
	collectFx *BatchEffect

	// Instrumentation: nil registry means no recording. The counters are
	// resolved once at Instrument time so Apply's hot path is pure
	// atomics.
	reg             *metrics.Registry
	mBatches        *metrics.Counter
	mEdgesAdded     *metrics.Counter
	mEdgesRemoved   *metrics.Counter
	mRefreshes      *metrics.Counter
	mRefreshFails   *metrics.Counter
	mRefreshDefer   *metrics.Counter
	mCompactions    *metrics.Counter
	mWALAppends     *metrics.Counter
	mWALReplayed    *metrics.Counter
	mSnapshotWrites *metrics.Counter
	mSnapshotFails  *metrics.Counter
	mInvVisited     *metrics.Counter
	mAuthRewrites   *metrics.Counter
}

// NewManager preprocesses the initial graph and landmark set.
func NewManager(g *graph.Graph, lms []graph.NodeID, cfg Config) (*Manager, error) {
	if cfg.StoreTopN <= 0 {
		cfg.StoreTopN = 100
	}
	if cfg.QueryDepth <= 0 {
		cfg.QueryDepth = 2
	}
	if cfg.StaleBound <= 0 {
		cfg.StaleBound = len(lms)/4 + 1
	}
	if cfg.CompactDepth <= 0 {
		cfg.CompactDepth = 32
	}
	if cfg.CompactFraction <= 0 {
		cfg.CompactFraction = 0.25
	}
	if cfg.RefreshBackoff == 0 {
		cfg.RefreshBackoff = 500 * time.Millisecond
	}
	if cfg.RefreshBudget <= 0 {
		cfg.RefreshBudget = 4
	}
	m := &Manager{
		cfg:   cfg,
		view:  g,
		lms:   append([]graph.NodeID(nil), lms...),
		stale: make(map[graph.NodeID]bool),
		nowFn: func() int64 { return time.Now().UnixNano() },
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())), //nolint:gosec // jitter, not crypto
	}
	m.viewPub.Store(&viewBox{view: g})
	m.isLandmark = make([]bool, g.NumNodes())
	for _, lm := range m.lms {
		m.isLandmark[lm] = true
	}
	m.inv.seen = make([]uint32, g.NumNodes())
	if err := m.rebuildEngine(); err != nil {
		return nil, err
	}
	if cfg.HalfLife > 0 {
		m.decay.init(cfg.HalfLife, cfg.DecayOrigin, m.nowFn())
		if cfg.InitialDecay != nil {
			// Recovery path: the persisted fold reference and per-edge
			// timestamps, adopted before any WAL replay so replayed
			// batches fold against the pre-crash anchor.
			m.decay.adopt(cfg.InitialDecay)
		}
		m.decay.rebuild(g)
		m.eng = m.eng.WithEdgeWeights(m.decay.wts)
	}
	m.Instrument(cfg.Metrics)
	if cfg.InitialStore != nil {
		// Recovery path: adopt the persisted store as-is. Its lists carry
		// the pre-crash refresh history; the WAL replay that follows
		// re-runs exactly the refreshes the logged batches triggered.
		m.store = cfg.InitialStore
	} else {
		m.store, _ = landmark.Preprocess(m.eng, m.lms, landmark.PreprocessConfig{TopN: cfg.StoreTopN, Metrics: cfg.Metrics})
	}
	m.noteIterationsLocked()
	return m, nil
}

// Instrument attaches a metric registry to the manager: maintenance
// counters are synchronized with the current Stats and kept up to date by
// every Apply/refresh, and gauges for the stale-landmark count and
// landmark-set size are registered as exposition-time callbacks. Nil is a
// no-op; calling twice with a different registry replaces the previous
// one, while re-attaching the registry already in place is a no-op — the
// registry hands back the same counters, so re-adding the current Stats
// to them would double every nonzero total.
func (m *Manager) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	if m.reg == reg {
		m.mu.Unlock()
		return
	}
	st := m.stats
	m.reg = reg
	m.mBatches = reg.Counter("dynamic_batches_total", "Update batches applied to the graph.")
	m.mEdgesAdded = reg.Counter("dynamic_edges_added_total", "Follow edges added by updates.")
	m.mEdgesRemoved = reg.Counter("dynamic_edges_removed_total", "Follow edges removed by updates.")
	m.mRefreshes = reg.Counter("dynamic_landmark_refreshes_total", "Landmark re-explorations triggered by updates or queries.")
	m.mRefreshFails = reg.Counter("dynamic_refresh_failures_total", "Failed landmark refresh runs (absorbed; landmarks stay stale).")
	m.mRefreshDefer = reg.Counter("dynamic_refresh_deferred_total", "Refresh opportunities skipped while backing off after a failure.")
	m.mCompactions = reg.Counter("dynamic_compactions_total", "Overlay stacks folded back into a fresh frozen graph.")
	m.mWALAppends = reg.Counter("dynamic_wal_appends_total", "Update batches made durable in the write-ahead log before applying.")
	m.mWALReplayed = reg.Counter("dynamic_wal_replayed_total", "Update batches recovered from the write-ahead log at boot.")
	m.mSnapshotWrites = reg.Counter("dynamic_snapshot_writes_total", "Compactions persisted as TRG2 snapshots (WAL truncated after each).")
	m.mSnapshotFails = reg.Counter("dynamic_snapshot_failures_total", "Snapshot or WAL-truncate failures (absorbed; retried at the next compaction).")
	m.mInvVisited = reg.Counter("dynamic_invalidation_visited_nodes_total", "Nodes reached by the per-batch landmark invalidation pass.")
	m.mAuthRewrites = reg.Counter("dynamic_authority_column_rewrites_total", "Authority score columns rewritten because a batch moved a per-topic follower maximum.")
	m.mBatches.Add(uint64(st.Batches))
	m.mEdgesAdded.Add(uint64(st.EdgesAdded))
	m.mEdgesRemoved.Add(uint64(st.EdgesRemoved))
	m.mRefreshes.Add(uint64(st.Refreshes))
	m.mRefreshFails.Add(uint64(st.RefreshFailures))
	m.mRefreshDefer.Add(uint64(st.RefreshDeferred))
	m.mCompactions.Add(uint64(st.Compactions))
	m.mWALAppends.Add(uint64(st.WALAppends))
	m.mWALReplayed.Add(uint64(st.WALReplayed))
	m.mSnapshotWrites.Add(uint64(st.SnapshotWrites))
	m.mSnapshotFails.Add(uint64(st.SnapshotFailures))
	m.mInvVisited.Add(uint64(st.InvalidationVisited))
	m.mAuthRewrites.Add(uint64(st.AuthorityColumnRewrites))
	wal := m.cfg.WAL
	nLms := len(m.lms)
	m.mu.Unlock()
	reg.GaugeFunc("dynamic_stale_landmarks",
		"Landmarks currently marked stale (awaiting refresh).",
		func() float64 { return float64(m.Stats().StaleNow) })
	reg.GaugeFunc("dynamic_landmarks",
		"Landmarks maintained by the manager.",
		func() float64 { return float64(nLms) })
	reg.GaugeFunc("dynamic_overlay_depth",
		"Overlay layers stacked over the bottom frozen graph.",
		func() float64 { return float64(m.Stats().OverlayDepth) })
	reg.GaugeFunc("dynamic_overlay_delta_edges",
		"Edge changes accumulated by the overlay stack since the last compaction.",
		func() float64 { return float64(m.Stats().OverlayDelta) })
	reg.GaugeFunc("dynamic_refresh_backoff_seconds",
		"Remaining refresh-backoff window after a failed refresh (0 = not backing off).",
		func() float64 { return m.backoffRemaining().Seconds() })
	if wal != nil {
		reg.GaugeFunc("dynamic_wal_bytes",
			"Current write-ahead log length (truncated at each persisted compaction).",
			func() float64 { return float64(wal.Size()) })
		reg.GaugeFunc("dynamic_wal_records",
			"Update batches currently held by the write-ahead log.",
			func() float64 { return float64(wal.Records()) })
	}
}

// rebuildEngine recomputes the authority table and engine from scratch
// (initial preprocessing only; Apply derives instead).
func (m *Manager) rebuildEngine() error {
	m.auth = authority.Compute(m.view)
	eng, err := core.NewEngine(m.view, m.auth, m.cfg.Sim, m.cfg.Params)
	if err != nil {
		return err
	}
	m.eng = eng
	return nil
}

// viewBox wraps the published view so the atomic pointer has one
// concrete type across *graph.Graph and *graph.Overlay epochs.
type viewBox struct{ view graph.View }

// publishViewLocked mirrors view into the lock-free pointer. Caller
// holds mu.
func (m *Manager) publishViewLocked() {
	m.viewPub.Store(&viewBox{view: m.view})
}

// Graph returns the current graph view — the epoch the serving path
// queries against. Views are immutable; each Apply atomically installs a
// new one, so a caller may keep reading a returned view while updates
// continue. The read is lock-free: it never waits for an in-progress
// Apply.
func (m *Manager) Graph() graph.View {
	if b := m.viewPub.Load(); b != nil {
		return b.view
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
}

// Stats returns maintenance counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statsLocked()
}

func (m *Manager) statsLocked() Stats {
	s := m.stats
	s.StaleNow = len(m.stale)
	if ov, ok := m.view.(*graph.Overlay); ok {
		s.OverlayDepth = ov.Depth()
		s.OverlayDelta = ov.DeltaEdges()
	}
	return s
}

// Update is one follow (Add=true) or unfollow change. At is the event's
// Unix-nanosecond timestamp; 0 lets the manager stamp it at apply time
// (decay-enabled managers always log stamped deltas, so recovery decays
// from event time, never from the replay clock).
type Update struct {
	Edge graph.Edge
	Add  bool
	At   int64
}

// Apply commits a batch of updates as one overlay snapshot layered over
// the current view — O(|batch| + Σ deg(touched)) instead of a full CSR
// rebuild — then patches the authority table, derives the engine over
// the new view, folds the overlay stack back into a frozen graph once it
// crosses the compaction threshold, marks affected landmarks stale and
// refreshes them per the strategy. Within one batch removal wins over an
// add of the same (src, dst), matching the legacy rebuild semantics.
func (m *Manager) Apply(batch []Update) error {
	m.mu.Lock()
	err := m.applyLocked(batch, true)
	fx, hook := m.takeEffectsLocked()
	m.mu.Unlock()
	for _, f := range fx {
		hook(f)
	}
	return err
}

// SetBatchHook registers fn to observe a BatchEffect for every batch
// successfully applied from then on (Apply and Replay alike). The hook
// fires after the manager's lock is released — in apply order, from the
// applying goroutine — so fn may call back into the manager. One hook;
// nil unregisters.
func (m *Manager) SetBatchHook(fn func(BatchEffect)) {
	m.mu.Lock()
	m.onBatch = fn
	m.mu.Unlock()
}

// takeEffectsLocked drains the pending effects together with the hook to
// deliver them to. Caller holds mu; the returned hook is non-nil only
// when there is something to fire.
func (m *Manager) takeEffectsLocked() ([]BatchEffect, func(BatchEffect)) {
	if len(m.pendingFx) == 0 || m.onBatch == nil {
		m.pendingFx = m.pendingFx[:0]
		return nil, nil
	}
	fx := m.pendingFx
	m.pendingFx = nil
	return fx, m.onBatch
}

// Neighborhood returns the dependency set of a recommendation for u: the
// nodes reached by the query's own exploration — depth QueryDepth for
// the landmark approximation (exact=false), the convergence depth
// Params.MaxDepth for exact Tr (exact=true). The BFS is deliberately
// unpruned: the approximate path stops exploring at met landmarks, but a
// re-score refreshes any stale landmark it meets, so the stored lists it
// reads are recomputed from exactly this region's state. A batch none of
// whose BatchEffect nodes intersect this set cannot change the result
// (unless Global). Lock-free: runs over the published view.
func (m *Manager) Neighborhood(u graph.NodeID, exact bool) []graph.NodeID {
	depth := m.cfg.QueryDepth
	if exact {
		depth = m.cfg.Params.MaxDepth
	}
	var out []graph.NodeID
	graph.BFSOut(m.Graph(), u, depth, func(v graph.NodeID, _ int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// applyLocked is Apply under mu: effect collection around
// applyInnerLocked. durable is threaded through (see applyInnerLocked).
func (m *Manager) applyLocked(batch []Update, durable bool) error {
	if len(batch) == 0 {
		return nil
	}
	if m.onBatch == nil {
		return m.applyInnerLocked(batch, durable)
	}
	fx := &BatchEffect{}
	m.collectFx = fx
	err := m.applyInnerLocked(batch, durable)
	m.collectFx = nil
	if err != nil {
		return err
	}
	fx.Epoch = m.stats.Epoch
	m.pendingFx = append(m.pendingFx, *fx)
	return nil
}

// applyInnerLocked is the apply body under mu. durable controls the
// storage tier: live batches are WAL-appended before their epoch
// installs and persist compactions as snapshots; replayed batches
// (already in the log) do neither — in particular a replay-triggered
// compaction must not truncate the WAL, because the batches still
// pending replay exist nowhere else.
func (m *Manager) applyInnerLocked(batch []Update, durable bool) error {
	if len(batch) == 0 {
		return nil
	}
	if m.decay.enabled() && durable {
		// Stamp unstamped updates before the write-ahead point, so the
		// log always carries the event times the weights decay from. The
		// batch is copied first — the caller's slice is not mutated.
		stamped := false
		for _, up := range batch {
			if up.At == 0 {
				stamped = true
				break
			}
		}
		if stamped {
			batch = append([]Update(nil), batch...)
			now := m.nowFn()
			for i := range batch {
				if batch[i].At == 0 {
					batch[i].At = now
				}
			}
		}
	}
	if fx := m.collectFx; fx != nil {
		seen := make(map[graph.NodeID]struct{}, 2*len(batch))
		for _, up := range batch {
			for _, v := range [2]graph.NodeID{up.Edge.Src, up.Edge.Dst} {
				if _, dup := seen[v]; !dup {
					seen[v] = struct{}{}
					fx.Endpoints = append(fx.Endpoints, v)
				}
			}
			if up.At != 0 && (fx.OldestAt == 0 || up.At < fx.OldestAt) {
				fx.OldestAt = up.At
			}
		}
	}
	var adds, removes []graph.Edge
	for _, up := range batch {
		if up.Add {
			adds = append(adds, up.Edge)
		} else {
			removes = append(removes, up.Edge)
		}
	}
	ov, err := graph.NewOverlay(m.view, adds, removes)
	if err != nil {
		return fmt.Errorf("dynamic: applying batch: %w", err)
	}
	// Write-ahead point: the overlay validated, so the batch will apply;
	// log it before installing anything. A failed append rejects the
	// batch outright — the in-memory state must never run ahead of the
	// log it claims to be recoverable from.
	if durable && m.cfg.WAL != nil {
		if err := m.cfg.WAL.Append(DeltasFromUpdates(batch)); err != nil {
			return fmt.Errorf("dynamic: wal append: %w", err)
		}
		m.stats.WALAppends++
		if m.mWALAppends != nil {
			m.mWALAppends.Inc()
		}
	}
	for _, up := range batch {
		if up.Add {
			m.stats.EdgesAdded++
			if m.mEdgesAdded != nil {
				m.mEdgesAdded.Inc()
			}
		} else {
			m.stats.EdgesRemoved++
			if m.mEdgesRemoved != nil {
				m.mEdgesRemoved.Inc()
			}
		}
	}
	m.view = ov
	m.stats.Epoch++
	// Authority maintenance: only the targets of the changed edges have
	// new follower sets (the paper's local-update observation), so only
	// their rows change — unless the batch moved a per-topic maximum, which
	// rescales that topic's score for every node and makes the effect
	// global.
	if m.auth != nil {
		dsts := make([]graph.NodeID, len(batch))
		for i, up := range batch {
			dsts[i] = up.Edge.Dst
		}
		if moved := m.auth.ApplyDelta(m.view, dsts); moved > 0 {
			m.stats.AuthorityColumnRewrites += moved
			if m.mAuthRewrites != nil {
				m.mAuthRewrites.Add(uint64(moved))
			}
			if fx := m.collectFx; fx != nil {
				fx.Global = true
			}
		}
	}
	eng, err := m.eng.Derive(m.view, m.auth)
	if err != nil {
		return err
	}
	if m.decay.enabled() {
		// Fold the batch's decay weights into a layer mirroring the
		// overlay, and re-attach the weight stack Derive dropped.
		m.decay.note(batch)
		m.decay.layer(ov)
		eng = eng.WithEdgeWeights(m.decay.wts)
	}
	m.eng = eng

	// Compaction: fold the overlay stack into a fresh CSR once it is deep
	// or its accumulated delta is a large fraction of the bottom graph.
	// This is the only full rebuild on the update path, and at most one
	// happens per batch.
	compacted := false
	if ov.Depth() >= m.cfg.CompactDepth ||
		float64(ov.DeltaEdges()) >= m.cfg.CompactFraction*float64(ov.Bottom().NumEdges()) {
		m.view = ov.Compact()
		// The folded graph has the overlay's edge set, so the authority
		// table — exact after every delta — already is what a manager
		// booted from this compaction's snapshot computes from scratch.
		eng, err := m.eng.Derive(m.view, m.auth)
		if err != nil {
			return err
		}
		if m.decay.enabled() {
			// The stack folded into a frozen CSR: rebuild the weights as
			// one flat CSR-aligned table, re-anchoring the fold reference
			// to the newest applied timestamp (the only wholesale weight
			// rewrite; rankings are invariant under the re-anchor).
			m.decay.rebuild(m.view.(*graph.Graph))
			eng = eng.WithEdgeWeights(m.decay.wts)
		}
		m.eng = eng
		m.stats.Compactions++
		m.stats.Epoch++
		if m.mCompactions != nil {
			m.mCompactions.Inc()
		}
		compacted = true
		if fx := m.collectFx; fx != nil {
			fx.Global = true
		}
	}
	m.stats.Batches++
	if m.mBatches != nil {
		m.mBatches.Inc()
	}
	m.publishViewLocked()

	// Mark affected landmarks: those that reach an endpoint of a changed
	// edge within their exploration horizon. A moved per-topic maximum
	// rescales that topic's authority for every node, which no
	// reachability test captures; the dominant staleness comes from path
	// changes, and that residue waits for each landmark's next refresh.
	affected := m.affectedLandmarks(batch)
	for _, lm := range affected {
		m.markStaleLocked(lm)
	}
	if fx := m.collectFx; fx != nil {
		fx.StaleLandmarks = affected
	}

	switch m.cfg.Strategy {
	case Eager:
		m.tryRefreshLocked(m.scheduleLocked())
	case Threshold:
		if len(m.stale) >= m.cfg.StaleBound {
			m.tryRefreshLocked(m.scheduleLocked())
		}
	}

	// Durable form of the compaction: publish the folded graph (and the
	// landmark store) as fresh snapshots, then drop the batches they
	// absorbed from the log. Deliberately last — after this batch's
	// landmark refreshes — so the persisted store carries the refresh
	// history up to and including the batch the snapshot covers.
	if compacted && durable {
		m.persistSnapshotLocked()
	}
	return nil
}

// persistSnapshotLocked writes the current frozen view to
// Config.SnapshotPath (atomic temp+rename) and truncates the WAL.
// Failures are absorbed — durability degrades until the next compaction
// retries, but the serving path never fails a batch over a disk error
// after its epoch installed. Caller holds mu; the view must be a frozen
// *graph.Graph (it is, right after a compaction).
func (m *Manager) persistSnapshotLocked() {
	if m.cfg.SnapshotPath == "" {
		return
	}
	g, ok := m.view.(*graph.Graph)
	if !ok {
		return
	}
	if _, err := store.WriteSnapshotFile(m.cfg.SnapshotPath, g, nil); err != nil {
		m.stats.SnapshotFailures++
		if m.mSnapshotFails != nil {
			m.mSnapshotFails.Inc()
		}
		return
	}
	// The landmark store travels with the graph: recovery needs both to
	// reproduce rankings exactly (a re-preprocessed store would lack the
	// refresh history). Written before the truncate for the same reason
	// the snapshot is — the log may only shrink once every durable piece
	// of the state it covers is published.
	if m.cfg.LandmarkPath != "" {
		if _, err := store.WriteLandmarksFile(m.cfg.LandmarkPath, m.store); err != nil {
			m.stats.SnapshotFailures++
			if m.mSnapshotFails != nil {
				m.mSnapshotFails.Inc()
			}
			return
		}
	}
	// The decay sidecar travels with the snapshot for the same reason the
	// landmark store does: a TRG2 image carries no timestamps, so without
	// the sidecar a recovered manager could not re-derive the decayed
	// weights the pre-crash manager held.
	if m.cfg.DecayPath != "" && m.decay.enabled() {
		if _, err := store.WriteDecayFile(m.cfg.DecayPath, m.decay.export()); err != nil {
			m.stats.SnapshotFailures++
			if m.mSnapshotFails != nil {
				m.mSnapshotFails.Inc()
			}
			return
		}
	}
	m.stats.SnapshotWrites++
	if m.mSnapshotWrites != nil {
		m.mSnapshotWrites.Inc()
	}
	if m.cfg.WAL != nil {
		if err := m.cfg.WAL.Truncate(); err != nil {
			// The snapshot is live but the log kept its records: replay
			// would double-apply. Count it loudly; the next compaction's
			// truncate retry resolves it.
			m.stats.SnapshotFailures++
			if m.mSnapshotFails != nil {
				m.mSnapshotFails.Inc()
			}
		}
	}
}

// Replay feeds batches recovered from a WAL (store.OpenWAL's second
// result) back through the apply path without re-logging them, restoring
// the exact pre-crash state: same overlays, same epochs, same refresh
// decisions — so post-recovery rankings are bit-identical to the state
// that logged the batches. It returns the number of batches applied; a
// failing batch aborts the replay (the snapshot/WAL pair is inconsistent
// with the loaded graph, which recovery must surface, not skip).
func (m *Manager) Replay(batches [][]store.EdgeDelta) (int, error) {
	m.mu.Lock()
	var applyErr error
	applied := len(batches)
	for i, b := range batches {
		if err := m.applyLocked(UpdatesFromDeltas(b), false); err != nil {
			applyErr = fmt.Errorf("dynamic: replaying batch %d of %d: %w", i, len(batches), err)
			applied = i
			break
		}
		m.stats.WALReplayed++
		if m.mWALReplayed != nil {
			m.mWALReplayed.Inc()
		}
	}
	fx, hook := m.takeEffectsLocked()
	m.mu.Unlock()
	for _, f := range fx {
		hook(f)
	}
	return applied, applyErr
}

// DeltasFromUpdates converts a batch to its WAL payload form.
func DeltasFromUpdates(batch []Update) []store.EdgeDelta {
	out := make([]store.EdgeDelta, len(batch))
	for i, up := range batch {
		out[i] = store.EdgeDelta{Src: up.Edge.Src, Dst: up.Edge.Dst, Label: up.Edge.Label, Add: up.Add, At: up.At}
	}
	return out
}

// UpdatesFromDeltas converts recovered WAL payloads back to updates.
func UpdatesFromDeltas(ds []store.EdgeDelta) []Update {
	out := make([]Update, len(ds))
	for i, d := range ds {
		out[i] = Update{Edge: graph.Edge{Src: d.Src, Dst: d.Dst, Label: d.Label}, Add: d.Add, At: d.At}
	}
	return out
}

func (m *Manager) staleList() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m.stale))
	for lm := range m.stale {
		out = append(out, lm)
	}
	return out
}

// noteIterationsLocked re-reads the deepest exploration horizon from the
// store. Caller holds mu (or is still constructing) and has just written
// the store.
func (m *Manager) noteIterationsLocked() {
	m.maxIter = 0
	for _, lm := range m.lms {
		if d := m.store.Get(lm); d != nil && d.Iterations > m.maxIter {
			m.maxIter = d.Iterations
		}
	}
	if m.maxIter == 0 {
		m.maxIter = m.cfg.Params.MaxDepth
	}
}

// tryRefreshLocked refreshes lms unless the manager is backing off after
// a refresh failure. Failures are absorbed rather than propagated: the
// landmarks stay stale (queries keep serving the previous store, updates
// keep applying) and the next attempt waits out an exponential window —
// the retry/backoff that keeps a broken refresh path from starving the
// serving path. Caller holds mu.
func (m *Manager) tryRefreshLocked(lms []graph.NodeID) {
	if len(lms) == 0 {
		return
	}
	if !m.nextRefresh.IsZero() && time.Now().Before(m.nextRefresh) {
		m.stats.RefreshDeferred++
		if m.mRefreshDefer != nil {
			m.mRefreshDefer.Inc()
		}
		return
	}
	if err := m.refreshLocked(lms); err != nil {
		m.refreshFails++
		m.stats.RefreshFailures++
		if m.mRefreshFails != nil {
			m.mRefreshFails.Inc()
		}
		backoff := m.cfg.RefreshBackoff
		if backoff > 0 {
			shift := m.refreshFails - 1
			if shift > 6 {
				shift = 6 // cap the window at 64x the base backoff
			}
			window := backoff << shift
			// ±25% jitter: managers that fail together (shared disk,
			// shared fault) retry spread out instead of in lockstep.
			window += time.Duration(m.rng.Int63n(int64(window)/2+1)) - window/4
			m.nextRefresh = time.Now().Add(window)
		}
		return
	}
	m.refreshFails = 0
	m.nextRefresh = time.Time{}
}

// backoffRemaining returns how much of the refresh-backoff window is
// left (0 when the manager is not backing off).
func (m *Manager) backoffRemaining() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nextRefresh.IsZero() {
		return 0
	}
	if rem := time.Until(m.nextRefresh); rem > 0 {
		return rem
	}
	return 0
}

// refreshLocked re-explores the given landmarks and clears their stale
// marks. Caller holds mu.
func (m *Manager) refreshLocked(lms []graph.NodeID) error {
	if len(lms) == 0 {
		return nil
	}
	if m.refreshErrHook != nil {
		if err := m.refreshErrHook(); err != nil {
			return err
		}
	}
	fresh, _ := landmark.Preprocess(m.eng, lms, landmark.PreprocessConfig{TopN: m.cfg.StoreTopN, Metrics: m.reg})
	for _, lm := range lms {
		if d := fresh.Get(lm); d != nil {
			if err := m.store.Put(d); err != nil {
				return err
			}
		}
		delete(m.stale, lm)
		delete(m.staleMeta, lm)
		m.stats.Refreshes++
		if m.mRefreshes != nil {
			m.mRefreshes.Inc()
		}
	}
	m.noteIterationsLocked()
	// Refreshes running inside an apply may repair staleness left by
	// earlier batches — report them so dependents of those landmarks
	// re-score too.
	if fx := m.collectFx; fx != nil {
		fx.Refreshed = append(fx.Refreshed, lms...)
	}
	return nil
}

// Recommend answers a query through the landmark approximation, first
// refreshing any stale landmark the query exploration would meet (Lazy
// strategy; a no-op otherwise since Apply already refreshed).
func (m *Manager) Recommend(u graph.NodeID, t topics.ID, n int) ([]ranking.Scored, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.stale) > 0 && (m.cfg.Strategy == Lazy || m.cfg.Scheduler == SchedPriority) {
		// One bounded BFS over the query's vicinity serves two policies:
		// Lazy refreshes the stale landmarks the query would read, and
		// the priority scheduler records them as traffic evidence (a
		// stale landmark queries keep meeting outranks one nothing
		// reads). During a failure backoff the query proceeds against
		// the previous store instead of waiting on (or failing with)
		// the refresh.
		var need []graph.NodeID
		graph.BFSOut(m.view, u, m.cfg.QueryDepth, func(v graph.NodeID, depth int) bool {
			if m.stale[v] {
				need = append(need, v)
				m.noteQueryHitLocked(v)
			}
			return true
		})
		if m.cfg.Strategy == Lazy {
			m.tryRefreshLocked(need)
		}
	}
	ap, err := landmark.NewApprox(m.eng, m.store, m.cfg.QueryDepth)
	if err != nil {
		return nil, err
	}
	return ap.Recommend(u, t, n), nil
}

// RecommendExact answers with the exact convergence computation on the
// current graph (reference for tests and quality checks).
func (m *Manager) RecommendExact(u graph.NodeID, t topics.ID, n int) []ranking.Scored {
	out, _ := m.RecommendExactCtx(context.Background(), u, t, n) //nolint:errcheck // background ctx never cancels
	return out
}

// RecommendExactCtx is RecommendExact under a context: the exploration
// stops between hops once the context is done and the context's error is
// returned, so a caller-imposed deadline bounds even convergence-depth
// queries.
func (m *Manager) RecommendExactCtx(ctx context.Context, u graph.NodeID, t topics.ID, n int) ([]ranking.Scored, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var opts []core.RecommenderOption
	if m.reg != nil {
		opts = append(opts, core.WithMetrics(m.reg))
	}
	return core.NewRecommender(m.eng, opts...).RecommendCtx(ctx, u, t, n)
}
