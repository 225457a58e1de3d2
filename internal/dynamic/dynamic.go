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
// manager's write lock; queries share its read lock, so readers run in
// parallel and always see a consistent snapshot. The
// authority table is maintained incrementally and exactly for any batch
// size (authority.ApplyDelta), and the landmarks whose stored
// recommendations may have changed are identified and marked stale on
// every topic (the marks are kept per landmark and topic, in the landmark
// store). Three refresh strategies trade staleness for preprocessing work:
//
//   - Eager: every affected landmark is re-explored immediately;
//   - Lazy: affected landmarks are only marked stale; a query on topic t
//     refreshes topic t, and nothing else, on the stale landmarks it meets;
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
	// Lazy refreshes a stale landmark's list on topic t when a query on t
	// first meets it: all the landmarks such a query meets are refreshed
	// on t together, in one factored pass per group of landmarks
	// (landmark.PreprocessTopic), and their other topics stay stale until
	// a query on them arrives.
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
	// StoreTopN is the per-topic list length kept per landmark. An
	// adopted InitialStore overrides it with its own TopN, so refreshed
	// lists never outgrow the length the store is persisted with.
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
	// Scheduler picks which stale landmarks a refresh opportunity of
	// the Eager and Threshold strategies repairs, every topic of each
	// (see SchedulerKind). The zero value SchedAll is the legacy
	// refresh-everything policy. Under Lazy a query refreshes its topic
	// on every landmark in its vicinity that is stale on it, whatever
	// the scheduler, and nothing schedules: the scheduler is unused.
	Scheduler SchedulerKind
	// RefreshBudget caps how many landmarks the budgeted schedulers
	// (SchedRoundRobin, SchedPriority) refresh per opportunity under
	// Eager and Threshold. <= 0 uses 4. SchedAll and Lazy's query-time
	// refresh ignore it.
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
	// failed snapshot write is absorbed (SnapshotFailures): the
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
	// for a store persisted via LandmarkPath, or a store built offline.
	// Its stale marks are adopted with it (a store written at a
	// compaction carries the marks the manager held then). NewManager
	// rejects it unless its landmark set is exactly lms and its
	// vocabulary matches the graph's.
	InitialStore *landmark.Store
}

// Stats counts the maintenance work done.
type Stats struct {
	// Batches is the number of Apply calls.
	Batches int
	// EdgesAdded and EdgesRemoved count applied changes.
	EdgesAdded, EdgesRemoved int
	// Refreshes counts whole-landmark re-explorations: every topic of a
	// landmark at once (Eager, Threshold, the schedulers).
	Refreshes int
	// TopicRefreshes counts (landmark, topic) lists a Lazy query
	// refreshed, one topic of one landmark each.
	TopicRefreshes int
	// StaleNow is the current number of stale landmarks: those with at
	// least one stale topic.
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
}

// BatchEffect describes what one applied batch may have changed — the
// dirty set PR 3's ApplyDelta computes internally, exported so a
// subscription hub can invert it into an affected-subscription index.
// The fields are conservative supersets: a recommendation whose
// dependency set is disjoint from every field is guaranteed the same
// ranking (unless Global is set), its scores at most rescaled by a moved
// global authority factor g(t), while overlap only means "re-score to
// find out".
type BatchEffect struct {
	// Epoch is the graph epoch installed by this batch (after any
	// compaction increment).
	Epoch uint64
	// Endpoints are the distinct sources and destinations of the batch's
	// edge changes. Paths through any of them — and the destinations'
	// num rows, rewritten by authority.ApplyDelta — may have moved.
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
	// Global marks effects that are not localized: compactions
	// (re-anchored decay reference). Every standing query must re-score.
	// Neither batch size nor a moved per-topic follower maximum (it
	// scales a topic's scores alike, by g(t)) sets it.
	Global bool
	// OldestAt is the smallest nonzero event timestamp (Unix ns) in the
	// batch — the ingest-accept anchor for push-latency measurement. 0
	// when no update carried a timestamp.
	OldestAt int64
}

// Manager maintains a queryable recommendation state under updates.
// Every method is safe for concurrent use, so the ingest worker applies
// batches beside live queries. mu is a reader/writer lock:
//
//   - Read lock (shared): Recommend when no landmark its vicinity meets
//     is stale on its topic, RecommendExact/RecommendExactCtx, Stats and
//     QueryStaleness. Readers run side by side: the engine is immutable and safe for concurrent use, and the
//     store, its stale marks, the authority table and the view change
//     only under the write lock, so no reader sees a half-applied batch.
//   - Write lock (exclusive): Apply, Replay, SetBatchHook, Instrument,
//     every refresh, and Recommend when, under the Lazy strategy, a
//     landmark its vicinity meets is stale on its topic (the query
//     refreshes that topic) or, under Eager or Threshold with the
//     priority scheduler, any landmark is stale (the query records the
//     ones it meets as traffic for the next schedule).
//
// Graph and Neighborhood read a lock-free published view instead.
//
// A landmark refresh runs in memory and cannot fail unless an invariant
// NewManager establishes is broken (the store's landmark set and
// vocabulary match the graph's), so a refresh error is a programming
// error: it reaches the caller of the Apply or Recommend that ran the
// refresh, and the landmarks it did not rewrite stay stale.
//
// No method may take mu again while it holds mu: a recursive RLock
// deadlocks behind a waiting writer. Batch hooks fire after the lock is
// released for this reason.
type Manager struct {
	mu   sync.RWMutex
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
	inv invalidation
	// allTopics is the vocabulary as a set: Apply marks each affected
	// landmark stale on all of it. The marks live in the store.
	allTopics topics.Set
	// staleMeta carries the scheduling evidence (age, dirty hits, query
	// traffic) of each stale landmark; an entry lives exactly as long as
	// the landmark has a stale topic (scheduler.go).
	staleMeta map[graph.NodeID]*staleMeta
	stats     Stats
	// decay is the time-decayed edge-weight bookkeeping; inert unless
	// Config.HalfLife is set (decay.go).
	decay decayState
	// nowFn stamps updates that arrive without a timestamp; the test
	// seam for deterministic streams. Defaults to time.Now().UnixNano.
	nowFn func() int64

	// Batch-effect export (SetBatchHook): applyLocked collects one
	// BatchEffect per applied batch into pendingFx via the collectFx
	// cursor; Apply/Replay fire the hook after releasing mu so the
	// callback may query the manager freely.
	onBatch   func(BatchEffect)
	pendingFx []BatchEffect
	collectFx *BatchEffect

	// reg is the registry Instrument attached, passed on to the landmark
	// refreshes and the engine; nil means no recording.
	reg *metrics.Registry
}

// NewManager preprocesses the initial graph and landmark set.
func NewManager(g *graph.Graph, lms []graph.NodeID, cfg Config) (*Manager, error) {
	if cfg.InitialStore != nil {
		cfg.StoreTopN = cfg.InitialStore.TopN()
	}
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
	if cfg.RefreshBudget <= 0 {
		cfg.RefreshBudget = 4
	}
	isLandmark, err := landmarkMarks(g, lms, cfg.InitialStore)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		view:      g,
		lms:       append([]graph.NodeID(nil), lms...),
		allTopics: topics.Set(1<<g.Vocabulary().Len() - 1),
		staleMeta: make(map[graph.NodeID]*staleMeta),
		nowFn:     func() int64 { return time.Now().UnixNano() },
	}
	m.viewPub.Store(&viewBox{view: g})
	m.isLandmark = isLandmark
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
		// the pre-crash refresh history and its marks the lists that were
		// stale then; the WAL replay that follows re-runs exactly the
		// refreshes the logged batches triggered. The scheduling evidence
		// of the marks is not persisted: it restarts from zero.
		m.store = cfg.InitialStore
		for _, lm := range m.lms {
			if m.store.Stale(lm) != 0 {
				m.staleMeta[lm] = &staleMeta{}
			}
		}
	} else {
		m.store, _ = landmark.Preprocess(m.eng, m.lms, landmark.PreprocessConfig{TopN: cfg.StoreTopN, Metrics: cfg.Metrics})
	}
	m.noteIterationsLocked()
	return m, nil
}

// landmarkMarks marks lms by node id. It rejects ids outside g and, when
// an initial store is adopted, a store whose landmark set is not exactly
// lms, whose vocabulary differs from g's or whose lists name nodes
// outside g (landmark.Store.CheckNodes): a stored landmark outside lms
// would be folded into every answer and never refreshed, since
// invalidation only marks lms, and an out-of-range entry would be
// recommended or index past the fold's node-sized buffer.
func landmarkMarks(g *graph.Graph, lms []graph.NodeID, s *landmark.Store) ([]bool, error) {
	n := g.NumNodes()
	marks := make([]bool, n)
	for _, lm := range lms {
		if int(lm) >= n {
			return nil, fmt.Errorf("dynamic: landmark %d outside the %d-node graph", lm, n)
		}
		marks[lm] = true
	}
	if s == nil {
		return marks, nil
	}
	if s.VocabLen() != g.Vocabulary().Len() {
		return nil, fmt.Errorf("dynamic: initial store has %d topics, the graph %d", s.VocabLen(), g.Vocabulary().Len())
	}
	if err := s.CheckNodes(n); err != nil {
		return nil, fmt.Errorf("dynamic: initial store: %w", err)
	}
	for _, lm := range s.Landmarks() {
		if !marks[lm] {
			return nil, fmt.Errorf("dynamic: initial store holds landmark %d, not in the manager's landmark set", lm)
		}
	}
	for _, lm := range lms {
		if !s.Contains(lm) {
			return nil, fmt.Errorf("dynamic: initial store lacks landmark %d", lm)
		}
	}
	return marks, nil
}

// Instrument attaches a metric registry to the manager: the maintenance
// counters and gauges are exposition-time callbacks over Stats, so a
// registry attached late reads the same totals and attaching one twice
// counts nothing twice. Nil is a no-op; a second registry replaces the
// first for the refresh and engine series.
func (m *Manager) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	m.reg = reg
	wal := m.cfg.WAL
	nLms := len(m.lms)
	m.mu.Unlock()
	for _, c := range []struct {
		name, help string
		get        func(Stats) int
	}{
		{"dynamic_batches_total", "Update batches applied to the graph.", func(s Stats) int { return s.Batches }},
		{"dynamic_edges_added_total", "Follow edges added by updates.", func(s Stats) int { return s.EdgesAdded }},
		{"dynamic_edges_removed_total", "Follow edges removed by updates.", func(s Stats) int { return s.EdgesRemoved }},
		{"dynamic_landmark_refreshes_total", "Whole-landmark re-explorations (every topic) triggered by updates.", func(s Stats) int { return s.Refreshes }},
		{"dynamic_topic_refreshes_total", "Landmark lists refreshed on one topic by a Lazy query that met them stale on it.", func(s Stats) int { return s.TopicRefreshes }},
		{"dynamic_compactions_total", "Overlay stacks folded back into a fresh frozen graph.", func(s Stats) int { return s.Compactions }},
		{"dynamic_wal_appends_total", "Update batches made durable in the write-ahead log before applying.", func(s Stats) int { return s.WALAppends }},
		{"dynamic_wal_replayed_total", "Update batches recovered from the write-ahead log at boot.", func(s Stats) int { return s.WALReplayed }},
		{"dynamic_snapshot_writes_total", "Compactions persisted as TRG2 snapshots (WAL truncated after each).", func(s Stats) int { return s.SnapshotWrites }},
		{"dynamic_snapshot_failures_total", "Snapshot or WAL-truncate failures (absorbed; retried at the next compaction).", func(s Stats) int { return s.SnapshotFailures }},
		{"dynamic_invalidation_visited_nodes_total", "Nodes reached by the per-batch landmark invalidation pass.", func(s Stats) int { return s.InvalidationVisited }},
	} {
		reg.CounterFunc(c.name, c.help, func() uint64 { return uint64(c.get(m.Stats())) })
	}
	reg.GaugeFunc("dynamic_stale_landmarks",
		"Landmarks with at least one topic marked stale (awaiting refresh).",
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
// continue. The read is lock-free: NewManager publishes the first view
// before the manager escapes, and every epoch install publishes its own,
// so it never waits for an in-progress Apply.
func (m *Manager) Graph() graph.View {
	return m.viewPub.Load().view
}

// Stats returns maintenance counters.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.statsLocked()
}

func (m *Manager) statsLocked() Stats {
	s := m.stats
	s.StaleNow = m.store.StaleLandmarks()
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
//
// A refresh error (Eager, Threshold) is returned only after the batch has
// landed: its epoch is installed, its BatchEffect delivered and its
// compaction snapshot persisted; the landmarks stay stale.
func (m *Manager) Apply(batch []Update) error {
	_, err := m.ApplyRefreshes(batch)
	return err
}

// ApplyRefreshes is Apply that also returns how many whole-landmark
// refreshes this batch ran (Eager, Threshold; 0 under Lazy, whose
// refreshes run at query time) — Stats().Refreshes is the running total
// over every batch.
func (m *Manager) ApplyRefreshes(batch []Update) (int, error) {
	m.mu.Lock()
	before := m.stats.Refreshes
	err := m.applyLocked(batch, true)
	refreshes := m.stats.Refreshes - before
	fx, hook := m.takeEffectsLocked()
	m.mu.Unlock()
	for _, f := range fx {
		hook(f)
	}
	return refreshes, err
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
// unpruned, the same walk a Lazy re-score on topic t takes to pick the
// landmarks it refreshes: every landmark in it stale on t, which
// includes the lists the fold reads (the landmarks its exploration,
// pruned at landmarks, meets) and, beyond them, landmarks reached only
// through another landmark — on the 2000- and 8000-node graphs with 30
// In-Deg landmarks, 21.7 and 16.0 landmarks per query against 20.5 and
// 14.8 read. Every list the answer depends on is therefore recomputed
// from this region's state, and a batch none of whose BatchEffect nodes
// intersect this set cannot change the result (unless Global).
// Lock-free: runs over the published view.
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
// A batch that landed delivers its effect even when its refresh failed.
func (m *Manager) applyLocked(batch []Update, durable bool) error {
	if len(batch) == 0 {
		return nil
	}
	if m.onBatch == nil {
		return m.applyInnerLocked(batch, durable)
	}
	fx := &BatchEffect{}
	m.collectFx = fx
	landed := m.stats.Batches
	err := m.applyInnerLocked(batch, durable)
	m.collectFx = nil
	if m.stats.Batches == landed {
		return err
	}
	fx.Epoch = m.stats.Epoch
	m.pendingFx = append(m.pendingFx, *fx)
	return err
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
	}
	m.stats.EdgesAdded += len(adds)
	m.stats.EdgesRemoved += len(removes)
	m.view = ov
	m.stats.Epoch++
	// Authority maintenance: only the targets of the changed edges have
	// new follower sets (the paper's local-update observation), so only
	// their rows change, plus g(t) of a moved maximum.
	if m.auth != nil {
		dsts := make([]graph.NodeID, len(batch))
		for i, up := range batch {
			dsts[i] = up.Edge.Dst
		}
		m.auth.ApplyDelta(m.view, dsts)
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
		compacted = true
		if fx := m.collectFx; fx != nil {
			fx.Global = true
		}
	}
	m.stats.Batches++
	m.publishViewLocked()

	// Mark affected landmarks: those that reach an endpoint of a changed
	// edge within their exploration horizon. A moved per-topic maximum
	// stales none: the lists hold σ/g(t), which does not depend on it.
	affected := m.affectedLandmarks(batch)
	for _, lm := range affected {
		m.markStaleLocked(lm)
	}
	if fx := m.collectFx; fx != nil {
		fx.StaleLandmarks = affected
	}

	var refreshErr error
	switch m.cfg.Strategy {
	case Eager:
		refreshErr = m.refreshLocked(m.scheduleLocked())
	case Threshold:
		if m.store.StaleLandmarks() >= m.cfg.StaleBound {
			refreshErr = m.refreshLocked(m.scheduleLocked())
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
	if refreshErr != nil {
		return fmt.Errorf("dynamic: batch applied, landmarks still stale: %w", refreshErr)
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
			return
		}
	}
	m.stats.SnapshotWrites++
	if m.cfg.WAL != nil {
		if err := m.cfg.WAL.Truncate(); err != nil {
			// The snapshot is live but the log kept its records: replay
			// would double-apply. Count it loudly; the next compaction's
			// truncate retry resolves it.
			m.stats.SnapshotFailures++
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

// staleList returns the landmarks with a stale topic, in landmark order.
func (m *Manager) staleList() []graph.NodeID {
	out := make([]graph.NodeID, 0, m.store.StaleLandmarks())
	for _, lm := range m.lms {
		if m.store.Stale(lm) != 0 {
			out = append(out, lm)
		}
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

// refreshLocked re-explores the given landmarks and clears their stale
// marks. Caller holds mu.
func (m *Manager) refreshLocked(lms []graph.NodeID) error {
	if len(lms) == 0 { // Eager calls on every batch, stale landmarks or not
		return nil
	}
	fresh, _ := landmark.Preprocess(m.eng, lms, landmark.PreprocessConfig{TopN: m.cfg.StoreTopN, Metrics: m.reg})
	for _, lm := range lms {
		if d := fresh.Get(lm); d != nil {
			if err := m.store.Put(d); err != nil {
				return err
			}
		}
		m.store.SetStale(lm, 0)
		delete(m.staleMeta, lm)
		m.stats.Refreshes++
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

// refreshTopicLocked recomputes topic t's list (and the topological
// list) of the given landmarks in shared factored passes and clears their
// topic-t marks. Caller holds mu.
func (m *Manager) refreshTopicLocked(lms []graph.NodeID, t topics.ID) error {
	fresh, _ := landmark.PreprocessTopic(m.eng, lms, t, landmark.PreprocessConfig{TopN: m.cfg.StoreTopN, Metrics: m.reg})
	for _, tl := range fresh {
		if err := m.store.PutTopic(t, tl); err != nil {
			return err
		}
		left := m.store.Stale(tl.Landmark).Remove(t)
		m.store.SetStale(tl.Landmark, left)
		if left == 0 {
			delete(m.staleMeta, tl.Landmark)
		}
		m.stats.TopicRefreshes++
	}
	m.noteIterationsLocked()
	return nil
}

// Recommend answers a query through the landmark approximation. Under
// the Lazy strategy it first refreshes topic t on every landmark in the
// query's depth-QueryDepth vicinity that is stale on t — the lists the
// answer reads — and nothing else; the other strategies refreshed at
// Apply time. When no such landmark exists it answers under the read
// lock, beside other readers; otherwise it takes the write lock for the
// refresh. A refresh error is returned instead of an answer.
func (m *Manager) Recommend(u graph.NodeID, t topics.ID, n int) ([]ranking.Scored, error) {
	m.mu.RLock()
	if !m.queryWritesLocked(u, t) {
		defer m.mu.RUnlock()
		return m.approxLocked(u, t, n)
	}
	m.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queryWritesLocked(u, t) {
		// One bounded BFS over the query's vicinity serves either policy:
		// Lazy refreshes topic t on its stale landmarks (the ones the
		// fold reads and those behind another landmark, which the
		// pruned exploration never meets), and under Eager or Threshold the priority scheduler
		// records every stale landmark met as traffic evidence (a stale
		// landmark queries keep meeting outranks one nothing reads).
		lazy := m.cfg.Strategy == Lazy
		var need []graph.NodeID
		graph.BFSOut(m.view, u, m.cfg.QueryDepth, func(v graph.NodeID, depth int) bool {
			if ts := m.store.Stale(v); ts != 0 {
				if !lazy {
					m.noteQueryHitLocked(v)
				} else if ts.Has(t) {
					need = append(need, v)
				}
			}
			return true
		})
		if lazy {
			if err := m.refreshTopicLocked(need, t); err != nil {
				return nil, err
			}
		}
	}
	return m.approxLocked(u, t, n)
}

// queryWritesLocked reports whether a query from u on t must write the
// manager: under Lazy, a landmark in the query's vicinity is stale on t
// (the query refreshes it); under Eager or Threshold with the priority
// scheduler, some landmark is stale (the query counts the ones it meets
// as traffic). Lazy never schedules, so no query counts hits under it.
// Caller holds mu.
func (m *Manager) queryWritesLocked(u graph.NodeID, t topics.ID) bool {
	if m.store.StaleLandmarks() == 0 {
		return false
	}
	if m.cfg.Strategy == Lazy {
		return m.meetsStaleLocked(u, t, m.cfg.QueryDepth)
	}
	return m.cfg.Scheduler == SchedPriority
}

// meetsStaleLocked reports whether a landmark within depth hops of u is
// stale on t. It walks every path from u rather than running a BFS: it
// allocates nothing and stops at the first stale landmark, and at a
// query's depth (2) the paths are few. Caller holds mu.
func (m *Manager) meetsStaleLocked(u graph.NodeID, t topics.ID, depth int) bool {
	if m.store.Stale(u).Has(t) {
		return true
	}
	if depth == 0 {
		return false
	}
	dsts, _ := m.view.Out(u)
	for _, v := range dsts {
		if m.meetsStaleLocked(v, t, depth-1) {
			return true
		}
	}
	return false
}

// approxLocked answers through the landmark approximation over the
// current engine and store. Caller holds mu, shared or exclusive.
func (m *Manager) approxLocked(u graph.NodeID, t topics.ID, n int) ([]ranking.Scored, error) {
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
	m.mu.RLock()
	defer m.mu.RUnlock()
	var opts []core.RecommenderOption
	if m.reg != nil {
		opts = append(opts, core.WithMetrics(m.reg))
	}
	return core.NewRecommender(m.eng, opts...).RecommendCtx(ctx, u, t, n)
}
