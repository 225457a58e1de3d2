// Package subscribe turns the recommendation service into a feed
// engine: clients register standing top-k queries and the Hub pushes
// set/rank deltas when an ingested batch actually moves them, instead of
// being polled.
//
// Every registered (user, topic, n, method) group keeps the nodes its
// recommendation depends on (Manager.Neighborhood — the query's own
// exploration region, whose met landmarks' lists are recomputed from
// exactly that region) as one sorted node slice. The Hub matches the
// dynamic manager's per-batch dirty set (dynamic.BatchEffect) against
// those slices: a batch marks dirty only the groups whose region holds
// one of its endpoints, staled landmarks or refreshed landmarks —
// batches touching no subscribed neighborhood trigger zero re-scores.
// Dirty groups drain through one budgeted worker whose Compute callback
// is the server's coalesced/degradable serving path, so S subscribers of
// the same key cost one re-score per generation and pressure degrades
// exact-Tr re-scores to the landmark engine with "degraded":true stamped
// on the pushed events.
//
// Per subscription the Hub keeps the last pushed top-k and a bounded
// event ring: a re-score whose top-k membership and order are unchanged
// pushes nothing (score-only drift is suppressed); consumers that lapse
// past the ring either resync with a synthesized Reset snapshot (at
// connect) or are disconnected (mid-stream slow consumers).
package subscribe

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// Key identifies one standing query — the subscription-side mirror of
// the serving path's cache key, so coalescing composes across the two.
type Key struct {
	User   graph.NodeID
	Topic  topics.ID
	N      int
	Method string
}

// Result is one re-score outcome.
type Result struct {
	Scored []ranking.Scored
	// Degraded marks an exact-Tr re-score answered by the landmark
	// approximation under pressure; stamped onto the pushed events.
	Degraded bool
}

// Config parameterizes a Hub.
type Config struct {
	// MaxSubscriptions caps live subscriptions; Register beyond it fails
	// with ErrLimit. <= 0 uses 1024.
	MaxSubscriptions int
	// RescoreBudget bounds how many dirty groups one worker cycle
	// re-scores before re-checking for shutdown. <= 0 uses 32.
	RescoreBudget int
	// EventBuffer bounds the per-subscription event ring; consumers
	// falling further behind lapse. <= 0 uses 64.
	EventBuffer int
	// Compute answers one standing query — the server wires its
	// coalesced, admission-controlled, degradable compute path here.
	Compute func(ctx context.Context, k Key) (Result, error)
	// Neighborhood returns the dependency set of a key's recommendation
	// (Manager.Neighborhood); re-resolved after every re-score so the
	// group's dependency set follows the graph. The Hub copies it.
	Neighborhood func(k Key) []graph.NodeID
	// Metrics, when non-nil, receives the hub's counters, gauges and the
	// push-latency histogram.
	Metrics *metrics.Registry
}

// Errors returned by the Hub.
var (
	// ErrLimit rejects registrations past MaxSubscriptions.
	ErrLimit = errors.New("subscribe: subscription limit reached")
	// ErrUnknown names a subscription id that is not (or no longer)
	// registered.
	ErrUnknown = errors.New("subscribe: unknown subscription")
	// ErrLapsed tells a mid-stream consumer its position fell out of the
	// bounded event ring: the stream cannot be resumed gap-free.
	ErrLapsed = errors.New("subscribe: consumer lapsed behind the event buffer")
	// ErrClosed rejects operations on a closed hub.
	ErrClosed = errors.New("subscribe: hub closed")
)

// group is the unit of re-scoring: every subscription sharing a Key.
type group struct {
	key  Key
	subs map[*sub]struct{}
	// nodes is the current dependency set (depSet): sorted, without
	// duplicates or spare capacity, 4 bytes per node.
	nodes []graph.NodeID
	// pending marks the group as queued in Hub.dirty; further marks
	// coalesce into the queued entry.
	pending bool
	// epoch is the freshest graph epoch folded into the pending mark;
	// ingestNs the oldest nonzero trigger timestamp (the push-latency
	// anchor). Both snapshot at take time.
	epoch    uint64
	ingestNs int64
}

// sub is one subscription: an event ring plus the last pushed snapshot.
type sub struct {
	id  string
	grp *group
	// seq is the sequence number of the newest event; the ring holds
	// seqs (seq-len(events), seq].
	seq    uint64
	events []client.Event
	// last is the last pushed top-k (nil before the first push); the
	// diff base and the Reset-resync payload.
	last []client.Entry
	// notify is closed and replaced whenever an event is appended (or
	// the subscription is torn down), waking blocked readers.
	notify chan struct{}
}

// takeItem is one dirty group snapshotted for re-scoring.
type takeItem struct {
	g        *group
	epoch    uint64
	ingestNs int64
}

// Hub owns every standing query of one server.
type Hub struct {
	cfg Config

	mu   sync.Mutex
	subs map[string]*sub
	// groups holds every live group, sorted by Key (compareKeys).
	groups []*group
	dirty  []*group // FIFO of pending groups
	epoch  uint64   // freshest epoch seen from OnBatch
	nextID uint64
	// inflight counts groups taken by the worker but not yet re-scored —
	// dirty==0 && inflight==0 means quiescent (Flush).
	inflight int
	closed   bool

	stats client.SubscriptionStats

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	// mPushLat is detached (never exported) when Config.Metrics is nil.
	mPushLat *metrics.Histogram
}

// New starts a hub and its re-score worker. Close releases it.
func New(cfg Config) *Hub {
	if cfg.MaxSubscriptions <= 0 {
		cfg.MaxSubscriptions = 1024
	}
	if cfg.RescoreBudget <= 0 {
		cfg.RescoreBudget = 32
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 64
	}
	h := &Hub{
		cfg:  cfg,
		subs: make(map[string]*sub),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		mPushLat: cfg.Metrics.Histogram("subscribe_push_latency_seconds",
			"Latency from ingest accept to delta availability in the event ring.", nil),
	}
	h.stats.Max = cfg.MaxSubscriptions
	reg := cfg.Metrics
	for _, c := range []struct {
		name, help string
		get        func(client.SubscriptionStats) uint64
	}{
		{"subscribe_rescore_marks_total", "Dirty marks delivered to subscription groups by batch effects.", func(s client.SubscriptionStats) uint64 { return s.RescoreMarks }},
		{"subscribe_rescores_coalesced_total", "Dirty marks absorbed by an already-queued group (re-scores saved).", func(s client.SubscriptionStats) uint64 { return s.RescoresCoalesced }},
		{"subscribe_rescores_total", "Standing-query re-score executions.", func(s client.SubscriptionStats) uint64 { return s.Rescores }},
		{"subscribe_pushes_suppressed_total", "Re-scores per subscription whose top-k was unchanged (no event pushed).", func(s client.SubscriptionStats) uint64 { return s.PushesSuppressed }},
		{"subscribe_rescore_failures_total", "Failed re-score executions (group re-queued).", func(s client.SubscriptionStats) uint64 { return s.RescoreFailures }},
		{"subscribe_events_pushed_total", "Delta events appended to subscription event rings.", func(s client.SubscriptionStats) uint64 { return s.EventsPushed }},
		{"subscribe_dropped_slow_consumers_total", "Consumers disconnected after lapsing behind the event ring.", func(s client.SubscriptionStats) uint64 { return s.DroppedSlowConsumers }},
	} {
		reg.CounterFunc(c.name, c.help, func() uint64 { return c.get(h.Stats()) })
	}
	reg.GaugeFunc("subscribe_active_subscriptions", "Live standing queries.",
		func() float64 { return float64(h.Stats().Active) })
	reg.GaugeFunc("subscribe_dirty_groups", "Subscription groups queued for re-scoring.",
		func() float64 { return float64(h.Stats().DirtyQueue) })
	go h.worker()
	return h
}

// Close stops the worker and wakes every blocked reader. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		<-h.done
		return
	}
	h.closed = true
	for _, s := range h.subs {
		close(s.notify)
	}
	h.mu.Unlock()
	close(h.stop)
	<-h.done
}

// Register creates a subscription for k, returning its id. The first
// snapshot is pushed asynchronously by the worker (as a Reset event).
func (h *Hub) Register(k Key) (string, error) {
	// Resolve the dependency set outside the lock (it BFSes the graph).
	nodes := depSet(h.cfg.Neighborhood(k))
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return "", ErrClosed
	}
	if len(h.subs) >= h.cfg.MaxSubscriptions {
		return "", ErrLimit
	}
	i, found := h.findLocked(k)
	if !found {
		h.groups = slices.Insert(h.groups, i, &group{key: k, subs: make(map[*sub]struct{}), nodes: nodes})
	}
	g := h.groups[i]
	h.nextID++
	s := &sub{
		id:     "s" + strconv.FormatUint(h.nextID, 10),
		grp:    g,
		notify: make(chan struct{}),
	}
	g.subs[s] = struct{}{}
	h.subs[s.id] = s
	h.stats.Registered++
	// Queue the initial snapshot. Existing group members see a suppressed
	// push (their top-k is unchanged); the new member gets its Reset.
	h.markDirtyLocked(g, h.epoch, 0)
	h.kickLocked()
	return s.id, nil
}

// Unsubscribe tears down a subscription, waking its blocked readers.
func (h *Hub) Unsubscribe(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	if !ok {
		return ErrUnknown
	}
	delete(h.subs, id)
	close(s.notify)
	g := s.grp
	delete(g.subs, s)
	if len(g.subs) == 0 {
		// Last member: drop the group and its dependency set. A queued
		// dirty entry stays in the FIFO; the worker skips empty groups.
		i, _ := h.findLocked(g.key)
		h.groups = slices.Delete(h.groups, i, i+1)
		g.nodes = nil
	}
	h.stats.Unsubscribed++
	return nil
}

// OnBatch folds one batch effect into the dirty queue, one mark per group,
// in three tiers: the groups keyed on a user who is an endpoint of the
// batch (their own edges changed, so their answers certainly move), then
// the other groups whose dependency set holds a touched node, then — on a
// global effect — every other group. Within a tier groups are queued by
// Key, so the order depends on the registrations and the effect alone.
// Wired to dynamic.Manager.SetBatchHook.
func (h *Hub) OnBatch(fx dynamic.BatchEffect) {
	touched := touchedSet(fx)
	h.mu.Lock()
	defer h.mu.Unlock()
	if fx.Epoch > h.epoch {
		h.epoch = fx.Epoch
	}
	// tier[i] is the tier of h.groups[i]; untouched groups sit in the
	// last, which only a global effect marks.
	const actor, other, untouched = 0, 1, 2
	tier := make([]uint8, len(h.groups))
	for i, g := range h.groups {
		switch {
		case !intersects(g.nodes, touched):
			tier[i] = untouched
		case slices.Contains(fx.Endpoints, g.key.User):
			tier[i] = actor
		default:
			tier[i] = other
		}
	}
	last := uint8(other)
	if fx.Global {
		last = untouched
	}
	for t := range last + 1 {
		for i, g := range h.groups {
			if tier[i] == t {
				h.markDirtyLocked(g, fx.Epoch, fx.OldestAt)
			}
		}
	}
	h.kickLocked()
}

// depSet returns a sorted copy of nodes without duplicates or spare
// capacity: the form a group keeps its dependency set in. The copy
// leaves the caller's slice alone and keeps no BFS growth slack alive.
func depSet(nodes []graph.NodeID) []graph.NodeID {
	s := slices.Clone(nodes)
	slices.Sort(s)
	return slices.Clip(slices.Compact(s))
}

// touchedSet returns the nodes of a batch effect — endpoints, staled
// and refreshed landmarks — as a bitset over node ids, sized to the
// largest.
func touchedSet(fx dynamic.BatchEffect) []uint64 {
	lists := [...][]graph.NodeID{fx.Endpoints, fx.StaleLandmarks, fx.Refreshed}
	words := 0
	for _, nodes := range lists {
		for _, v := range nodes {
			words = max(words, int(v>>6)+1)
		}
	}
	set := make([]uint64, words)
	for _, nodes := range lists {
		for _, v := range nodes {
			set[v>>6] |= 1 << (v & 63)
		}
	}
	return set
}

// intersects reports whether the sorted set nodes holds a node of the
// bitset touched. It stops at the first hit, and at the first node past
// the bitset's last word: nodes ascend, so none after it can hit.
func intersects(nodes []graph.NodeID, touched []uint64) bool {
	for _, v := range nodes {
		w := int(v >> 6)
		if w >= len(touched) {
			return false
		}
		if touched[w]&(1<<(v&63)) != 0 {
			return true
		}
	}
	return false
}

// findLocked returns the position of key k in h.groups and whether a
// group sits there; otherwise the position a group of k is inserted at.
// Caller holds mu.
func (h *Hub) findLocked(k Key) (int, bool) {
	return slices.BinarySearchFunc(h.groups, k, func(g *group, k Key) int { return compareKeys(g.key, k) })
}

// compareKeys orders keys by user, topic, list length and method.
func compareKeys(a, b Key) int {
	return cmp.Or(
		cmp.Compare(a.User, b.User),
		cmp.Compare(a.Topic, b.Topic),
		cmp.Compare(a.N, b.N),
		strings.Compare(a.Method, b.Method),
	)
}

// markDirtyLocked records one dirty mark on g: queued groups absorb it
// (the coalescing win — one re-score per group per drain no matter how
// many batches land first). Caller holds mu.
func (h *Hub) markDirtyLocked(g *group, epoch uint64, ingestNs int64) {
	h.stats.RescoreMarks++
	if epoch > g.epoch {
		g.epoch = epoch
	}
	if ingestNs != 0 && (g.ingestNs == 0 || ingestNs < g.ingestNs) {
		g.ingestNs = ingestNs
	}
	if g.pending {
		h.stats.RescoresCoalesced++
		return
	}
	g.pending = true
	h.dirty = append(h.dirty, g)
}

// kickLocked wakes the worker if it is parked. Caller holds mu (not
// required, but every caller already does).
func (h *Hub) kickLocked() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// worker drains the dirty queue, RescoreBudget groups per cycle, backing
// off after failed cycles so a saturated or broken compute path cannot
// spin it.
func (h *Hub) worker() {
	defer close(h.done)
	fails := 0
	for {
		select {
		case <-h.stop:
			return
		case <-h.wake:
		}
		for {
			batch := h.takeBatch()
			if len(batch) == 0 {
				break
			}
			anyErr := false
			for _, it := range batch {
				if err := h.rescore(it); err != nil {
					anyErr = true
				}
			}
			if !anyErr {
				fails = 0
				continue
			}
			fails++
			backoff := 25 * time.Millisecond << min(fails, 5)
			select {
			case <-h.stop:
				return
			case <-time.After(backoff):
			}
		}
	}
}

// takeBatch pops up to RescoreBudget non-empty dirty groups, snapshotting
// their trigger metadata and counting them inflight until re-scored.
func (h *Hub) takeBatch() []takeItem {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []takeItem
	for len(out) < h.cfg.RescoreBudget && len(h.dirty) > 0 {
		g := h.dirty[0]
		h.dirty[0] = nil
		h.dirty = h.dirty[1:]
		g.pending = false
		if len(g.subs) == 0 {
			g.ingestNs = 0
			continue
		}
		out = append(out, takeItem{g: g, epoch: g.epoch, ingestNs: g.ingestNs})
		g.ingestNs = 0
	}
	h.inflight += len(out)
	return out
}

// rescore recomputes one group's top-k and pushes diffs to its members.
func (h *Hub) rescore(it takeItem) error {
	defer func() {
		h.mu.Lock()
		h.inflight--
		h.mu.Unlock()
	}()
	g := it.g
	res, err := h.cfg.Compute(context.Background(), g.key)
	if err != nil {
		h.mu.Lock()
		h.stats.RescoreFailures++
		// Re-queue so the state is retried; the worker's backoff paces
		// the retries.
		if len(g.subs) > 0 {
			h.markDirtyLocked(g, it.epoch, it.ingestNs)
		}
		h.mu.Unlock()
		return err
	}
	// The graph moved under this group; follow it with a fresh dependency
	// set before pushing, so the next batch marks against current edges.
	nodes := depSet(h.cfg.Neighborhood(g.key))

	top := make([]client.Entry, len(res.Scored))
	for i, sc := range res.Scored {
		top[i] = client.Entry{User: uint32(sc.Node), Score: sc.Score}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		// Close already woke (and permanently closed) every notify
		// channel; pushing would close them a second time.
		return nil
	}
	h.stats.Rescores++
	if len(g.subs) == 0 {
		// Every member unsubscribed mid-compute; the group is gone.
		return nil
	}
	g.nodes = nodes
	var lat float64 = -1
	if it.ingestNs > 0 {
		lat = float64(time.Now().UnixNano()-it.ingestNs) / 1e9
	}
	for s := range g.subs {
		ev, changed := diffEvent(s.last, top, res.Degraded, it, s.seq+1, s.last == nil)
		if !changed {
			h.stats.PushesSuppressed++
			continue
		}
		s.seq = ev.Seq
		s.events = append(s.events, ev)
		if excess := len(s.events) - h.cfg.EventBuffer; excess > 0 {
			s.events = append(s.events[:0], s.events[excess:]...)
		}
		s.last = top
		close(s.notify)
		s.notify = make(chan struct{})
		h.stats.EventsPushed++
		if lat >= 0 {
			h.mPushLat.Observe(lat)
		}
	}
	return nil
}

// diffEvent builds the delta event from the previously pushed top-k to
// next. changed is false when membership and order are identical —
// score-only drift — and reset subs (last == nil) always change.
func diffEvent(last []client.Entry, next []client.Entry, degraded bool, it takeItem, seq uint64, reset bool) (client.Event, bool) {
	if !reset && len(last) == len(next) {
		same := true
		for i := range next {
			if last[i].User != next[i].User {
				same = false
				break
			}
		}
		if same {
			return client.Event{}, false
		}
	}
	ev := client.Event{
		Seq:           seq,
		Epoch:         it.epoch,
		Reset:         reset,
		Degraded:      degraded,
		Top:           next,
		TriggerUnixNs: it.ingestNs,
	}
	if !reset {
		oldIdx := make(map[uint32]int, len(last))
		for i, e := range last {
			oldIdx[e.User] = i
		}
		inNext := make(map[uint32]bool, len(next))
		for i, e := range next {
			inNext[e.User] = true
			if j, ok := oldIdx[e.User]; !ok {
				ev.Added = append(ev.Added, e.User)
			} else if j != i {
				ev.Moved = append(ev.Moved, e.User)
			}
		}
		for _, e := range last {
			if !inNext[e.User] {
				ev.Removed = append(ev.Removed, e.User)
			}
		}
	}
	return ev, true
}

// EventsSince returns the buffered events of id with Seq > after, plus a
// channel that closes on the next push (for blocking when the slice is
// empty). When after has lapsed out of the ring: with resync true it
// synthesizes a Reset snapshot event carrying the current top-k (the
// connect-time recovery), otherwise it fails with ErrLapsed and counts a
// dropped slow consumer (the mid-stream disconnect).
func (h *Hub) EventsSince(id string, after uint64, resync bool) ([]client.Event, <-chan struct{}, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Closed first: the subs map survives Close (readers may still be
	// draining), but their notify channels are permanently closed — serving
	// events here would spin a blocked reader instead of ending it.
	if h.closed {
		return nil, nil, ErrClosed
	}
	s, ok := h.subs[id]
	if !ok {
		return nil, nil, ErrUnknown
	}
	oldest := s.seq - uint64(len(s.events)) + 1
	if len(s.events) > 0 && after+1 < oldest {
		if !resync {
			h.stats.DroppedSlowConsumers++
			return nil, nil, ErrLapsed
		}
		ev := client.Event{Seq: s.seq, Epoch: h.epoch, Reset: true, Top: s.last}
		return []client.Event{ev}, s.notify, nil
	}
	var out []client.Event
	for _, ev := range s.events {
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out, s.notify, nil
}

// Get returns the key of a registered subscription.
func (h *Hub) Get(id string) (Key, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	if !ok {
		return Key{}, false
	}
	return s.grp.key, true
}

// Flush blocks until the hub is quiescent — no dirty groups queued and
// no re-score inflight — or ctx expires. Test and bench support.
func (h *Hub) Flush(ctx context.Context) error {
	for {
		h.mu.Lock()
		idle := len(h.dirty) == 0 && h.inflight == 0
		h.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() client.SubscriptionStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stats
	st.Active = len(h.subs)
	st.Groups = len(h.groups)
	st.DirtyQueue = len(h.dirty)
	return st
}
