// Package ingest is the streaming write path: a bounded, backpressured
// pipeline that turns a continuous stream of follow/unfollow events into
// the dynamic manager's batched applies.
//
// The legacy write path called dynamic.Manager.Apply synchronously per
// request: every producer paid the full apply latency (WAL append,
// overlay install, landmark refresh) inline, and nothing bounded how
// much work a burst could queue inside the server. The pipeline inverts
// this into staged ingestion:
//
//	admission → bounded queue → adaptive batching → apply
//	                                               (WAL append → overlay
//	                                                → refresh schedule)
//
// Admission is all-or-nothing and non-blocking: Enqueue either accepts
// the whole event group into the queue or rejects it with ErrFull — the
// explicit backpressure signal (the HTTP tier maps it to 429). An
// accepted event is owned by the pipeline until it durably applies; an
// apply failure poisons the pipeline loudly (every later Enqueue/Flush
// returns the cause) rather than dropping events silently. So every
// offered event has exactly one of three outcomes: applied, explicitly
// rejected, or surfaced in a poison error — never lost.
//
// Batching is adaptive, not timed: the single consumer drains whatever
// is queued up to MaxBatch and applies it as one batch. Under light
// load batches are small and latency is one apply; under a sustained
// stream batches grow toward MaxBatch and the per-batch costs (WAL
// record, overlay layer, staleness scan) amortize across the burst.
package ingest

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dynamic"
	"repro/internal/metrics"
)

// ErrFull rejects an enqueue that does not fit the bounded queue: the
// caller's backpressure signal. Retry later or shed the event — the
// pipeline has durably recorded nothing for it.
var ErrFull = errors.New("ingest: queue full")

// ErrClosed rejects enqueues after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

// Applier consumes batched updates; *dynamic.Manager is the production
// implementation.
type Applier interface {
	Apply(batch []dynamic.Update) error
}

// Config parameterizes a Pipeline.
type Config struct {
	// QueueCap bounds the admission queue in events. <= 0 uses 4096.
	QueueCap int
	// MaxBatch caps how many queued events one Apply folds together.
	// <= 0 uses 256.
	MaxBatch int
	// Metrics, when non-nil, receives the pipeline's counters and
	// queue-depth gauges.
	Metrics *metrics.Registry
}

// Stats is a point-in-time snapshot of the pipeline's accounting. The
// conservation law Enqueued == Applied + Depth (+ the poisoned batch's
// events) holds at every quiescent point; Rejected events were never
// admitted.
type Stats struct {
	// Depth and Cap are the queue's current fill and bound.
	Depth, Cap int
	// Enqueued counts admitted events, Rejected the ErrFull rejections
	// (in events), Applied the events durably applied, Batches the
	// Apply calls they were folded into.
	Enqueued, Rejected, Applied, Batches uint64
	// Err is the poison cause, nil while healthy.
	Err error
}

// Pipeline is the staged ingestion queue. One background consumer
// drains it; any number of producers may Enqueue concurrently.
type Pipeline struct {
	mgr Applier
	ch  chan dynamic.Update

	mu       sync.Mutex
	cond     *sync.Cond // broadcast after every batch applies
	closed   bool
	err      error // poison cause
	enqueued uint64
	rejected uint64
	applied  uint64
	batches  uint64

	done chan struct{} // consumer exited
}

// New starts a pipeline feeding mgr. Close it to stop the consumer.
func New(mgr Applier, cfg Config) *Pipeline {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	p := &Pipeline{
		mgr:  mgr,
		ch:   make(chan dynamic.Update, cfg.QueueCap),
		done: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	reg := cfg.Metrics
	for _, c := range []struct {
		name, help string
		get        func(Stats) uint64
	}{
		{"ingest_enqueued_total", "Events admitted into the ingestion queue.", func(s Stats) uint64 { return s.Enqueued }},
		{"ingest_rejected_total", "Events rejected with queue-full backpressure.", func(s Stats) uint64 { return s.Rejected }},
		{"ingest_applied_total", "Events durably applied by the consumer.", func(s Stats) uint64 { return s.Applied }},
		{"ingest_batches_total", "Apply calls the consumer folded events into.", func(s Stats) uint64 { return s.Batches }},
	} {
		reg.CounterFunc(c.name, c.help, func() uint64 { return c.get(p.Stats()) })
	}
	reg.GaugeFunc("ingest_queue_depth", "Events currently queued for apply.",
		func() float64 { return float64(len(p.ch)) })
	reg.GaugeFunc("ingest_queue_capacity", "Bound of the ingestion queue.",
		func() float64 { return float64(cap(p.ch)) })
	go p.consume(cfg.MaxBatch)
	return p
}

// Enqueue admits ups into the queue, all or nothing: on success the
// pipeline owns them until they durably apply; ErrFull means none were
// admitted (back off and retry); ErrClosed and poison errors likewise
// admit nothing.
func (p *Pipeline) Enqueue(ups ...dynamic.Update) error {
	if len(ups) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return fmt.Errorf("ingest: pipeline poisoned: %w", p.err)
	}
	if p.closed {
		return ErrClosed
	}
	// Only the consumer removes from ch and only lock-holders add, so
	// this capacity check cannot race into an over-admit: len can
	// shrink concurrently (fine — the sends below cannot block), never
	// grow.
	if len(ups) > cap(p.ch)-len(p.ch) {
		p.rejected += uint64(len(ups))
		return ErrFull
	}
	for _, up := range ups {
		p.ch <- up
	}
	p.enqueued += uint64(len(ups))
	return nil
}

// consume is the single applier goroutine: block for one event, drain
// greedily up to maxBatch, apply as one batch.
func (p *Pipeline) consume(maxBatch int) {
	defer close(p.done)
	batch := make([]dynamic.Update, 0, maxBatch)
	for up := range p.ch {
		batch = append(batch[:0], up)
		for len(batch) < maxBatch {
			select {
			case more, ok := <-p.ch:
				if !ok {
					break
				}
				batch = append(batch, more)
				continue
			default:
			}
			break
		}
		err := p.mgr.Apply(batch)
		p.mu.Lock()
		if err != nil {
			// Poison: the batch's events were admitted but did not
			// apply, or applied with a failed landmark refresh (a
			// broken invariant). Stop consuming — a WAL that rejected
			// one append must not be offered later batches, or replay
			// order and live order diverge — and surface the cause on
			// every later call instead of dropping events silently.
			p.err = err
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		p.applied += uint64(len(batch))
		p.batches++
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Flush blocks until every event admitted before the call has applied,
// or returns the poison cause if the pipeline died first.
func (p *Pipeline) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	target := p.enqueued
	for p.applied < target && p.err == nil {
		p.cond.Wait()
	}
	if p.err != nil && p.applied < target {
		return fmt.Errorf("ingest: pipeline poisoned: %w", p.err)
	}
	return nil
}

// Close stops admissions, drains the queue, waits for the consumer and
// returns the poison cause if the pipeline died with events unapplied.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		err := p.err
		p.mu.Unlock()
		<-p.done
		return err
	}
	p.closed = true
	p.mu.Unlock()
	close(p.ch)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats snapshots the pipeline's accounting.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Depth: len(p.ch), Cap: cap(p.ch),
		Enqueued: p.enqueued, Rejected: p.rejected,
		Applied: p.applied, Batches: p.batches,
		Err: p.err,
	}
}
