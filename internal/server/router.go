// router.go is the scatter/gather side of the sharded deployment: the
// /v1 front-end fans a landmark query out to every partition worker
// (cmd/trshard), gathers the binary partial lists, and merges them with
// the Proposition 2/4 composition — so a query over a cluster returns
// exactly what the single machine would, as long as every shard answers.
// Shards that miss their per-shard deadline just leave their additive
// share out: the merged answer is still a valid landmark-only lower
// bound and is surfaced as degraded (and never cached).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/topics"
)

// errShardOverloaded classifies a shard 429 so the gather can distinguish
// "the cluster is saturated" (shed the front-end request too) from "a
// shard is broken" (serve degraded).
var errShardOverloaded = errors.New("shard overloaded")

// DefaultShardTimeout bounds one partial fetch; it is deliberately much
// tighter than the front-end request deadline so a stuck shard degrades
// the answer instead of stalling it.
const DefaultShardTimeout = 2 * time.Second

// ShardRouter fans recommendation queries out to partition workers.
// groups[i] holds the endpoints serving shard i: the primary first, then
// replicas used for hedged retries.
type ShardRouter struct {
	groups  [][]string
	client  *http.Client
	timeout time.Duration
	hedge   time.Duration

	scatters   *metrics.Counter
	partialLat *metrics.HistogramVec
	timeoutCtr *metrics.Counter
	hedgeCtr   *metrics.Counter
	mergeSize  *metrics.Histogram
	fallbacks  *metrics.Counter
}

// ParseShardFlag parses the -shards syntax: shard groups separated by
// commas, replicas within a group separated by '|', e.g.
// "h1:7071|h1b:7071,h2:7072". A scheme is prepended when missing.
func ParseShardFlag(s string) ([][]string, error) {
	var groups [][]string
	for _, grp := range strings.Split(s, ",") {
		grp = strings.TrimSpace(grp)
		if grp == "" {
			continue
		}
		var eps []string
		for _, ep := range strings.Split(grp, "|") {
			ep = strings.TrimSpace(ep)
			if ep == "" {
				return nil, fmt.Errorf("server: empty shard endpoint in %q", grp)
			}
			if !strings.Contains(ep, "://") {
				ep = "http://" + ep
			}
			eps = append(eps, ep)
		}
		groups = append(groups, eps)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("server: -shards lists no shard groups")
	}
	return groups, nil
}

// NewShardRouter builds a router over shard endpoint groups. timeout
// bounds each partial fetch (DefaultShardTimeout when <= 0); hedge is the
// delay before a hedged retry fires against a replica (0 disables
// hedging; a replica is still tried immediately when the primary fails
// outright).
func NewShardRouter(groups [][]string, timeout, hedge time.Duration) *ShardRouter {
	if timeout <= 0 {
		timeout = DefaultShardTimeout
	}
	return &ShardRouter{
		groups:  groups,
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		timeout: timeout,
		hedge:   hedge,
	}
}

// Shards returns the partition count.
func (r *ShardRouter) Shards() int { return len(r.groups) }

// instrument resolves the router's metric handles in reg.
func (r *ShardRouter) instrument(reg *metrics.Registry) {
	r.scatters = reg.Counter("shard_scatter_total",
		"Recommendation queries fanned out to the shard tier.")
	r.partialLat = reg.HistogramVec("shard_partial_latency",
		"Seconds to fetch one shard's partial list, by shard.", nil, "shard")
	r.timeoutCtr = reg.Counter("shard_timeouts_total",
		"Partial fetches that missed the per-shard deadline.")
	r.hedgeCtr = reg.Counter("shard_hedges_total",
		"Hedged or failover retries sent to shard replicas.")
	r.mergeSize = reg.Histogram("gather_merge_size",
		"Partial entries merged per gathered query.",
		metrics.ExponentialBuckets(64, 4, 8))
	r.fallbacks = reg.Counter("shard_fallbacks_total",
		"Gathers answered by the local landmark engine because every shard failed.")
}

// gather is one scatter's outcome: per-shard partials in shard order (nil
// where the shard failed), and the failure breakdown.
type gather struct {
	partials   [][]distrib.PartialEntry
	failed     int
	overloaded int // failures that were shard 429s
}

// Gather scatters (user, topic) to every shard group in parallel and
// collects the partial lists, each under its own timeout and hedging.
func (r *ShardRouter) Gather(ctx context.Context, user graph.NodeID, topic topics.ID) gather {
	r.scatters.Inc()
	body, _ := json.Marshal(distrib.PartialRequest{User: user, Topic: topic}) //nolint:errcheck
	g := gather{partials: make([][]distrib.PartialEntry, len(r.groups))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range r.groups {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			entries, err := r.fetchShard(ctx, shard, body)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				g.failed++
				if errors.Is(err, errShardOverloaded) {
					g.overloaded++
				}
				if errors.Is(err, context.DeadlineExceeded) {
					r.timeoutCtr.Inc()
				}
				return
			}
			if entries == nil {
				entries = []distrib.PartialEntry{} // success with an empty list
			}
			g.partials[shard] = entries
		}(i)
	}
	wg.Wait()
	total := 0
	for _, p := range g.partials {
		total += len(p)
	}
	r.mergeSize.Observe(float64(total))
	return g
}

// fetchShard fetches one shard's partial under the per-shard timeout,
// hedging against the next replica after the hedge delay and failing over
// immediately when an attempt errors with replicas left to try.
func (r *ShardRouter) fetchShard(ctx context.Context, shard int, body []byte) ([]distrib.PartialEntry, error) {
	sctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	eps := r.groups[shard]

	type attempt struct {
		entries []distrib.PartialEntry
		err     error
	}
	ch := make(chan attempt, len(eps))
	launch := func(ep string) {
		go func() {
			e, err := r.post(sctx, ep, shard, body)
			ch <- attempt{e, err}
		}()
	}
	launch(eps[0])
	launched, replied := 1, 0

	// The hedge timer is stopped on every exit path (the deferred Stop)
	// and disarmed eagerly the moment it can no longer matter — once every
	// replica has been launched — so a fast primary win never leaves a
	// timer pending for the hedge delay.
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if r.hedge > 0 && len(eps) > 1 {
		hedgeTimer = time.NewTimer(r.hedge)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	disarmHedge := func() {
		if hedgeTimer != nil {
			hedgeTimer.Stop()
			hedgeTimer = nil
			hedgeC = nil
		}
	}

	var firstErr error
	for {
		select {
		case a := <-ch:
			replied++
			if a.err == nil {
				return a.entries, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if launched < len(eps) {
				r.hedgeCtr.Inc()
				launch(eps[launched])
				launched++
				if launched == len(eps) {
					disarmHedge()
				}
				continue
			}
			if replied == launched {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeTimer, hedgeC = nil, nil
			if launched < len(eps) {
				r.hedgeCtr.Inc()
				launch(eps[launched])
				launched++
			}
		case <-sctx.Done():
			return nil, sctx.Err()
		}
	}
}

// post performs one partial RPC against one endpoint.
func (r *ShardRouter) post(ctx context.Context, ep string, shard int, body []byte) ([]distrib.PartialEntry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep+"/shard/v1/partial", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, errShardOverloaded
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("shard %d (%s): status %d: %s", shard, ep, resp.StatusCode, bytes.TrimSpace(msg))
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	pr, err := distrib.DecodePartial(buf)
	if err != nil {
		return nil, err
	}
	if pr.Shard != shard || pr.Parts != len(r.groups) {
		return nil, fmt.Errorf("endpoint %s answered as shard %d of %d, want %d of %d (mis-wired -shards?)",
			ep, pr.Shard, pr.Parts, shard, len(r.groups))
	}
	r.partialLat.With(strconv.Itoa(shard)).Observe(time.Since(start).Seconds())
	return pr.Entries, nil
}
