package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/distrib"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// DynamicResult reports the update-maintenance experiment (the paper's
// first future-work direction): per strategy, the cost of applying a
// stream of follow/unfollow updates and the refresh work it triggered.
type DynamicResult struct {
	Rows []DynamicRow
	// FullRebuild is the baseline: preprocessing everything from scratch
	// once.
	FullRebuild time.Duration
}

// DynamicRow is one refresh strategy's bill for the update stream.
type DynamicRow struct {
	Strategy       dynamic.Strategy
	Updates        int
	Total          time.Duration // wall time for the whole stream
	Refreshes      int           // whole landmarks re-explored (every topic)
	TopicRefreshes int           // (landmark, topic) lists a Lazy query refreshed
	StaleLeft      int
}

// ExtDynamic streams single-edge updates through each refresh strategy.
func (r *Runner) ExtDynamic() (*DynamicResult, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	lms, err := landmark.Select(tw.Graph, landmark.InDeg, r.cfg.Landmarks/2+1, landmark.DefaultSelectConfig())
	if err != nil {
		return nil, err
	}
	const updates = 12
	res := &DynamicResult{}

	t0 := time.Now()
	eng, err := r.engineFor(tw)
	if err != nil {
		return nil, err
	}
	landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 200})
	res.FullRebuild = time.Since(t0)

	for _, strat := range []dynamic.Strategy{dynamic.Eager, dynamic.Lazy, dynamic.Threshold} {
		m, err := dynamic.NewManager(tw.Graph, lms, dynamic.Config{
			Params: r.cfg.Params, Sim: tw.Sim, StoreTopN: 200,
			QueryDepth: r.cfg.ApproxDepth, Strategy: strat, StaleBound: 4,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		n := tw.Graph.NumNodes()
		for i := 0; i < updates; i++ {
			src := graph.NodeID((i*131 + 7) % n)
			dst := graph.NodeID((i*257 + 31) % n)
			if src == dst {
				continue
			}
			up := dynamic.Update{
				Edge: graph.Edge{Src: src, Dst: dst, Label: topics.NewSet(topics.ID(i % tw.Vocabulary().Len()))},
				Add:  true,
			}
			if err := m.Apply([]dynamic.Update{up}); err != nil {
				return nil, err
			}
			// Interleave a query so Lazy has a chance to pay its debt.
			if i%3 == 2 {
				if _, err := m.Recommend(src, 0, 10); err != nil {
					return nil, err
				}
			}
		}
		st := m.Stats()
		res.Rows = append(res.Rows, DynamicRow{
			Strategy:       strat,
			Updates:        updates,
			Total:          time.Since(start),
			Refreshes:      st.Refreshes,
			TopicRefreshes: st.TopicRefreshes,
			StaleLeft:      st.StaleNow,
		})
	}
	return res, nil
}

// String renders the strategy comparison.
func (d *DynamicResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "full preprocessing (baseline): %s\n", d.FullRebuild.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-10s %8s %14s %10s %15s %10s\n", "Strategy", "updates", "stream time", "refreshes", "topic refreshes", "stale")
	for _, row := range d.Rows {
		fmt.Fprintf(&b, "%-10s %8d %14s %10d %15d %10d\n",
			row.Strategy, row.Updates, row.Total.Round(time.Millisecond), row.Refreshes, row.TopicRefreshes, row.StaleLeft)
	}
	return b.String()
}

// DistribResult reports the partitioned-deployment experiment (the
// paper's second future-work direction) on the serving tier cmd/trshard
// runs, under its id mod P ownership: the partial-response bytes one
// query ships to the router and how evenly the shards share the scoring.
type DistribResult struct {
	Parts   int
	Queries int
	// BytesPerQuery is the encoded partial responses of all shards
	// (distrib.EncodePartial), averaged over the sampled queries.
	BytesPerQuery float64
	// MaxShardShare is the largest shard's share of all partial entries
	// (ideal 1/Parts): a gather waits for its most loaded shard.
	MaxShardShare float64
}

// ExtDistrib runs the shard tier in process: one distrib.Shard per
// partition, every sampled query answered by the shards' partials and
// distrib.Merge. It fails unless every merged ranking equals the
// single-process landmark.Approx one.
func (r *Runner) ExtDistrib() (*DistribResult, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	eng, err := r.engineFor(tw)
	if err != nil {
		return nil, err
	}
	lms, err := landmark.Select(tw.Graph, landmark.InDeg, r.cfg.Landmarks/2+1, landmark.DefaultSelectConfig())
	if err != nil {
		return nil, err
	}
	store, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: 200})
	ap, err := landmark.NewApprox(eng, store, r.cfg.ApproxDepth)
	if err != nil {
		return nil, err
	}

	const parts = 8
	assign := distrib.HashPartition(tw.Graph, parts)
	shards := make([]*distrib.Shard, parts)
	for p := range shards {
		sub := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == p })
		if shards[p], err = distrib.NewShard(eng, sub, assign, p, lms, r.cfg.ApproxDepth); err != nil {
			return nil, err
		}
	}
	partials := make([][]distrib.PartialEntry, parts)
	entries := make([]int, parts)
	bytes, total, queries := 0, 0, 0
	for u := 0; u < tw.Graph.NumNodes() && queries < r.cfg.QueryNodes; u += 97 {
		uid := graph.NodeID(u)
		if tw.Graph.OutDegree(uid) < 3 {
			continue
		}
		t := topics.ID(u % tw.Vocabulary().Len())
		for p, sh := range shards {
			partials[p] = sh.PartialAppend(uid, t, partials[p])
			entries[p] += len(partials[p])
			total += len(partials[p])
			bytes += len(distrib.EncodePartial(&distrib.PartialResponse{Shard: p, Parts: parts, Entries: partials[p]}))
		}
		got, want := distrib.Merge(partials, uid, 100), ap.Recommend(uid, t, 100)
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("ext-distrib: merge for user %d topic %d differs from the single-process ranking", u, t)
		}
		queries++
	}
	if queries == 0 {
		return nil, fmt.Errorf("ext-distrib: no query nodes")
	}
	return &DistribResult{
		Parts:         parts,
		Queries:       queries,
		BytesPerQuery: float64(bytes) / float64(queries),
		MaxShardShare: float64(slices.Max(entries)) / float64(max(1, total)),
	}, nil
}

// String renders the shard tier's bill.
func (d *DistribResult) String() string {
	return fmt.Sprintf("partitions: %d (id mod P), queries: %d (merged rankings equal the single-process ones)\n"+
		"bytes/query: %.0f, largest shard: %.1f%% of the partial entries (ideal %.1f%%)\n",
		d.Parts, d.Queries, d.BytesPerQuery, d.MaxShardShare*100, 100/float64(d.Parts))
}
