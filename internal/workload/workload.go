// Package workload generates recommendation query streams. The paper
// motivates the landmark approximation with the volume of searches
// micro-blogging systems face (24 billion/month on Twitter in 2012); the
// whole-stack benchmark (bench/) and the serving tests replay these
// streams against the real stack.
//
// Queries follow the realistic skew of such systems: users are drawn
// uniformly among sufficiently active accounts, topics by their biased
// popularity (the Figure 3 distribution), so popular topics dominate the
// stream exactly as they dominate real search traffic.
package workload

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/topics"
)

// Query is one recommendation request.
type Query struct {
	User  graph.NodeID
	Topic topics.ID
	TopN  int
}

// Config shapes the query stream.
type Config struct {
	// Queries is the stream length.
	Queries int
	// TopN requested per query.
	TopN int
	// MinOutDegree filters query users to active accounts.
	MinOutDegree int
	// TopicBias is the Zipf exponent over topics (0 = uniform).
	TopicBias float64
	// Seed drives the stream.
	Seed uint64
}

// DefaultConfig returns a modest stream.
func DefaultConfig() Config {
	return Config{Queries: 200, TopN: 10, MinOutDegree: 3, TopicBias: 1.2, Seed: 1}
}

// Generate materializes the query stream for a graph.
func Generate(g graph.View, cfg Config) ([]Query, error) {
	r := rand.New(rand.NewPCG(cfg.Seed, 0x10ad))
	var pool []graph.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(graph.NodeID(u)) >= cfg.MinOutDegree {
			pool = append(pool, graph.NodeID(u))
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("workload: no users with out-degree >= %d", cfg.MinOutDegree)
	}
	weights := topics.Popularity(g.Vocabulary(), cfg.TopicBias)
	if cfg.TopicBias == 0 {
		for i := range weights {
			weights[i] = 1 / float64(len(weights))
		}
	}
	out := make([]Query, cfg.Queries)
	for i := range out {
		out[i] = Query{
			User:  pool[r.IntN(len(pool))],
			Topic: drawTopic(r, weights),
			TopN:  cfg.TopN,
		}
	}
	return out, nil
}

func drawTopic(r *rand.Rand, weights []float64) topics.ID {
	x := r.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return topics.ID(i)
		}
	}
	return topics.ID(len(weights) - 1)
}
