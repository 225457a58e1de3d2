// Package distrib implements the paper's second future-work direction
// (Section 6): distributing the recommendation computation. The paper
// suggests splitting the graph by connectivity to minimize network
// transfer; this tier replicates the topology on every worker and splits
// only the candidates, so no score mass crosses a shard during a query
// and the split decides load balance, not traffic. Ownership is node id
// mod P (HashPartition), a function of the shard count alone.
//
// The package provides
//
//   - the node assignment (Assignment, HashPartition);
//   - the serving tier's worker (Shard, partial.go): each partition
//     scores its own candidates after a locally replicated exploration,
//     and Merge gathers the disjoint partials;
//   - the shard RPC (shardserve.go) and its binary partial frame
//     (wire.go), which cmd/trshard serves and the trserver router calls.
//
// The merged partials equal the single-machine landmark approximation
// (landmark.Approx) bit for bit — tests assert equality — so the only
// thing distribution changes is where the work and the bytes go.
package distrib

import (
	"fmt"

	"repro/internal/graph"
)

// Assignment maps every node to a partition in [0, P).
type Assignment struct {
	Of    []int // Of[node] = partition
	Parts int
}

// Validate checks the assignment covers the graph.
func (a Assignment) Validate(g graph.View) error {
	if len(a.Of) != g.NumNodes() {
		return fmt.Errorf("distrib: assignment covers %d nodes, graph has %d", len(a.Of), g.NumNodes())
	}
	for u, p := range a.Of {
		if p < 0 || p >= a.Parts {
			return fmt.Errorf("distrib: node %d assigned to partition %d of %d", u, p, a.Parts)
		}
	}
	return nil
}

// Sizes returns the node count per partition.
func (a Assignment) Sizes() []int {
	out := make([]int, a.Parts)
	for _, p := range a.Of {
		out[p]++
	}
	return out
}

// HashPartition assigns node u to partition u mod parts: every worker
// derives the same ownership from the shard count alone, and each
// partition gets n/parts nodes to within one.
func HashPartition(g graph.View, parts int) Assignment {
	a := Assignment{Of: make([]int, g.NumNodes()), Parts: parts}
	for u := range a.Of {
		a.Of[u] = u % parts
	}
	return a
}
