// Package distrib implements the paper's second future-work direction
// (Section 6): distributing the recommendation computation. "Distribution
// implies to split the graph by taking into account connectivity, but
// also to perform landmark selections and distributions that allow a node
// to evaluate the recommendation scores 'locally', minimizing network
// transfer costs."
//
// The package provides
//
//   - graph partitioning: a hash baseline and a connectivity-aware
//     partitioner (balanced multi-seed BFS growth) with cut-edge
//     accounting;
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
	"math/rand/v2"

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

// CutEdges counts edges whose endpoints live on different partitions —
// the quantity a connectivity-aware partitioner minimizes.
func CutEdges(g graph.View, a Assignment) int {
	cut := 0
	for u := 0; u < g.NumNodes(); u++ {
		dsts, _ := g.Out(graph.NodeID(u))
		pu := a.Of[u]
		for _, v := range dsts {
			if a.Of[v] != pu {
				cut++
			}
		}
	}
	return cut
}

// HashPartition assigns nodes round-robin by id: the connectivity-blind
// baseline.
func HashPartition(g graph.View, parts int) Assignment {
	a := Assignment{Of: make([]int, g.NumNodes()), Parts: parts}
	for u := range a.Of {
		a.Of[u] = u % parts
	}
	return a
}

// ConnectivityPartition grows balanced partitions from spread-out seeds by
// synchronized BFS waves: each wave, every partition claims the unassigned
// out- and in-neighbors of its frontier (capped to keep sizes balanced),
// so densely connected regions end up co-located. Unreached nodes are
// assigned round-robin at the end.
func ConnectivityPartition(g graph.View, parts int, seed uint64) Assignment {
	n := g.NumNodes()
	a := Assignment{Of: make([]int, n), Parts: parts}
	for u := range a.Of {
		a.Of[u] = -1
	}
	r := rand.New(rand.NewPCG(seed, 0xd15727b))
	cap := n/parts + n/(parts*4) + 1

	// Seeds: random distinct nodes, preferring high out-degree so growth
	// has room.
	frontiers := make([][]graph.NodeID, parts)
	sizes := make([]int, parts)
	used := map[graph.NodeID]bool{}
	for p := 0; p < parts; p++ {
		var s graph.NodeID
		for tries := 0; tries < 100; tries++ {
			s = graph.NodeID(r.IntN(n))
			if !used[s] && g.OutDegree(s) > 0 {
				break
			}
		}
		for used[s] {
			s = graph.NodeID(r.IntN(n))
		}
		used[s] = true
		a.Of[s] = p
		sizes[p] = 1
		frontiers[p] = []graph.NodeID{s}
	}

	active := parts
	for active > 0 {
		active = 0
		for p := 0; p < parts; p++ {
			if len(frontiers[p]) == 0 || sizes[p] >= cap {
				frontiers[p] = nil
				continue
			}
			var next []graph.NodeID
			for _, u := range frontiers[p] {
				claim := func(v graph.NodeID) {
					if sizes[p] < cap && a.Of[v] == -1 {
						a.Of[v] = p
						sizes[p]++
						next = append(next, v)
					}
				}
				dsts, _ := g.Out(u)
				for _, v := range dsts {
					claim(v)
				}
				srcs, _ := g.In(u)
				for _, v := range srcs {
					claim(v)
				}
			}
			frontiers[p] = next
			if len(next) > 0 {
				active++
			}
		}
	}

	// Leftovers (disconnected or capped-out regions): smallest partition
	// first.
	for u := range a.Of {
		if a.Of[u] == -1 {
			best := 0
			for p := 1; p < parts; p++ {
				if sizes[p] < sizes[best] {
					best = p
				}
			}
			a.Of[u] = best
			sizes[best]++
		}
	}
	return a
}
