package dynamic

import (
	"slices"

	"repro/internal/graph"
)

// invalidation is affectedLandmarks' reusable scratch: flat arrays sized
// once (the node set never grows), so a pass allocates nothing but its
// result and clears nothing — seen[v] == gen marks v as reached by the
// current pass, and bumping gen forgets the previous one.
type invalidation struct {
	seen           []uint32
	gen            uint32
	frontier, next []graph.NodeID
}

// affectedLandmarks finds the landmarks that reach an endpoint of any
// changed edge within the deepest recorded exploration depth: the source
// because the landmark's path scores include the edge, the target because
// its authority row changed with its follower counts. One
// level-synchronous reverse BFS runs from all of the batch's distinct
// endpoints at once — a node lies within maxIter hops of some endpoint
// iff it lies in the union of the per-endpoint balls — and stops at the
// edge where the last landmark is found. The result is sorted by node id.
// Caller holds mu.
func (m *Manager) affectedLandmarks(batch []Update) []graph.NodeID {
	inv := &m.inv
	inv.gen++
	if inv.gen == 0 {
		// Wrapped: stamps left 2^32 passes ago would read as current.
		clear(inv.seen)
		inv.gen = 1
	}
	seen, gen := inv.seen, inv.gen
	var hit []graph.NodeID
	frontier, next := inv.frontier[:0], inv.next[:0]
	for _, up := range batch {
		for _, v := range [2]graph.NodeID{up.Edge.Src, up.Edge.Dst} {
			if seen[v] == gen {
				continue
			}
			seen[v] = gen
			frontier = append(frontier, v)
			if m.isLandmark[v] {
				hit = append(hit, v)
			}
		}
	}
	visited := len(frontier)
sweep:
	for depth := 1; depth <= m.maxIter && len(frontier) > 0 && len(hit) < len(m.lms); depth++ {
		next = next[:0]
		for _, u := range frontier {
			nbrs, _ := m.view.In(u)
			for _, v := range nbrs {
				if seen[v] == gen {
					continue
				}
				seen[v] = gen
				visited++
				if m.isLandmark[v] {
					if hit = append(hit, v); len(hit) == len(m.lms) {
						break sweep
					}
				}
				next = append(next, v)
			}
		}
		frontier, next = next, frontier
	}
	inv.frontier, inv.next = frontier, next // keep the grown capacity
	m.stats.InvalidationVisited += visited
	slices.Sort(hit)
	return hit
}
