package graph

import "repro/internal/topics"

// Visit is called for each node reached by a traversal, with the hop count
// at which the node was first reached. Returning false stops the traversal.
type Visit func(u NodeID, depth int) bool

// BFSOut runs a breadth-first traversal from src following follow edges
// (out-adjacency) up to maxDepth hops. src itself is visited at depth 0.
func BFSOut(g View, src NodeID, maxDepth int, visit Visit) {
	bfs(g, src, maxDepth, visit, g.Out)
}

// BFSIn runs a breadth-first traversal from src against follow edges
// (in-adjacency: toward followers) up to maxDepth hops.
func BFSIn(g View, src NodeID, maxDepth int, visit Visit) {
	bfs(g, src, maxDepth, visit, g.In)
}

// bfs visits level by level from one queue: level d is the slice of the
// queue its predecessor appended, so nodes are visited in the order a
// per-level frontier would give. Visited nodes are bits of a bitset over
// the view's node ids, one allocation of NumNodes()/8 bytes per call.
func bfs(g View, src NodeID, maxDepth int, visit Visit, adj func(NodeID) ([]NodeID, []topics.Set)) {
	seen := make([]uint64, (g.NumNodes()+63)/64)
	seen[src/64] |= 1 << (src % 64)
	if !visit(src, 0) {
		return
	}
	queue := []NodeID{src}
	for depth, lo := 1, 0; depth <= maxDepth && lo < len(queue); depth++ {
		hi := len(queue)
		for _, u := range queue[lo:hi] {
			nbrs, _ := adj(u)
			for _, v := range nbrs {
				w, bit := v/64, uint64(1)<<(v%64)
				if seen[w]&bit != 0 {
					continue
				}
				seen[w] |= bit
				if !visit(v, depth) {
					return
				}
				queue = append(queue, v)
			}
		}
		lo = hi
	}
}
