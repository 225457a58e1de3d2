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

func bfs(g View, src NodeID, maxDepth int, visit Visit, adj func(NodeID) ([]NodeID, []topics.Set)) {
	seen := make(map[NodeID]bool, 64)
	seen[src] = true
	if !visit(src, 0) {
		return
	}
	frontier := []NodeID{src}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []NodeID
		for _, u := range frontier {
			nbrs, _ := adj(u)
			for _, v := range nbrs {
				if seen[v] {
					continue
				}
				seen[v] = true
				if !visit(v, depth) {
					return
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
}
