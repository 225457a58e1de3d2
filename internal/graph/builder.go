package graph

import (
	"fmt"
	"sort"

	"repro/internal/topics"
)

// Builder accumulates nodes and edges and freezes them into a Graph.
// Builders are not safe for concurrent use.
type Builder struct {
	vocab      *topics.Vocabulary
	nodeTopics []topics.Set
	edges      []Edge
}

// NewBuilder creates a builder for a graph with n nodes over the given
// vocabulary. Nodes can be added later with AddNodes.
func NewBuilder(vocab *topics.Vocabulary, n int) *Builder {
	return &Builder{
		vocab:      vocab,
		nodeTopics: make([]topics.Set, n),
	}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return len(b.nodeTopics) }

// NumEdges returns the number of edges added so far (before duplicate
// merging).
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddNodes appends k fresh nodes and returns the id of the first one.
func (b *Builder) AddNodes(k int) NodeID {
	first := NodeID(len(b.nodeTopics))
	b.nodeTopics = append(b.nodeTopics, make([]topics.Set, k)...)
	return first
}

// SetNodeTopics sets labelN(u), the topics u publishes on.
func (b *Builder) SetNodeTopics(u NodeID, s topics.Set) {
	b.nodeTopics[u] = s
}

// NodeTopics returns the current labelN(u).
func (b *Builder) NodeTopics(u NodeID) topics.Set { return b.nodeTopics[u] }

// AddEdge records that u follows v with the given interest label.
// Self-loops are rejected. Duplicate (u,v) edges are merged at Freeze time
// by unioning their labels.
func (b *Builder) AddEdge(u, v NodeID, label topics.Set) {
	if u == v {
		return // a user cannot follow himself; ignore silently
	}
	b.edges = append(b.edges, Edge{Src: u, Dst: v, Label: label})
}

// Clone returns a deep copy of the builder.
func (b *Builder) Clone() *Builder {
	nb := &Builder{
		vocab:      b.vocab,
		nodeTopics: append([]topics.Set(nil), b.nodeTopics...),
		edges:      append([]Edge(nil), b.edges...),
	}
	return nb
}

// Freeze sorts, deduplicates and packs the edges into an immutable Graph.
// The builder remains usable afterwards.
func (b *Builder) Freeze() (*Graph, error) {
	n := len(b.nodeTopics)
	if n == 0 {
		return nil, fmt.Errorf("graph: cannot freeze empty graph")
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("graph: %d nodes exceeds NodeID capacity", n)
	}
	for _, e := range b.edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references node beyond %d", e.Src, e.Dst, n-1)
		}
	}

	edges := append([]Edge(nil), b.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	// Merge duplicates by unioning labels.
	dedup := edges[:0]
	for _, e := range edges {
		if k := len(dedup); k > 0 && dedup[k-1].Src == e.Src && dedup[k-1].Dst == e.Dst {
			dedup[k-1].Label = dedup[k-1].Label.Union(e.Label)
			continue
		}
		dedup = append(dedup, e)
	}
	edges = dedup

	g := &Graph{
		vocab:      b.vocab,
		nodeTopics: append([]topics.Set(nil), b.nodeTopics...),
		outStart:   make([]uint32, n+1),
		outDst:     make([]NodeID, len(edges)),
		outLbl:     make([]topics.Set, len(edges)),
		inStart:    make([]uint32, n+1),
		inSrc:      make([]NodeID, len(edges)),
		inLbl:      make([]topics.Set, len(edges)),
	}

	// Out-adjacency: edges are already sorted by (src, dst).
	for _, e := range edges {
		g.outStart[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		g.outStart[i+1] += g.outStart[i]
	}
	for i, e := range edges {
		g.outDst[i] = e.Dst
		g.outLbl[i] = e.Label
	}

	// In-adjacency: counting sort by dst keeps srcs ascending per dst
	// because we scan edges in (src, dst) order.
	for _, e := range edges {
		g.inStart[e.Dst+1]++
	}
	for i := 0; i < n; i++ {
		g.inStart[i+1] += g.inStart[i]
	}
	next := make([]uint32, n)
	copy(next, g.inStart[:n])
	for _, e := range edges {
		p := next[e.Dst]
		g.inSrc[p] = e.Src
		g.inLbl[p] = e.Label
		next[e.Dst] = p + 1
	}
	return g, nil
}

// MustFreeze is Freeze that panics on error, for tests and fixed fixtures.
func (b *Builder) MustFreeze() *Graph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}
