package graph

import (
	"fmt"
	"slices"

	"repro/internal/topics"
)

// CSRData is the raw frozen adjacency of a Graph: the exact arrays Freeze
// packs, exposed so a storage layer can persist them verbatim and hand
// them back without a rebuild. All slices are views — the out-edges of u
// are OutDst[OutStart[u]:OutStart[u+1]] with parallel labels, likewise
// for the in-adjacency — and must satisfy the same invariants Freeze
// establishes (rows sorted ascending, duplicates merged, no self-loops).
type CSRData struct {
	OutStart   []uint32 // len n+1
	OutDst     []NodeID // len m
	OutLbl     []topics.Set
	InStart    []uint32 // len n+1
	InSrc      []NodeID // len m
	InLbl      []topics.Set
	NodeTopics []topics.Set // len n
}

// CSR exposes the graph's frozen adjacency arrays. The slices alias
// internal storage and must not be modified; they stay valid for the
// lifetime of the graph.
func (g *Graph) CSR() CSRData {
	return CSRData{
		OutStart:   g.outStart,
		OutDst:     g.outDst,
		OutLbl:     g.outLbl,
		InStart:    g.inStart,
		InSrc:      g.inSrc,
		InLbl:      g.inLbl,
		NodeTopics: g.nodeTopics,
	}
}

// NewFromCSR wraps pre-packed CSR arrays — typically slices backed by a
// memory-mapped snapshot — as a frozen Graph without copying them. This
// is the zero-copy twin of Builder.Freeze: the arrays are adopted, not
// rebuilt, so opening a paper-scale graph costs validation only.
//
// The structural invariants (array lengths, monotone row starts) are
// always checked; they are O(n) and touch only the start arrays. When
// checkEdges is set the O(m log d) content invariants are verified too:
// every endpoint in range, rows strictly ascending, the in-rows the
// transpose of the out-rows, and every node and edge label drawn from
// the vocabulary. Callers that already trust the bytes
// (e.g. a checksummed snapshot) may skip the edge scan to keep cold-start
// time independent of the edge count.
func NewFromCSR(vocab *topics.Vocabulary, d CSRData, checkEdges bool) (*Graph, error) {
	if vocab == nil {
		return nil, fmt.Errorf("graph: nil vocabulary")
	}
	n := len(d.NodeTopics)
	if n == 0 {
		return nil, fmt.Errorf("graph: empty CSR")
	}
	m := len(d.OutDst)
	if len(d.OutStart) != n+1 || len(d.InStart) != n+1 {
		return nil, fmt.Errorf("graph: CSR start arrays sized %d/%d, want %d",
			len(d.OutStart), len(d.InStart), n+1)
	}
	if len(d.OutLbl) != m || len(d.InSrc) != m || len(d.InLbl) != m {
		return nil, fmt.Errorf("graph: CSR edge arrays sized %d/%d/%d, want %d",
			len(d.OutLbl), len(d.InSrc), len(d.InLbl), m)
	}
	if err := checkStarts("out", d.OutStart, m); err != nil {
		return nil, err
	}
	if err := checkStarts("in", d.InStart, m); err != nil {
		return nil, err
	}
	g := &Graph{
		vocab:      vocab,
		outStart:   d.OutStart,
		outDst:     d.OutDst,
		outLbl:     d.OutLbl,
		inStart:    d.InStart,
		inSrc:      d.InSrc,
		inLbl:      d.InLbl,
		nodeTopics: d.NodeTopics,
	}
	if checkEdges {
		if err := g.checkEdgeInvariants(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// checkStarts validates one CSR row-offset array: first 0, last m,
// nondecreasing throughout.
func checkStarts(side string, starts []uint32, m int) error {
	if starts[0] != 0 {
		return fmt.Errorf("graph: %s-start[0] = %d, want 0", side, starts[0])
	}
	if int(starts[len(starts)-1]) != m {
		return fmt.Errorf("graph: %s-start[n] = %d, want edge count %d", side, starts[len(starts)-1], m)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return fmt.Errorf("graph: %s-start decreases at node %d", side, i)
		}
	}
	return nil
}

// checkEdgeInvariants runs the O(m log d) content validation of
// NewFromCSR.
func (g *Graph) checkEdgeInvariants() error {
	n := NodeID(g.NumNodes())
	valid := topics.Set(1)<<uint(g.vocab.Len()) - 1
	for u, s := range g.nodeTopics {
		if s&^valid != 0 {
			return fmt.Errorf("graph: node %d labeled with out-of-vocabulary topics", u)
		}
	}
	for u := NodeID(0); u < n; u++ {
		dst, lbl := g.Out(u)
		for i, v := range dst {
			if v >= n {
				return fmt.Errorf("graph: out-edge of %d references node %d beyond %d", u, v, n-1)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if i > 0 && dst[i-1] >= v {
				return fmt.Errorf("graph: out-row of %d not strictly ascending", u)
			}
			if lbl[i]&^valid != 0 {
				return fmt.Errorf("graph: edge (%d,%d) labeled with out-of-vocabulary topics", u, v)
			}
			// The in-rows must be the transpose of the out-rows: each
			// out-edge has its twin, same label, in the ascending in-row
			// of v. Rows are duplicate-free and both sides hold m edges,
			// so the twins cover every in-entry.
			src, slbl := g.In(v)
			j, found := slices.BinarySearch(src, u)
			if !found || slbl[j] != lbl[i] {
				return fmt.Errorf("graph: out-edge (%d,%d) has no matching in-edge", u, v)
			}
		}
		src, slbl := g.In(u)
		for i, v := range src {
			if v >= n {
				return fmt.Errorf("graph: in-edge of %d references node %d beyond %d", u, v, n-1)
			}
			if i > 0 && src[i-1] >= v {
				return fmt.Errorf("graph: in-row of %d not strictly ascending", u)
			}
			if slbl[i]&^valid != 0 {
				return fmt.Errorf("graph: in-edge (%d,%d) labeled with out-of-vocabulary topics", v, u)
			}
		}
	}
	return nil
}
