package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/topics"
)

// Binary graph format (little-endian):
//
//	magic   uint32 = 0x54524731 ("TRG1")
//	numTopics uint32, then per topic: nameLen uint16 + name bytes
//	numNodes uint32, then per node: topics uint32 (labelN bitmask)
//	numEdges uint64, then per edge: src uint32, dst uint32, label uint32
//
// Edges are written in (src, dst) order, which ReadGraph verifies, so a
// stored graph reloads into the identical CSR layout.

const graphMagic = 0x54524731

// WriteTo serializes the graph, including its vocabulary, so a dataset
// can be generated once and reloaded by every tool.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	// The counter sits below the buffer so the returned int64 is bytes
	// actually delivered to w, per the io.WriterTo contract — not bytes
	// parked in bufio that a failed Flush would silently drop.
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	le := binary.LittleEndian
	put32 := func(v uint32) error { return binary.Write(bw, le, v) }

	if err := put32(graphMagic); err != nil {
		return cw.n, err
	}
	names := g.vocab.Names()
	if err := put32(uint32(len(names))); err != nil {
		return cw.n, err
	}
	for _, n := range names {
		if len(n) > 0xFFFF {
			return cw.n, fmt.Errorf("graph: topic name too long")
		}
		if err := binary.Write(bw, le, uint16(len(n))); err != nil {
			return cw.n, err
		}
		if _, err := bw.WriteString(n); err != nil {
			return cw.n, err
		}
	}
	if err := put32(uint32(g.NumNodes())); err != nil {
		return cw.n, err
	}
	for _, s := range g.nodeTopics {
		if err := put32(uint32(s)); err != nil {
			return cw.n, err
		}
	}
	if err := binary.Write(bw, le, uint64(g.NumEdges())); err != nil {
		return cw.n, err
	}
	for u := 0; u < g.NumNodes(); u++ {
		dst, lbl := g.Out(NodeID(u))
		for i, v := range dst {
			if err := put32(uint32(u)); err != nil {
				return cw.n, err
			}
			if err := put32(uint32(v)); err != nil {
				return cw.n, err
			}
			if err := put32(uint32(lbl[i])); err != nil {
				return cw.n, err
			}
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadGraph deserializes a graph written by WriteTo, validating the
// header, the edge ordering and every node reference.
func ReadGraph(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	get32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, le, &v)
		return v, err
	}
	magic, err := get32()
	if err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != graphMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	nTopics, err := get32()
	if err != nil {
		return nil, err
	}
	if nTopics == 0 || nTopics > topics.MaxTopics {
		return nil, fmt.Errorf("graph: implausible topic count %d", nTopics)
	}
	names := make([]string, nTopics)
	for i := range names {
		var ln uint16
		if err := binary.Read(br, le, &ln); err != nil {
			return nil, err
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		names[i] = string(buf)
	}
	vocab, err := topics.NewVocabulary(names)
	if err != nil {
		return nil, fmt.Errorf("graph: stored vocabulary invalid: %w", err)
	}
	nNodes, err := get32()
	if err != nil {
		return nil, err
	}
	if nNodes == 0 {
		return nil, fmt.Errorf("graph: stored graph has no nodes")
	}
	// Read node labels before sizing the builder so a forged header
	// cannot force a giant allocation: the data must actually be there.
	validTopics := topics.Set(1<<nTopics - 1)
	nodeTopics := make([]topics.Set, 0, min32(nNodes, 1<<16))
	for u := uint32(0); u < nNodes; u++ {
		s, err := get32()
		if err != nil {
			return nil, fmt.Errorf("graph: reading node %d label: %w", u, err)
		}
		if topics.Set(s)&^validTopics != 0 {
			return nil, fmt.Errorf("graph: node %d labeled with out-of-vocabulary topics", u)
		}
		nodeTopics = append(nodeTopics, topics.Set(s))
	}
	b := NewBuilder(vocab, int(nNodes))
	for u, s := range nodeTopics {
		b.SetNodeTopics(NodeID(u), s)
	}
	var nEdges uint64
	if err := binary.Read(br, le, &nEdges); err != nil {
		return nil, err
	}
	var prevSrc, prevDst uint32
	first := true
	for i := uint64(0); i < nEdges; i++ {
		src, err := get32()
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		dst, err := get32()
		if err != nil {
			return nil, err
		}
		lbl, err := get32()
		if err != nil {
			return nil, err
		}
		if src >= nNodes || dst >= nNodes {
			return nil, fmt.Errorf("graph: edge %d references node beyond %d", i, nNodes-1)
		}
		if topics.Set(lbl)&^validTopics != 0 {
			return nil, fmt.Errorf("graph: edge %d labeled with out-of-vocabulary topics", i)
		}
		if !first && (src < prevSrc || (src == prevSrc && dst <= prevDst)) {
			return nil, fmt.Errorf("graph: edges out of order at %d", i)
		}
		first = false
		prevSrc, prevDst = src, dst
		b.AddEdge(NodeID(src), NodeID(dst), topics.Set(lbl))
	}
	return b.Freeze()
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
