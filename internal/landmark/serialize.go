package landmark

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// Binary store format (little-endian):
//
//	magic  uint32 = 0x4c4d4b32 ("LMK2")
//	vocabLen, topN, numLandmarks  uint32
//	reserved  uint64               written as 0, ignored on read
//	per landmark:
//	    id, iterations  uint32
//	    vocabLen topical lists, then the topo list, each:
//	        length uint32, then length × (node uint32, sigma float64, topo float64)
//
// The reserved slot once held a layout generation; stores written with a
// nonzero one still load, and the value is dropped.

const storeMagic = 0x4c4d4b32

// WriteTo serializes the store.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	// The counter wraps w itself, under the buffer, so the returned int64
	// is bytes actually flushed — the io.WriterTo contract.
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	put32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	put64 := func(v float64) error { return binary.Write(bw, binary.LittleEndian, math.Float64bits(v)) }

	for _, v := range []uint32{storeMagic, uint32(s.vocabLen), uint32(s.topN), uint32(len(s.order))} {
		if err := put32(v); err != nil {
			return cw.n, err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(0)); err != nil {
		return cw.n, err
	}
	writeList := func(l *List) error {
		if err := put32(uint32(l.Len())); err != nil {
			return err
		}
		for i := range l.Nodes {
			if err := put32(uint32(l.Nodes[i])); err != nil {
				return err
			}
			if err := put64(l.Sigma[i]); err != nil {
				return err
			}
			if err := put64(l.Topo[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, lm := range s.order {
		d := s.data[lm]
		if err := put32(uint32(d.Landmark)); err != nil {
			return cw.n, err
		}
		if err := put32(uint32(d.Iterations)); err != nil {
			return cw.n, err
		}
		for i := range d.Topical {
			if err := writeList(&d.Topical[i]); err != nil {
				return cw.n, err
			}
		}
		if err := writeList(&d.TopoTop); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadStore deserializes a store written by WriteTo, validating structure
// and list ordering.
func ReadStore(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	get32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	get64 := func() (float64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return math.Float64frombits(v), err
	}
	magic, err := get32()
	if err != nil {
		return nil, fmt.Errorf("landmark: reading magic: %w", err)
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("landmark: bad magic %#x", magic)
	}
	vocabLen, err := get32()
	if err != nil {
		return nil, err
	}
	topN, err := get32()
	if err != nil {
		return nil, err
	}
	numLm, err := get32()
	if err != nil {
		return nil, err
	}
	if _, err := br.Discard(8); err != nil { // the reserved slot
		return nil, fmt.Errorf("landmark: reading header: %w", err)
	}
	if vocabLen == 0 || vocabLen > 1024 {
		return nil, fmt.Errorf("landmark: implausible vocabulary size %d", vocabLen)
	}
	s := NewStore(int(vocabLen), int(topN))
	readList := func() (List, error) {
		var l List
		ln, err := get32()
		if err != nil {
			return l, err
		}
		if int(ln) > int(topN) {
			return l, fmt.Errorf("landmark: list length %d exceeds topN %d", ln, topN)
		}
		for i := uint32(0); i < ln; i++ {
			node, err := get32()
			if err != nil {
				return l, err
			}
			sigma, err := get64()
			if err != nil {
				return l, err
			}
			topo, err := get64()
			if err != nil {
				return l, err
			}
			l.append1(graph.NodeID(node), sigma, topo)
		}
		return l, nil
	}
	for i := uint32(0); i < numLm; i++ {
		id, err := get32()
		if err != nil {
			return nil, fmt.Errorf("landmark: reading landmark %d: %w", i, err)
		}
		iters, err := get32()
		if err != nil {
			return nil, err
		}
		d := &Data{Landmark: graph.NodeID(id), Topical: make([]List, vocabLen), Iterations: int(iters)}
		for t := uint32(0); t < vocabLen; t++ {
			l, err := readList()
			if err != nil {
				return nil, fmt.Errorf("landmark: reading list %d of landmark %d: %w", t, id, err)
			}
			if !checkSorted(l) {
				return nil, fmt.Errorf("landmark: topical list %d of landmark %d not ranked", t, id)
			}
			d.Topical[t] = l
		}
		topoTop, err := readList()
		if err != nil {
			return nil, err
		}
		d.TopoTop = topoTop
		if err := s.Put(d); err != nil {
			return nil, err
		}
	}
	return s, nil
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
