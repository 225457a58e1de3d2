package topics

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Taxonomy is a rooted tree over category nodes. Every topic of a
// vocabulary is attached to exactly one node (usually a leaf). Semantic
// similarity between two topics is the Wu-Palmer measure on this tree:
//
//	sim(a, b) = 2·depth(lcs(a,b)) / (depth(a) + depth(b))
//
// where depth counts nodes from the root (the root has depth 1) and lcs is
// the least common subsumer. sim(t, t) = 1 for every topic, and sim is in
// (0, 1] because every pair shares at least the root.
type Taxonomy struct {
	vocab  *Vocabulary
	names  []string // node names; node 0 is the root
	parent []int    // parent[i] is the parent node of node i; parent[0] = -1
	depth  []int    // depth[i] counted from the root, root = 1
	ofTop  []int    // ofTop[t] is the node carrying topic t
}

// TaxonomyBuilder assembles a Taxonomy incrementally.
type TaxonomyBuilder struct {
	vocab  *Vocabulary
	names  []string
	parent []int
	byName map[string]int
	ofTop  []int
}

// NewTaxonomyBuilder starts a taxonomy for the given vocabulary with a
// root node named "root".
func NewTaxonomyBuilder(vocab *Vocabulary) *TaxonomyBuilder {
	b := &TaxonomyBuilder{
		vocab:  vocab,
		names:  []string{"root"},
		parent: []int{-1},
		byName: map[string]int{"root": 0},
		ofTop:  make([]int, vocab.Len()),
	}
	for i := range b.ofTop {
		b.ofTop[i] = -1
	}
	return b
}

// Category adds an internal category node under the named parent and
// returns the builder for chaining. Parent must already exist.
func (b *TaxonomyBuilder) Category(name, parent string) *TaxonomyBuilder {
	b.addNode(name, parent)
	return b
}

// Topic attaches the named vocabulary topic as a node under parent.
func (b *TaxonomyBuilder) Topic(topicName, parent string) *TaxonomyBuilder {
	id, ok := b.vocab.Lookup(topicName)
	if !ok {
		panic(fmt.Sprintf("topics: taxonomy references unknown topic %q", topicName))
	}
	n := b.addNode(topicName, parent)
	b.ofTop[id] = n
	return b
}

func (b *TaxonomyBuilder) addNode(name, parent string) int {
	if _, dup := b.byName[name]; dup {
		panic(fmt.Sprintf("topics: duplicate taxonomy node %q", name))
	}
	p, ok := b.byName[parent]
	if !ok {
		panic(fmt.Sprintf("topics: unknown parent node %q for %q", parent, name))
	}
	n := len(b.names)
	b.names = append(b.names, name)
	b.parent = append(b.parent, p)
	b.byName[name] = n
	return n
}

// Build finalizes the taxonomy. Every vocabulary topic must have been
// attached.
func (b *TaxonomyBuilder) Build() (*Taxonomy, error) {
	for t, n := range b.ofTop {
		if n < 0 {
			return nil, fmt.Errorf("topics: topic %q not placed in taxonomy", b.vocab.Name(ID(t)))
		}
	}
	t := &Taxonomy{
		vocab:  b.vocab,
		names:  b.names,
		parent: b.parent,
		depth:  make([]int, len(b.names)),
		ofTop:  b.ofTop,
	}
	for i := range t.names {
		d := 0
		for n := i; n >= 0; n = t.parent[n] {
			d++
		}
		t.depth[i] = d
	}
	return t, nil
}

// MustBuild is Build that panics on error.
func (b *TaxonomyBuilder) MustBuild() *Taxonomy {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Vocabulary returns the vocabulary this taxonomy covers.
func (t *Taxonomy) Vocabulary() *Vocabulary { return t.vocab }

// Depth returns the tree depth of topic a (root = 1).
func (t *Taxonomy) Depth(a ID) int { return t.depth[t.ofTop[a]] }

// lcsDepth returns the depth of the least common subsumer of nodes x and y.
func (t *Taxonomy) lcsDepth(x, y int) int {
	for t.depth[x] > t.depth[y] {
		x = t.parent[x]
	}
	for t.depth[y] > t.depth[x] {
		y = t.parent[y]
	}
	for x != y {
		x = t.parent[x]
		y = t.parent[y]
	}
	return t.depth[x]
}

// WuPalmer returns the Wu-Palmer similarity between topics a and b.
func (t *Taxonomy) WuPalmer(a, b ID) float64 {
	x, y := t.ofTop[a], t.ofTop[b]
	return 2 * float64(t.lcsDepth(x, y)) / float64(t.depth[x]+t.depth[y])
}

// SimMatrix precomputes all pairwise Wu-Palmer similarities into a
// triangular matrix (the paper stores exactly this: a triangular similarity
// matrix kept in memory).
func (t *Taxonomy) SimMatrix() *SimMatrix {
	n := t.vocab.Len()
	m := NewSimMatrix(n)
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			m.Set(ID(a), ID(b), t.WuPalmer(ID(a), ID(b)))
		}
	}
	return m
}

// SimMatrix is a symmetric topic-similarity matrix with triangular storage.
// Beside the values it keeps a byte table that answers MaxSim one label
// byte at a time (ByteTable), built on first use after the last Set. A
// SimMatrix must not be Set while it is being read.
type SimMatrix struct {
	n     int
	vals  []float64 // row-major upper triangle including the diagonal
	mu    sync.Mutex
	table atomic.Pointer[ByteTable]
}

// NewSimMatrix allocates an n×n symmetric matrix initialized to zero.
func NewSimMatrix(n int) *SimMatrix {
	return &SimMatrix{n: n, vals: make([]float64, n*(n+1)/2)}
}

// Len returns the number of topics covered.
func (m *SimMatrix) Len() int { return m.n }

func (m *SimMatrix) idx(a, b ID) int {
	i, j := int(a), int(b)
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the packed upper triangle, then column j.
	return i*m.n - i*(i-1)/2 + (j - i)
}

// Set stores the similarity of (a, b); symmetric.
func (m *SimMatrix) Set(a, b ID, v float64) {
	m.vals[m.idx(a, b)] = v
	m.table.Store(nil)
}

// At returns the similarity of (a, b).
func (m *SimMatrix) At(a, b ID) float64 { return m.vals[m.idx(a, b)] }

// MaxSim returns the maximum similarity between topic t and any topic in
// set s, the per-edge semantic factor of Equation 3:
//
//	max_{t' ∈ labelE(e)} sim(t', t)
//
// It returns 0 for the empty set. ByteTable answers the same bit for bit.
func (m *SimMatrix) MaxSim(s Set, t ID) float64 {
	best := 0.0
	s.ForEach(func(x ID) {
		if v := m.At(x, t); v > best {
			best = v
		}
	})
	return best
}

// ByteTable returns the matrix's byte table, building it on first use.
func (m *SimMatrix) ByteTable() *ByteTable {
	if tb := m.table.Load(); tb != nil {
		return tb
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if tb := m.table.Load(); tb != nil {
		return tb
	}
	// MaxSim(·, t) only ever answers 0 or a stored positive sim(x, t):
	// those, ascending, are the values topic t's ranks stand for.
	tb := new(ByteTable)
	all := Set(1<<m.n - 1) // the vocabulary's bits (uint32 wraps at 32)
	for t := 0; t < m.n; t++ {
		vals := []float64{0}
		for x := 0; x < m.n; x++ {
			if v := m.At(ID(x), ID(t)); v > 0 {
				vals = append(vals, v)
			}
		}
		slices.Sort(vals)
		vals = slices.Compact(vals)
		copy(tb.vals[t][:], vals)
		for row := range tb.ranks {
			s := Set(row%256) << (8 * (row / 256)) & all
			r, _ := slices.BinarySearch(vals, m.MaxSim(s, ID(t)))
			tb.ranks[row][t] = uint8(r)
		}
	}
	m.table.Store(tb)
	return tb
}

// ByteTable answers MaxSim(s, t) from four table entries, one per byte
// of the label s. Row 256·b + x holds, for every topic t, the rank of the
// MaxSim on t of the topics byte b of a label holds when it is x, among
// the at most MaxTopics+1 values MaxSim(·, t) can take, kept ascending. A
// label's maximum is the value of the largest of its four bytes' ranks,
// exactly, since max is exact. The table takes 48 KB: a row holds every
// topic's rank in 32 bytes, so an exploration of any topic width reads
// four rows per edge from an L1-sized table, and no lookup needs a bounds
// check.
type ByteTable struct {
	ranks [4 * 256][MaxTopics]uint8
	vals  [MaxTopics][2 * MaxTopics]float64 // vals[t][rank]
}

// ConstTable returns a byte table that scores every label and topic v.
func ConstTable(v float64) *ByteTable {
	tb := new(ByteTable)
	for t := range tb.vals {
		tb.vals[t][0] = v
	}
	return tb
}

// MaxSims sets dst[i] to MaxSim(s, ts[i]) for every i < len(dst).
func (tb *ByteTable) MaxSims(dst []float64, s Set, ts []ID) {
	r0, r1 := &tb.ranks[uint8(s)], &tb.ranks[256+int(uint8(s>>8))]
	r2, r3 := &tb.ranks[512+int(uint8(s>>16))], &tb.ranks[768+int(uint8(s>>24))]
	for i, t := range ts[:len(dst)] {
		t &= MaxTopics - 1
		dst[i] = tb.vals[t][max(r0[t], r1[t], r2[t], r3[t])&(2*MaxTopics-1)]
	}
}

// Max returns MaxSim(s, t).
func (tb *ByteTable) Max(s Set, t ID) float64 {
	t &= MaxTopics - 1
	r := &tb.ranks
	return tb.vals[t][max(r[uint8(s)][t], r[256+int(uint8(s>>8))][t], r[512+int(uint8(s>>16))][t], r[768+int(uint8(s>>24))][t])&(2*MaxTopics-1)]
}

// Bytes returns the in-memory size of the packed values, used to report the
// footprint the paper discusses (2.5 KB for 18 topics).
func (m *SimMatrix) Bytes() int { return len(m.vals) * 8 }
