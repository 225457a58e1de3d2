package topics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testTaxonomy(t *testing.T) *Taxonomy {
	t.Helper()
	v := MustVocabulary([]string{"cat", "dog", "oak", "pine", "rock"})
	return NewTaxonomyBuilder(v).
		Category("living", "root").
		Category("animal", "living").
		Topic("cat", "animal").
		Topic("dog", "animal").
		Category("tree", "living").
		Topic("oak", "tree").
		Topic("pine", "tree").
		Topic("rock", "root").
		MustBuild()
}

func TestWuPalmerKnownValues(t *testing.T) {
	tax := testTaxonomy(t)
	v := tax.Vocabulary()
	cat, dog := v.MustLookup("cat"), v.MustLookup("dog")
	oak, rock := v.MustLookup("oak"), v.MustLookup("rock")

	// depth(root)=1, living=2, animal=3, cat=dog=4, tree=3, oak=4, rock=2.
	if d := tax.Depth(cat); d != 4 {
		t.Fatalf("depth(cat) = %d, want 4", d)
	}
	// sim(cat,dog) = 2*3/(4+4) = 0.75 (lcs = animal, depth 3).
	if got := tax.WuPalmer(cat, dog); !feq(got, 0.75) {
		t.Errorf("sim(cat,dog) = %g, want 0.75", got)
	}
	// sim(cat,oak) = 2*2/(4+4) = 0.5 (lcs = living).
	if got := tax.WuPalmer(cat, oak); !feq(got, 0.5) {
		t.Errorf("sim(cat,oak) = %g, want 0.5", got)
	}
	// sim(cat,rock) = 2*1/(4+2) = 1/3 (lcs = root).
	if got := tax.WuPalmer(cat, rock); !feq(got, 1.0/3) {
		t.Errorf("sim(cat,rock) = %g, want 1/3", got)
	}
}

func feq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

// TestWuPalmerProperties: identity, symmetry, range (0,1], and "closer in
// the tree means more similar".
func TestWuPalmerProperties(t *testing.T) {
	for _, tax := range []*Taxonomy{testTaxonomy(t), WebTaxonomy(), CSTaxonomy()} {
		n := tax.Vocabulary().Len()
		prop := func(a8, b8 uint8) bool {
			a, b := ID(int(a8)%n), ID(int(b8)%n)
			sab, sba := tax.WuPalmer(a, b), tax.WuPalmer(b, a)
			if sab != sba {
				return false
			}
			if sab <= 0 || sab > 1 {
				return false
			}
			return tax.WuPalmer(a, a) == 1
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestTaxonomyBuilderErrors(t *testing.T) {
	v := MustVocabulary([]string{"a", "b"})
	// Unplaced topic must fail Build.
	if _, err := NewTaxonomyBuilder(v).Topic("a", "root").Build(); err == nil {
		t.Error("Build must fail when a topic is unplaced")
	}
	// Unknown parent panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown parent must panic")
			}
		}()
		NewTaxonomyBuilder(v).Category("x", "nope")
	}()
	// Duplicate node panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate node must panic")
			}
		}()
		NewTaxonomyBuilder(v).Category("x", "root").Category("x", "root")
	}()
	// Unknown topic panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown topic must panic")
			}
		}()
		NewTaxonomyBuilder(v).Topic("zzz", "root")
	}()
}

func TestSimMatrixAgainstTaxonomy(t *testing.T) {
	tax := WebTaxonomy()
	m := tax.SimMatrix()
	n := tax.Vocabulary().Len()
	if m.Len() != n {
		t.Fatalf("matrix covers %d, want %d", m.Len(), n)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := m.At(ID(a), ID(b)), tax.WuPalmer(ID(a), ID(b)); !feq(got, want) {
				t.Fatalf("At(%d,%d) = %g, want %g", a, b, got, want)
			}
		}
	}
	// The 18-topic matrix must be about the paper's 2.5 KB.
	if b := m.Bytes(); b > 4096 {
		t.Errorf("similarity matrix = %d bytes; the paper stores ~2.5KB", b)
	}
}

func TestMaxSim(t *testing.T) {
	tax := testTaxonomy(t)
	v := tax.Vocabulary()
	m := tax.SimMatrix()
	cat, dog, oak := v.MustLookup("cat"), v.MustLookup("dog"), v.MustLookup("oak")
	if got := m.MaxSim(NewSet(dog, oak), cat); !feq(got, 0.75) {
		t.Errorf("MaxSim = %g, want 0.75 (via dog)", got)
	}
	if got := m.MaxSim(0, cat); got != 0 {
		t.Errorf("MaxSim over empty set = %g, want 0", got)
	}
	if got := m.MaxSim(NewSet(cat), cat); !feq(got, 1) {
		t.Errorf("MaxSim with the topic itself = %g, want 1", got)
	}
}

func TestDefaultTaxonomies(t *testing.T) {
	for name, tax := range map[string]*Taxonomy{"web": WebTaxonomy(), "cs": CSTaxonomy()} {
		if tax.Vocabulary().Len() != 18 {
			t.Errorf("%s vocabulary has %d topics, want 18", name, tax.Vocabulary().Len())
		}
	}
	// Sanity: technology is closer to science than to religion.
	web := WebTaxonomy()
	v := web.Vocabulary()
	tech := v.MustLookup("technology")
	if web.WuPalmer(tech, v.MustLookup("science")) <= web.WuPalmer(tech, v.MustLookup("religion")) {
		t.Error("taxonomy shape wrong: technology should be nearer science than religion")
	}
}

func TestPopularity(t *testing.T) {
	v := WebTaxonomy().Vocabulary()
	w := Popularity(v, 1.2)
	if len(w) != v.Len() {
		t.Fatalf("weights = %d, want %d", len(w), v.Len())
	}
	sum := 0.0
	for _, x := range w {
		if x <= 0 {
			t.Fatal("all weights must be positive")
		}
		sum += x
	}
	if !feq(sum, 1) {
		t.Errorf("weights sum to %g, want 1", sum)
	}
	tech := v.MustLookup("technology")
	social := v.MustLookup("social")
	if w[tech] <= w[social] {
		t.Error("technology must be more popular than social (paper's Figure 9 setting)")
	}
}

func TestTaxonomyFor(t *testing.T) {
	if tax := TaxonomyFor(MustVocabulary(WebTopicNames)); tax.WuPalmer(0, 0) != 1 {
		t.Error("web taxonomy broken")
	}
	// Web names resolve to the real web taxonomy (technology~science
	// closer than flat 0.5).
	web := TaxonomyFor(MustVocabulary(WebTopicNames))
	v := web.Vocabulary()
	if web.WuPalmer(v.MustLookup("technology"), v.MustLookup("science")) <= 0.5 {
		t.Error("web vocabulary should resolve to the structured taxonomy")
	}
	cs := TaxonomyFor(MustVocabulary(CSTopicNames))
	cv := cs.Vocabulary()
	if cs.WuPalmer(cv.MustLookup("databases"), cv.MustLookup("datamining")) <= 0.5 {
		t.Error("cs vocabulary should resolve to the structured taxonomy")
	}
	// Unknown vocabulary falls back to flat: 0.5 off-diagonal, 1 on.
	flat := TaxonomyFor(MustVocabulary([]string{"x", "y", "z"}))
	if got := flat.WuPalmer(0, 1); !feq(got, 0.5) {
		t.Errorf("flat sim = %g, want 0.5", got)
	}
	if got := flat.WuPalmer(2, 2); !feq(got, 1) {
		t.Errorf("flat self-sim = %g, want 1", got)
	}
}

// requireTableIsMaxSim checks that m's byte table answers MaxSim(s, t)
// bit for bit for every topic t of m, through MaxSims and Max.
func requireTableIsMaxSim(t *testing.T, label string, m *SimMatrix, s Set) {
	t.Helper()
	tb := m.ByteTable()
	all := make([]ID, m.Len())
	for tp := range all {
		all[tp] = ID(tp)
	}
	got := make([]float64, m.Len())
	tb.MaxSims(got, s, all)
	for tp, g := range got {
		want := m.MaxSim(s, ID(tp))
		if one := tb.Max(s, ID(tp)); math.Float64bits(g) != math.Float64bits(want) || math.Float64bits(one) != math.Float64bits(want) {
			t.Fatalf("%s: label %#x topic %d: MaxSims %v, Max %v, MaxSim %v", label, uint32(s), tp, g, one, want)
		}
	}
}

// TestByteTableMatchesMaxSim: the byte table answers MaxSim exactly — on
// every label of the 18-topic web vocabulary, the empty one included,
// and on 10^5 random labels over a MaxTopics-wide matrix of random
// similarities, before and after Set overwrites some of them.
func TestByteTableMatchesMaxSim(t *testing.T) {
	web := WebTaxonomy().SimMatrix()
	for s := Set(0); s < 1<<web.Len(); s++ {
		requireTableIsMaxSim(t, "web", web, s)
	}

	rng := rand.New(rand.NewSource(32))
	wide := NewSimMatrix(MaxTopics)
	for a := 0; a < MaxTopics; a++ {
		for b := a; b < MaxTopics; b++ {
			v := rng.Float64()
			if rng.Intn(8) == 0 {
				v = 0.5 // ties across topics
			}
			wide.Set(ID(a), ID(b), v)
		}
	}
	labels := make([]Set, 100000)
	for i := range labels {
		labels[i] = Set(rng.Uint32())
		if i%4 == 0 {
			labels[i] &= Set(rng.Uint32()) // sparser labels
		}
	}
	for _, s := range labels {
		requireTableIsMaxSim(t, "wide", wide, s)
	}
	for i := 0; i < 40; i++ {
		wide.Set(ID(rng.Intn(MaxTopics)), ID(rng.Intn(MaxTopics)), rng.Float64()/4)
	}
	for _, s := range labels[:20000] {
		requireTableIsMaxSim(t, "wide after Set", wide, s)
	}
}
