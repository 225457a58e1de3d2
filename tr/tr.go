// Package tr is the public API of the repository: the Tr topical
// user-recommendation score of "Finding Users of Interest in
// Micro-blogging Systems" (EDBT 2016) with its landmark-based approximate
// computation, ready to embed in an application.
//
// The package re-exports the building blocks (labeled graphs, topic
// taxonomies, scoring parameters) and adds System, a turnkey facade that
// wires them together:
//
//	// Describe the topics and the follow graph.
//	tax := tr.WebTaxonomy()
//	b := tr.NewGraphBuilder(tax.Vocabulary(), 3)
//	tech := tax.Vocabulary().MustLookup("technology")
//	b.SetNodeTopics(1, tr.TopicsOf(tech))
//	b.AddEdge(0, 1, tr.TopicsOf(tech)) // 0 follows 1 about technology
//	b.AddEdge(2, 1, tr.TopicsOf(tech))
//	g, _ := b.Freeze()
//
//	// Build the system and recommend.
//	sys, _ := tr.NewSystem(g, tax, tr.DefaultOptions())
//	recs, _ := sys.Recommend(0, tech, 10)
//
// For large graphs, call BuildIndex once and queries switch to the
// landmark approximation (orders of magnitude faster, see the paper's
// Section 4); Save/LoadIndex persist the preprocessing.
package tr

import (
	"fmt"
	"io"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/store"
	"repro/internal/topics"
)

// Re-exported core types. External code uses these aliases without
// importing the internal packages.
type (
	// Graph is the frozen labeled follow graph.
	Graph = graph.Graph
	// GraphBuilder assembles a Graph.
	GraphBuilder = graph.Builder
	// NodeID identifies an account.
	NodeID = graph.NodeID
	// Edge is one follow relationship with its topic label.
	Edge = graph.Edge
	// Topic identifies a topic within a vocabulary.
	Topic = topics.ID
	// TopicSet is a set of topics.
	TopicSet = topics.Set
	// Vocabulary is the ordered topic list.
	Vocabulary = topics.Vocabulary
	// Taxonomy is the topic tree behind Wu-Palmer similarity.
	Taxonomy = topics.Taxonomy
	// Params are the scoring parameters (β, α, depth, tolerance).
	Params = core.Params
	// Scored is one recommendation with its score.
	Scored = ranking.Scored
	// Recommender is the interface every method implements.
	Recommender = ranking.Recommender
	// Strategy names a landmark selection strategy.
	Strategy = landmark.Strategy
)

// Re-exported constructors and defaults.
var (
	// NewGraphBuilder starts a graph over a vocabulary.
	NewGraphBuilder = graph.NewBuilder
	// ReadGraph loads a graph written by WriteGraph (a TRG2 image).
	ReadGraph = store.ReadSnapshot
	// NewVocabulary builds a topic vocabulary.
	NewVocabulary = topics.NewVocabulary
	// WebTaxonomy is the 18-topic web taxonomy used for Twitter-like data.
	WebTaxonomy = topics.WebTaxonomy
	// CSTaxonomy is the research-area taxonomy used for DBLP-like data.
	CSTaxonomy = topics.CSTaxonomy
	// TaxonomyFor resolves the right taxonomy for a vocabulary.
	TaxonomyFor = topics.TaxonomyFor
	// DefaultParams returns the paper's scoring parameters.
	DefaultParams = core.DefaultParams
	// TopicsOf builds a TopicSet from ids.
	TopicsOf = topics.NewSet
)

// WriteGraph writes g as a TRG2 image, the format ReadGraph reads and
// trserver -snapshot maps, returning the bytes w accepted.
func WriteGraph(w io.Writer, g *Graph) (int64, error) {
	return store.WriteSnapshot(w, g, nil)
}

// Landmark selection strategies (Table 4 of the paper).
var (
	SelectRandom  = landmark.Random
	SelectInDeg   = landmark.InDeg
	SelectOutDeg  = landmark.OutDeg
	SelectCentral = landmark.Central
	// Strategies lists all eleven.
	Strategies = landmark.Strategies
)

// Options configures a System.
type Options struct {
	// Params are the scoring parameters; zero value means DefaultParams.
	Params Params
	// IndexStrategy selects landmarks when BuildIndex is called with
	// k > 0 (default: In-Deg, the strategy meeting the most landmarks per
	// query in the paper's Table 6).
	IndexStrategy Strategy
	// IndexTopN bounds the per-topic lists kept per landmark (default
	// 1000, the paper's best-quality setting).
	IndexTopN int
	// QueryDepth is the approximate query exploration depth (default 2,
	// the paper's setting).
	QueryDepth int
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{
		Params:        core.DefaultParams(),
		IndexStrategy: landmark.InDeg,
		IndexTopN:     1000,
		QueryDepth:    2,
	}
}

// System ties a graph, its authority table, the similarity matrix and an
// optional landmark index into one recommendation service. A System is
// immutable after construction (BuildIndex/LoadIndex excepted, which must
// not race with queries).
type System struct {
	g     *Graph
	tax   *Taxonomy
	opts  Options
	eng   *core.Engine
	exact *core.Recommender
	store *landmark.Store
	appr  *landmark.Approx
}

// NewSystem computes authority scores and the similarity matrix and
// readies exact recommendations. Call BuildIndex afterwards to enable the
// fast approximate path.
func NewSystem(g *Graph, tax *Taxonomy, opts Options) (*System, error) {
	if g == nil || tax == nil {
		return nil, fmt.Errorf("tr: graph and taxonomy are required")
	}
	if tax.Vocabulary().Len() != g.Vocabulary().Len() {
		return nil, fmt.Errorf("tr: taxonomy covers %d topics, graph vocabulary has %d",
			tax.Vocabulary().Len(), g.Vocabulary().Len())
	}
	if opts.Params.Beta == 0 {
		opts.Params = core.DefaultParams()
	}
	if opts.IndexTopN == 0 {
		opts.IndexTopN = 1000
	}
	if opts.QueryDepth == 0 {
		opts.QueryDepth = 2
	}
	if opts.IndexStrategy == "" {
		opts.IndexStrategy = landmark.InDeg
	}
	eng, err := core.NewEngine(g, authority.Compute(g), tax.SimMatrix(), opts.Params)
	if err != nil {
		return nil, err
	}
	return &System{
		g:     g,
		tax:   tax,
		opts:  opts,
		eng:   eng,
		exact: core.NewRecommender(eng, core.WithExcludeFollowed()),
	}, nil
}

// Graph returns the served graph.
func (s *System) Graph() *Graph { return s.g }

// Vocabulary returns the topic vocabulary.
func (s *System) Vocabulary() *Vocabulary { return s.g.Vocabulary() }

// HasIndex reports whether the landmark index is available.
func (s *System) HasIndex() bool { return s.appr != nil }

// BuildIndex selects k landmarks and runs the preprocessing step
// (Algorithm 1 from every landmark). Afterwards Recommend uses the
// approximate computation.
func (s *System) BuildIndex(k int) error {
	selCfg := landmark.DefaultSelectConfig()
	low, high := graph.InDegreePercentileCutoffs(s.g, 0.25)
	selCfg.MinFollow, selCfg.MaxFollow = low, high
	selCfg.MinPublish, selCfg.MaxPublish = low, high
	lms, err := landmark.Select(s.g, s.opts.IndexStrategy, k, selCfg)
	if err != nil {
		return err
	}
	idx, _ := landmark.Preprocess(s.eng, lms, landmark.PreprocessConfig{TopN: s.opts.IndexTopN})
	return s.adoptStore(idx)
}

func (s *System) adoptStore(idx *landmark.Store) error {
	appr, err := landmark.NewApprox(s.eng, idx, s.opts.QueryDepth)
	if err != nil {
		return err
	}
	s.store, s.appr = idx, appr
	return nil
}

// SaveIndex persists the landmark index as an LMK3 image.
func (s *System) SaveIndex(w io.Writer) error {
	if s.store == nil {
		return fmt.Errorf("tr: no index built")
	}
	_, err := store.WriteLandmarks(w, s.store)
	return err
}

// LoadIndex adopts a landmark index saved by SaveIndex. An index whose
// lists name accounts outside the system's graph (one built for a larger
// graph) is rejected.
func (s *System) LoadIndex(r io.Reader) error {
	idx, err := store.ReadLandmarks(r)
	if err != nil {
		return err
	}
	if err := idx.CheckNodes(s.g.NumNodes()); err != nil {
		return fmt.Errorf("tr: %w", err)
	}
	return s.adoptStore(idx)
}

// Recommend returns the top-n accounts for user u on topic t, using the
// landmark index when one is built and the exact computation otherwise.
// Accounts u already follows are never recommended.
func (s *System) Recommend(u NodeID, t Topic, n int) ([]Scored, error) {
	if err := s.checkQuery(u, t); err != nil {
		return nil, err
	}
	if s.appr != nil {
		// Over-fetch so filtering the already-followed still fills n.
		raw := s.appr.Recommend(u, t, n+s.g.OutDegree(u))
		out := make([]Scored, 0, n)
		for _, sc := range raw {
			if sc.Node == u || s.g.HasEdge(u, sc.Node) {
				continue
			}
			out = append(out, sc)
			if len(out) == n {
				break
			}
		}
		return out, nil
	}
	return s.exact.Recommend(u, t, n), nil
}

// RecommendExact always runs the exact convergence computation.
func (s *System) RecommendExact(u NodeID, t Topic, n int) ([]Scored, error) {
	if err := s.checkQuery(u, t); err != nil {
		return nil, err
	}
	return s.exact.Recommend(u, t, n), nil
}

// RecommendQuery answers a weighted multi-topic query (the paper's final
// score: a weighted linear combination over the query topics).
func (s *System) RecommendQuery(u NodeID, query map[Topic]float64, n int) ([]Scored, error) {
	if int(u) >= s.g.NumNodes() {
		return nil, fmt.Errorf("tr: unknown user %d", u)
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("tr: empty query")
	}
	qts := make([]core.QueryTopic, 0, len(query))
	for t, w := range query {
		if int(t) >= s.Vocabulary().Len() {
			return nil, fmt.Errorf("tr: unknown topic %d", t)
		}
		qts = append(qts, core.QueryTopic{Topic: t, Weight: w})
	}
	return s.exact.RecommendQuery(u, qts, n), nil
}

// Score returns the exact σ(u, v, t) between two specific accounts.
func (s *System) Score(u, v NodeID, t Topic) (float64, error) {
	if err := s.checkQuery(u, t); err != nil {
		return 0, err
	}
	if int(v) >= s.g.NumNodes() {
		return 0, fmt.Errorf("tr: unknown user %d", v)
	}
	x := s.eng.Explore(u, []Topic{t}, 0)
	return s.eng.Norm(t) * x.Sigma(v, 0), nil
}

func (s *System) checkQuery(u NodeID, t Topic) error {
	if int(u) >= s.g.NumNodes() {
		return fmt.Errorf("tr: unknown user %d", u)
	}
	if int(t) >= s.Vocabulary().Len() {
		return fmt.Errorf("tr: unknown topic %d", t)
	}
	return nil
}
