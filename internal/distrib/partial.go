// partial.go is the serving-tier form of the distributed computation: one
// worker's additive share of a landmark-approximate query, and the exact
// gather-side merge. The tier trades a little duplicated exploration for
// zero mid-query coordination: no score mass crosses a partition boundary
// during a query, only the finished partials do:
//
//   - every worker holds the full graph topology (cheap: the CSR is a
//     fraction of the landmark store's size) and runs the depth-bounded
//     pruned exploration locally;
//   - each worker owns one partition of the CANDIDATE nodes: it holds
//     every landmark's inverted list filtered to its owned candidates
//     (landmark.Store.SubsetNodes) and folds the direct exploration
//     scores of owned reached nodes plus the Proposition 4 terms of
//     every met landmark — restricted, by construction of its store, to
//     owned candidates.
//
// Partitioning the lists by candidate rather than by landmark keeps the
// per-worker store at the same 1/P of the full lists, but makes the
// outputs disjoint: a candidate is scored by exactly one worker, and
// scored completely there (every landmark's contribution to it lives in
// that worker's store). So a partial's size — and with it the fold work,
// the result materialization and the bytes on the wire — shrinks with P,
// where landmark-partitioned lists would make every worker enumerate
// nearly the same candidate union (the lists overlap heavily, so the
// union barely shrinks with P). The exploration is the only replicated
// work.
//
// By the score composition property (Proposition 2, and Proposition 4 for
// landmark lists), the per-worker folds together reproduce the
// single-machine score of every candidate; Merge takes the top-n of their
// disjoint union. The only approximation in the whole pipeline is the one
// the single machine already makes (truncated landmark lists) — the
// scatter/gather itself is exact, which the differential tests pin down.
package distrib

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// PartialEntry is one candidate's additive score share from one worker.
type PartialEntry struct {
	Node  graph.NodeID
	Score float64
}

// Shard is one partition worker's query state: the full-topology engine,
// the candidate-filtered view of the landmark store and the candidates
// this worker owns.
type Shard struct {
	// Eng scores over the full graph; it is immutable and safe for
	// concurrent Partial calls.
	Eng *core.Engine
	// Store holds every landmark's inverted lists filtered to this
	// partition's candidates (landmark.Store.SubsetNodes of the full
	// store). It holds every landmark of the deployment, so
	// Store.Contains is the exploration's pruning test on every worker,
	// identical to the single-machine one (Algorithm 2).
	Store *landmark.Store
	// Depth is the query-time exploration bound (paper: 2).
	Depth int

	// ownedList holds this partition's candidate nodes in ascending id
	// order: the output scan visits only these instead of the whole fold
	// buffer, so the readout cost partitions with everything else.
	ownedList []graph.NodeID
}

// NewShard assembles one worker's query state from an assignment. The
// store must be the candidate-filtered view for this partition
// (SubsetNodes over the node assignment — at parts=1 the full store is
// that view); allLandmarks is the full landmark set of the deployment.
// Construction verifies both directions of the ownership contract: the
// store must cover every landmark (a missing one would silently drop its
// terms for this worker's candidates), and no list may score a foreign
// candidate (its owner would fold the same term again). Before either,
// every list entry must name a node of the engine's graph
// (landmark.Store.CheckNodes).
func NewShard(eng *core.Engine, store *landmark.Store, assign Assignment, part int,
	allLandmarks []graph.NodeID, depth int) (*Shard, error) {
	if err := assign.Validate(eng.Graph()); err != nil {
		return nil, err
	}
	if part < 0 || part >= assign.Parts {
		return nil, fmt.Errorf("distrib: shard %d of %d", part, assign.Parts)
	}
	if depth < 1 {
		return nil, fmt.Errorf("distrib: query depth must be >= 1, got %d", depth)
	}
	if store.VocabLen() != eng.Graph().Vocabulary().Len() {
		return nil, fmt.Errorf("distrib: store vocabulary mismatch")
	}
	if err := store.CheckNodes(eng.Graph().NumNodes()); err != nil {
		return nil, err
	}
	for _, lm := range allLandmarks {
		d := store.Get(lm)
		if d == nil {
			return nil, fmt.Errorf("distrib: store missing landmark %d — its terms for partition %d's candidates would be lost", lm, part)
		}
		for ti := range d.Topical {
			for _, w := range d.Topical[ti].Nodes {
				if assign.Of[w] != part {
					return nil, fmt.Errorf("distrib: landmark %d topic %d lists candidate %d owned by partition %d, worker owns %d",
						lm, ti, w, assign.Of[w], part)
				}
			}
		}
	}
	for _, lm := range store.Landmarks() {
		if !slices.Contains(allLandmarks, lm) {
			return nil, fmt.Errorf("distrib: store holds landmark %d, which the deployment does not", lm)
		}
	}
	// The store covers exactly the deployment's landmarks, so its
	// node-indexed lookups are the exploration's pruning test and the
	// fold's landmark lookup.
	s := &Shard{Eng: eng, Store: store, Depth: depth}
	for v, p := range assign.Of {
		if p == part {
			s.ownedList = append(s.ownedList, graph.NodeID(v))
		}
	}
	return s, nil
}

// Partial computes this worker's share of the approximate scores for
// (u, t): direct exploration scores of owned reached nodes plus the
// Proposition 4 combination of every met landmark's owned-candidate
// sublist. Entries are sorted by node id so the gather side is
// deterministic. The exploration is the call landmark.Approx makes and
// the list fold is landmark.FoldLists, the function Approx folds
// through, so partials are disjoint across partitions and concatenate to
// the single-machine scores bit for bit.
func (s *Shard) Partial(u graph.NodeID, t topics.ID) []PartialEntry {
	return s.PartialAppend(u, t, nil)
}

// PartialAppend is Partial writing into buf's backing array (buf may be
// nil). A partial can still run to thousands of owned candidates, so
// serving loops that compute partials back to back recycle the output
// slice through this variant instead of allocating per query.
func (s *Shard) PartialAppend(u graph.NodeID, t topics.ID, buf []PartialEntry) []PartialEntry {
	// The exploration is the worker's replicated (per-shard constant)
	// cost. Its scores stay in a scratch borrowed from the engine's pool —
	// one topic wide, so its rows stay cache-resident — and the
	// Exploration aliases it; the fold sums into the same scratch's dense
	// fold buffer, which the pool clears when the scratch goes back after
	// the readout.
	pool := s.Eng.Scratches()
	scr := pool.Get()
	defer pool.Put(scr)
	x := s.Eng.ExploreOpts(u, []topics.ID{t}, core.ExploreOptions{
		MaxDepth: s.Depth,
		Stop:     s.Store.Contains,
		Scratch:  scr,
	})

	// Direct scores first, as landmark.Approx adds them: only owned
	// candidates can take one, so the scan walks the owned list (O(n/P))
	// instead of filtering the full reached set (O(reached), replicated
	// on every shard) — Sigma answers 0 for nodes the exploration never
	// touched. The source itself is never a candidate, even when a cycle
	// carries mass back to it.
	acc := scr.Fold()
	for _, v := range s.ownedList {
		if v == u {
			continue
		}
		if sc := x.Sigma(v, 0); sc > 0 {
			acc.Add(v, sc)
		}
	}
	landmark.FoldLists(acc, x, u, t, s.Store.Get)

	count := len(acc.Touched())
	if cap(buf) < count {
		buf = make([]PartialEntry, 0, count)
	}
	out := buf[:0]
	// Only owned candidates can hold scores, so the readout walks the
	// ascending owned list: sorted output for 1/P of a full scan. Scores
	// leave times g(t), as landmark.Approx's do.
	g := s.Eng.Norm(t)
	for _, v := range s.ownedList {
		if sc := acc.At(v); sc > 0 {
			out = append(out, PartialEntry{Node: v, Score: g * sc})
		}
	}
	return out
}

// Merge gathers per-worker partials into the top-n recommendation list —
// the Proposition 2 composition that makes the scatter/gather exact.
// Candidate-partitioned partials are disjoint and each candidate is
// scored in full on its owner, so every entry goes straight into the
// top-n selection; ranking's strict order (score, then node id) makes the
// result independent of the order the entries arrive in. A nil list (a
// worker that missed its deadline) simply contributes nothing: the
// surviving candidates keep their exact scores, and only the dead
// worker's candidates go missing from the ranking.
func Merge(partials [][]PartialEntry, u graph.NodeID, n int) []ranking.Scored {
	top := ranking.NewTopN(n)
	for _, list := range partials {
		for _, e := range list {
			if e.Node != u && e.Score > 0 {
				top.Insert(e.Node, e.Score)
			}
		}
	}
	return top.List()
}
