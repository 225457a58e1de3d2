// partial.go is the serving-tier form of the distributed computation: one
// worker's additive share of a landmark-approximate query, and the exact
// gather-side merge. Where cluster.go simulates BSP supersteps with
// per-hop message exchange, the serving tier trades a little duplicated
// exploration for zero mid-query coordination:
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
// single-machine score of every candidate; Merge sums them (a disjoint
// union here, but the sum also tolerates landmark-partitioned inputs).
// The only approximation in the whole pipeline is the one the single
// machine already makes (truncated landmark lists) — the scatter/gather
// itself is exact, which the differential tests pin down.
package distrib

import (
	"fmt"
	"sync"

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
// the candidate-filtered view of the landmark store, and the two
// membership predicates — Prune must know every landmark of the
// deployment (the exploration prunes at all of them, Algorithm 2), and
// Owns marks the candidate partition this worker scores.
type Shard struct {
	// Eng scores over the full graph; it is immutable and safe for
	// concurrent Partial calls.
	Eng *core.Engine
	// Store holds every landmark's inverted lists filtered to this
	// partition's candidates (landmark.Store.SubsetNodes of the full
	// store).
	Store *landmark.Store
	// Prune reports whether a node is a landmark of the deployment —
	// owned or not — so the exploration is pruned identically on every
	// worker (and identically to the single-machine computation).
	Prune func(graph.NodeID) bool
	// Owns reports whether this partition owns a node.
	Owns func(graph.NodeID) bool
	// Depth is the query-time exploration bound (paper: 2).
	Depth int

	// ownedList holds this partition's candidate nodes in ascending id
	// order: the output scan visits only these instead of the full
	// accumulator, so the readout cost partitions with everything else.
	ownedList []graph.NodeID
	// isLandmark backs Prune as a flat bool table; the fold's met-landmark
	// scan also filters on it first — it is small enough to stay
	// L1-resident across the scan, where probing lmData directly would
	// take a pointer-table cache miss per reached node.
	isLandmark []bool
	// lmData indexes the store's per-landmark data by node id (nil for
	// non-landmarks), replacing a map probe per reached node with an
	// indexed load.
	lmData []*landmark.Data

	// accPool recycles the dense score accumulator across Partial calls.
	// A landmark's inverted list spans candidates across the whole graph,
	// so the accumulator is the one per-query structure that does NOT
	// shrink with the partition count; keeping it a flat array makes each
	// folded entry a single indexed add instead of a map probe, and the
	// node-ordered readout falls out of the final scan for free.
	accPool sync.Pool
}

// NewShard assembles one worker's query state from an assignment. The
// store must be the candidate-filtered view for this partition
// (SubsetNodes over the node assignment — at parts=1 the full store is
// that view); allLandmarks is the full landmark set of the deployment.
// Construction verifies both directions of the ownership contract: the
// store must cover every landmark (a missing one would silently drop its
// terms for this worker's candidates), and no list may score a foreign
// candidate (its owner would fold the same term again).
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
	if store.Len() != len(allLandmarks) {
		return nil, fmt.Errorf("distrib: store holds %d landmarks, deployment has %d", store.Len(), len(allLandmarks))
	}
	// Dense membership tables: the exploration consults Prune on every
	// expansion candidate and the fold consults Owns on every reached
	// node, so both sit on the query hot path — an indexed load each, not
	// a map probe.
	n := eng.Graph().NumNodes()
	prune := make([]bool, n)
	for _, lm := range allLandmarks {
		prune[lm] = true
	}
	of := assign.Of
	s := &Shard{
		Eng:        eng,
		Store:      store,
		Prune:      func(v graph.NodeID) bool { return prune[v] },
		Owns:       func(v graph.NodeID) bool { return of[v] == part },
		Depth:      depth,
		isLandmark: prune,
	}
	for v := 0; v < n; v++ {
		if of[v] == part {
			s.ownedList = append(s.ownedList, graph.NodeID(v))
		}
	}
	s.lmData = make([]*landmark.Data, n)
	for _, lm := range allLandmarks {
		s.lmData[lm] = store.Get(lm)
	}
	s.accPool.New = func() any { return make([]float64, n) }
	return s, nil
}

// Partial computes this worker's share of the approximate scores for
// (u, t): direct exploration scores of owned reached nodes plus the
// Proposition 4 combination of every met landmark's owned-candidate
// sublist. Entries are sorted by node id so the gather side is
// deterministic. The computation mirrors landmark.Approx restricted to
// owned candidates — partials are disjoint across partitions and
// concatenate to the single-machine score map.
func (s *Shard) Partial(u graph.NodeID, t topics.ID) []PartialEntry {
	return s.PartialAppend(u, t, nil)
}

// PartialAppend is Partial writing into buf's backing array (buf may be
// nil). A partial can still run to thousands of owned candidates, so
// serving loops that compute partials back to back recycle the output
// slice through this variant instead of allocating per query.
func (s *Shard) PartialAppend(u graph.NodeID, t topics.ID, buf []PartialEntry) []PartialEntry {
	// The exploration is the worker's replicated (per-shard constant)
	// cost, and the same one landmark.Approx runs. Its scores stay in a
	// scratch borrowed from the engine's pool — one topic wide, so its rows
	// stay cache-resident — and the Exploration aliases it, so it goes back
	// only after the fold below has read everything out.
	pool := s.Eng.Scratches()
	scr := pool.Get()
	defer pool.Put(scr)
	x := s.Eng.ExploreOpts(u, []topics.ID{t}, core.ExploreOptions{
		MaxDepth: s.Depth,
		Stop:     s.Prune,
		Scratch:  scr,
	})

	// The fold accumulates into a pooled dense array: each list entry is
	// one indexed add, and scanning the array in node order afterwards
	// yields the sorted output directly. The per-node accumulation order
	// is landmark.Approx's (reached nodes first, then landmark lists in
	// reached order), so partials are bit-identical to its scores.
	// count tracks first touches during the fold so the output can be
	// exact-sized without a separate counting scan over the accumulator.
	// Direct scores: only owned candidates can take one, so the scan
	// walks the owned list (O(n/P)) instead of filtering the full reached
	// set (O(reached), replicated on every shard) — Sigma answers 0 for
	// nodes the exploration never touched. The source itself is never a
	// candidate, even when a cycle carries mass back to it.
	acc := s.accPool.Get().([]float64)
	count := 0
	for _, v := range s.ownedList {
		if v == u {
			continue
		}
		if sc := x.Sigma(v, 0); sc > 0 {
			acc[v] = sc
			count++
		}
	}
	for _, v := range x.Reached {
		if !s.isLandmark[v] {
			continue
		}
		d := s.lmData[v]
		sigmaUL := x.Sigma(v, 0) // σ(u, λ, t)
		topoUL := x.TopoAB(v)    // topo_βα(u, λ)
		lst := &d.Topical[t]
		for i, w := range lst.Nodes {
			if w == u {
				continue
			}
			// Zero contributions are skipped rather than added: x+0 is
			// bit-identical to x for these non-negative scores, and the
			// skip keeps the first-touch count exact.
			delta := sigmaUL*lst.Topo[i] + topoUL*lst.Sigma[i]
			if delta == 0 {
				continue
			}
			if acc[w] == 0 {
				count++
			}
			acc[w] += delta
		}
	}

	if cap(buf) < count {
		buf = make([]PartialEntry, 0, count)
	}
	out := buf[:0]
	// Only owned candidates can hold scores, so the readout walks the
	// ascending owned list — sorted output for 1/P of a full scan. The
	// scan doubles as the accumulator reset: zeroing the entries it just
	// read returns acc to the pool clean without a full memclr.
	for _, v := range s.ownedList {
		if sc := acc[v]; sc > 0 {
			out = append(out, PartialEntry{Node: v, Score: sc})
			acc[v] = 0
		}
	}
	s.accPool.Put(acc) //nolint:staticcheck // slice header boxing is fine here
	return out
}

// Merge sums per-worker partials into the top-n recommendation list — the
// Proposition 2 composition that makes the scatter/gather exact. With
// candidate-partitioned workers the partials are disjoint and the sum is
// a concatenation, but the merge stays a sum so any additive split of
// the score terms gathers correctly. Lists must be passed in worker
// order (and each worker emits node-sorted entries), so the float
// accumulation order — and with it any near-tie ranking — is
// reproducible. A nil list (a worker that missed its deadline) simply
// contributes nothing: the surviving candidates keep their exact scores,
// and only the dead worker's candidates go missing from the ranking.
func Merge(partials [][]PartialEntry, u graph.NodeID, n int) []ranking.Scored {
	total := make(map[graph.NodeID]float64)
	for _, list := range partials {
		for _, e := range list {
			total[e.Node] += e.Score
		}
	}
	top := ranking.NewTopN(n)
	for v, sc := range total {
		if v != u && sc > 0 {
			top.Insert(v, sc)
		}
	}
	return top.List()
}
