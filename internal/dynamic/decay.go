package dynamic

import (
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
)

// Time-decayed edge weights (the streaming tier's recency model). Every
// edge carries an event timestamp: streamed edges the timestamp of the
// update that (last) added them, base-graph edges a shared origin. The
// edge's weight is
//
//	w(e) = 2^((ts(e) − tRef) / halfLife)
//
// a relative recency factor against a fold reference tRef: an edge loses
// half its weight per half-life of age. The weight multiplies only the
// topical edge unit sim·auth (see core.Engine.WithEdgeWeights), so the
// landmark combination algebra is untouched.
//
// Two properties make this cheap and recovery-exact:
//
//   - Shifting tRef rescales every weight by the same factor, and a
//     uniform rescale of all edge units rescales every σ score
//     uniformly — rankings are invariant. tRef therefore only matters
//     for float range, and is re-anchored to the newest event timestamp
//     at each compaction (float32 holds ~127 half-lives of headroom, so
//     between compactions nothing ever needs rewriting: old edges keep
//     their folded weight, new edges fold in relative to the same tRef).
//   - Weights are a pure function of logged timestamps (never the
//     clock), and tRef evolves deterministically with the batch stream,
//     so a replayed manager re-derives bit-identical weight tables.
//
// The weights live in a graph.EdgeWeights structure layered in lockstep
// with the overlay stack: each Apply adds one layer covering exactly the
// rows its overlay patched, and each compaction folds everything back
// into a flat CSR-aligned table.

// decayState is the manager's decay bookkeeping. Zero value = decay
// disabled (cfg.HalfLife == 0 leaves it untouched).
type decayState struct {
	halfLife float64 // half-life in nanoseconds (0 = disabled)
	origin   int64   // timestamp of base-graph edges (Unix ns)
	tRef     int64   // fold reference the current weight tables use
	maxTs    int64   // newest event timestamp applied (next tRef anchor)
	// edgeTs holds the explicit per-edge timestamps of streamed edges;
	// absent means the edge decays from origin. A re-added edge's entry
	// is refreshed, an unfollow's is dropped.
	edgeTs map[graph.EdgeKey]int64
	wts    *graph.EdgeWeights
}

func (d *decayState) enabled() bool { return d.halfLife > 0 }

// init configures decay from the manager's Config. now stamps the
// origin/reference when the config leaves them zero.
func (d *decayState) init(halfLife time.Duration, origin int64, now int64) {
	if halfLife <= 0 {
		return
	}
	d.halfLife = float64(halfLife.Nanoseconds())
	if origin == 0 {
		origin = now
	}
	d.origin = origin
	d.tRef = origin
	d.maxTs = origin
	d.edgeTs = make(map[graph.EdgeKey]int64)
}

// adopt restores persisted sidecar state (recovery path). Must run
// before any WAL replay so replayed weights fold against the recovered
// reference.
func (d *decayState) adopt(s *store.DecayState) {
	d.origin = s.Origin
	d.tRef = s.Ref
	d.maxTs = s.Ref
	d.edgeTs = make(map[graph.EdgeKey]int64, len(s.Edges))
	for _, e := range s.Edges {
		d.edgeTs[graph.KeyOf(e.Src, e.Dst)] = e.At
		if e.At > d.maxTs {
			d.maxTs = e.At
		}
	}
}

// export snapshots the state for the sidecar file.
func (d *decayState) export() *store.DecayState {
	s := &store.DecayState{Ref: d.tRef, Origin: d.origin,
		Edges: make([]store.DecayEdge, 0, len(d.edgeTs))}
	for k, at := range d.edgeTs {
		s.Edges = append(s.Edges, store.DecayEdge{
			Src: graph.NodeID(k >> 32), Dst: graph.NodeID(k & 0xffffffff), At: at})
	}
	return s
}

// note records a batch's applied timestamps. An unstamped add (At == 0:
// its caller supplied no event time) decays from the origin — never from
// the replay clock, which would break deterministic recovery.
func (d *decayState) note(batch []Update) {
	for _, up := range batch {
		k := graph.KeyOf(up.Edge.Src, up.Edge.Dst)
		if up.Add {
			at := up.At
			if at == 0 {
				at = d.origin
			}
			d.edgeTs[k] = at
			if at > d.maxTs {
				d.maxTs = at
			}
		} else {
			delete(d.edgeTs, k)
		}
	}
}

// weightOf returns the folded decay weight of edge (src, dst) against
// the current reference.
func (d *decayState) weightOf(src, dst graph.NodeID) float32 {
	ts := d.origin
	if at, ok := d.edgeTs[graph.KeyOf(src, dst)]; ok {
		ts = at
	}
	return float32(math.Exp2(float64(ts-d.tRef) / d.halfLife))
}

// layer folds the decay weights of the rows ov patched into a new layer
// over the current weight stack — O(Σ deg(touched)), the same bound as
// the overlay itself.
func (d *decayState) layer(ov *graph.Overlay) {
	rows := make(map[graph.NodeID][]float32)
	ov.PatchedOut(func(u graph.NodeID, ids []graph.NodeID) {
		ws := make([]float32, len(ids))
		for i, v := range ids {
			ws[i] = d.weightOf(u, v)
		}
		rows[u] = ws
	})
	d.wts = d.wts.Layer(rows)
}

// rebuild re-anchors the reference to the newest applied timestamp and
// folds a flat CSR-aligned weight table over the freshly compacted
// graph (the only point weights are ever rewritten wholesale).
func (d *decayState) rebuild(g *graph.Graph) {
	d.tRef = d.maxTs
	d.wts = graph.BuildWeights(g, d.weightOf)
}
