package graph

import (
	"fmt"
	"sort"

	"repro/internal/topics"
)

// patchRow is one rebuilt adjacency row of an overlay: the merged
// (neighbor, label) sequence of a node whose edges the delta touched.
type patchRow struct {
	ids []NodeID
	lbl []topics.Set
}

// Overlay layers an add/remove edge delta over an immutable base View.
// Only the adjacency rows of touched nodes are materialized — construction
// costs O(|changes| + Σ degree(touched)) instead of the O(n+m) of a full
// CSR rebuild — and every untouched row is served straight from the base.
// Overlays stack: applying another batch to an Overlay yields a deeper
// Overlay; Compact folds the whole stack back into a fresh CSR once the
// accumulated delta crosses a threshold the caller picks.
//
// An Overlay is immutable after construction and safe for concurrent
// readers. Its rows obey the same ordering/merging rules as
// Builder.Freeze (neighbors sorted ascending, duplicate adds unioned,
// removals dropping the edge entirely), so scoring over an Overlay is
// bit-identical to scoring over the equivalent Freeze-rebuilt Graph.
type Overlay struct {
	base       View
	numEdges   int
	depth      int // stacked overlays above the bottom CSR
	deltaEdges int // cumulative changed (src,dst) pairs vs the bottom CSR
	out        map[NodeID]patchRow
	in         map[NodeID]patchRow
}

// NewOverlay derives a view with the given edges added and removed.
// Semantics match one dynamic batch applied through Builder + Freeze +
// WithoutEdges: self-loop adds are ignored, duplicate adds (and adds of
// existing edges) union their labels, removals win over adds of the same
// (src, dst) in the same delta, and removals of unknown edges are no-ops.
// Added edges referencing nodes outside the base are an error — overlays
// never grow the node set.
func NewOverlay(base View, add, remove []Edge) (*Overlay, error) {
	n := base.NumNodes()
	adds := make([]Edge, 0, len(add))
	for _, e := range add {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: overlay edge (%d,%d) references node beyond %d", e.Src, e.Dst, n-1)
		}
		if e.Src == e.Dst {
			continue // a user cannot follow himself; ignore silently
		}
		adds = append(adds, e)
	}
	sort.Slice(adds, func(i, j int) bool {
		if adds[i].Src != adds[j].Src {
			return adds[i].Src < adds[j].Src
		}
		return adds[i].Dst < adds[j].Dst
	})
	// Merge duplicate adds by unioning labels (Freeze's dedup rule).
	dedup := adds[:0]
	for _, e := range adds {
		if k := len(dedup); k > 0 && dedup[k-1].Src == e.Src && dedup[k-1].Dst == e.Dst {
			dedup[k-1].Label = dedup[k-1].Label.Union(e.Label)
			continue
		}
		dedup = append(dedup, e)
	}
	adds = dedup

	drop := make(map[EdgeKey]bool, len(remove))
	for _, e := range remove {
		if int(e.Src) >= n || int(e.Dst) >= n {
			continue // cannot exist in the base; WithoutEdges ignores too
		}
		drop[KeyOf(e.Src, e.Dst)] = true
	}

	o := &Overlay{
		base:     base,
		numEdges: base.NumEdges(),
		depth:    1,
		out:      make(map[NodeID]patchRow),
		in:       make(map[NodeID]patchRow),
	}
	changed := len(adds)
	if b, ok := base.(*Overlay); ok {
		o.depth = b.depth + 1
		o.deltaEdges = b.deltaEdges
	}

	// Group the delta by source (for out rows) and by destination (for in
	// rows). adds is sorted by (src, dst), which is also per-source dst
	// order and — re-sorted below — per-destination src order.
	bySrc := make(map[NodeID][]Edge)
	byDst := make(map[NodeID][]Edge)
	for _, e := range adds {
		bySrc[e.Src] = append(bySrc[e.Src], e)
		byDst[e.Dst] = append(byDst[e.Dst], e)
	}
	for key := range drop {
		src, dst := NodeID(key>>32), NodeID(key&0xffffffff)
		if _, ok := bySrc[src]; !ok {
			bySrc[src] = nil
		}
		if _, ok := byDst[dst]; !ok {
			byDst[dst] = nil
		}
	}

	for src, srcAdds := range bySrc {
		ids, lbls := base.Out(src)
		row, removedHere := mergeRow(ids, lbls, srcAdds, func(e Edge) NodeID { return e.Dst },
			func(nbr NodeID) bool { return drop[KeyOf(src, nbr)] })
		o.out[src] = row
		o.numEdges += len(row.ids) - len(ids)
		changed += removedHere
	}
	for dst, dstAdds := range byDst {
		sort.Slice(dstAdds, func(i, j int) bool { return dstAdds[i].Src < dstAdds[j].Src })
		ids, lbls := base.In(dst)
		row, _ := mergeRow(ids, lbls, dstAdds, func(e Edge) NodeID { return e.Src },
			func(nbr NodeID) bool { return drop[KeyOf(nbr, dst)] })
		o.in[dst] = row
	}
	o.deltaEdges += changed
	return o, nil
}

// mergeRow merges a sorted base adjacency row with sorted delta adds,
// unioning labels of coinciding neighbors and dropping removed ones.
// removedExisting counts base neighbors the drop filter eliminated.
func mergeRow(ids []NodeID, lbls []topics.Set, adds []Edge, nbrOf func(Edge) NodeID, dropped func(NodeID) bool) (patchRow, int) {
	row := patchRow{
		ids: make([]NodeID, 0, len(ids)+len(adds)),
		lbl: make([]topics.Set, 0, len(ids)+len(adds)),
	}
	removedExisting := 0
	emit := func(nbr NodeID, lbl topics.Set, existed bool) {
		if dropped(nbr) {
			if existed {
				removedExisting++
			}
			return
		}
		row.ids = append(row.ids, nbr)
		row.lbl = append(row.lbl, lbl)
	}
	i, j := 0, 0
	for i < len(ids) || j < len(adds) {
		switch {
		case j == len(adds) || (i < len(ids) && ids[i] < nbrOf(adds[j])):
			emit(ids[i], lbls[i], true)
			i++
		case i == len(ids) || nbrOf(adds[j]) < ids[i]:
			emit(nbrOf(adds[j]), adds[j].Label, false)
			j++
		default: // same neighbor: union labels (Freeze's duplicate rule)
			emit(ids[i], lbls[i].Union(adds[j].Label), true)
			i++
			j++
		}
	}
	return row, removedExisting
}

// Remove derives a view with the listed edges removed — the overlay
// counterpart of Graph.WithoutEdges, in O(|removed| · degree) instead of
// O(n+m). Unknown edges are ignored; node topics are preserved.
func Remove(base View, removed []Edge) *Overlay {
	o, err := NewOverlay(base, nil, removed)
	if err != nil {
		// Cannot happen: out-of-range removals are filtered, and nil adds
		// never error.
		panic(fmt.Sprintf("graph: Remove: %v", err))
	}
	return o
}

// Depth returns the number of overlay layers above the bottom CSR graph.
func (o *Overlay) Depth() int { return o.depth }

// DeltaEdges returns the cumulative number of edge changes (adds plus
// effective removals) the overlay stack accumulated since the bottom CSR
// was frozen — the quantity compaction thresholds compare against the
// bottom's edge count.
func (o *Overlay) DeltaEdges() int { return o.deltaEdges }

// Bottom returns the frozen CSR graph at the bottom of the overlay stack.
func (o *Overlay) Bottom() *Graph {
	v := o.base
	for {
		switch b := v.(type) {
		case *Overlay:
			v = b.base
		case *Graph:
			return b
		default:
			return nil
		}
	}
}

// PatchedOut calls f for every out-row this overlay layer rebuilt, with
// the row's merged neighbor ids (sorted ascending, as Out serves them).
// The weight-maintenance path uses it to compute decay weights for
// exactly the rows a batch touched — every other row keeps the weights of
// the layer below.
func (o *Overlay) PatchedOut(f func(u NodeID, ids []NodeID)) {
	for u, row := range o.out {
		f(u, row.ids)
	}
}

// Compact folds the overlay stack into a fresh frozen CSR graph,
// byte-identical to rebuilding the same edge set through a Builder.
func (o *Overlay) Compact() *Graph { return Freeze(o) }

// NumNodes returns the number of nodes (overlays never grow the node set).
func (o *Overlay) NumNodes() int { return o.base.NumNodes() }

// NumEdges returns the number of distinct (src, dst) edges in the view.
func (o *Overlay) NumEdges() int { return o.numEdges }

// Vocabulary returns the base's topic vocabulary.
func (o *Overlay) Vocabulary() *topics.Vocabulary { return o.base.Vocabulary() }

// NodeTopics returns labelN(u); edge deltas never change node profiles.
func (o *Overlay) NodeTopics(u NodeID) topics.Set { return o.base.NodeTopics(u) }

// OutDegree returns the number of accounts u follows.
func (o *Overlay) OutDegree(u NodeID) int {
	if row, ok := o.out[u]; ok {
		return len(row.ids)
	}
	return o.base.OutDegree(u)
}

// InDegree returns the number of followers of v.
func (o *Overlay) InDegree(v NodeID) int {
	if row, ok := o.in[v]; ok {
		return len(row.ids)
	}
	return o.base.InDegree(v)
}

// Out returns the followees of u and each edge's label, dsts ascending.
func (o *Overlay) Out(u NodeID) ([]NodeID, []topics.Set) {
	if row, ok := o.out[u]; ok {
		return row.ids, row.lbl
	}
	return o.base.Out(u)
}

// In returns the followers of v and each edge's label, srcs ascending.
func (o *Overlay) In(v NodeID) ([]NodeID, []topics.Set) {
	if row, ok := o.in[v]; ok {
		return row.ids, row.lbl
	}
	return o.base.In(v)
}

// EdgeLabel returns the label of edge (u, v) and whether it exists.
func (o *Overlay) EdgeLabel(u, v NodeID) (topics.Set, bool) {
	row, ok := o.out[u]
	if !ok {
		return o.base.EdgeLabel(u, v)
	}
	i := sort.Search(len(row.ids), func(i int) bool { return row.ids[i] >= v })
	if i < len(row.ids) && row.ids[i] == v {
		return row.lbl[i], true
	}
	return 0, false
}

// HasEdge reports whether u follows v.
func (o *Overlay) HasEdge(u, v NodeID) bool {
	_, ok := o.EdgeLabel(u, v)
	return ok
}

// Edges returns all edges in (src, dst) order, freshly allocated.
func (o *Overlay) Edges() []Edge { return edgesOf(o) }

// FollowerTopicCounts fills counts with |Γu(t)| per topic.
func (o *Overlay) FollowerTopicCounts(u NodeID, counts []uint32) {
	followerTopicCounts(o, u, counts)
}
