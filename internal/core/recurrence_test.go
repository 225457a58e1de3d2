package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/authority"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/topics"
)

// refExplore is the reference hop recurrence: Explore's recurrence over
// separate node-indexed arrays — per-hop deltas in two interleaved hop
// arrays, frontier marks in bool arrays, totals in their own arrays — with
// the similarity factor read per edge from SimMatrix.MaxSim. It is the
// form exploreDense had before its rows held deltas, totals and marks
// together, kept as the differential reference the way fold_test.go keeps
// the map fold. Every σ and topo value and the Reached order of
// exploreDense must equal it bit for bit.
func refExplore(e *Engine, src graph.NodeID, ts []topics.ID, opts ExploreOptions) *Exploration {
	if ts == nil {
		for t := range e.g.Vocabulary().Len() {
			ts = append(ts, topics.ID(t))
		}
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = e.params.MaxDepth
	}
	stop := opts.Stop
	k, n := len(ts), e.g.NumNodes()
	stride := k + 2
	bOff, abOff := k, k+1
	cur, next := make([]float64, n*stride), make([]float64, n*stride)
	inNext := make([]bool, n)
	resSigma := make([]float64, n*k)
	resTopoB, resTopoAB := make([]float64, n), make([]float64, n)
	resIn := make([]bool, n)
	var resList, curList, nextList []graph.NodeID
	x := &Exploration{Src: src, Topics: ts, k: k}

	beta, alpha := e.params.Beta, e.params.Alpha
	ab := alpha * beta
	sim := func(lbl topics.Set, t topics.ID) float64 {
		if e.params.Variant == TrNoSim || e.params.Variant == TopoOnly {
			return 1
		}
		return e.sim.MaxSim(lbl, t)
	}
	acols, _ := e.authCols(NewScratch(e), ts)

	curList = append(curList, src)
	cur[int(src)*stride+bOff] = 1
	cur[int(src)*stride+abOff] = 1
	for depth := 1; depth <= maxDepth && len(curList) > 0; depth++ {
		if ctxDone(opts.Ctx) {
			x.Cancelled = true
			break
		}
		nextList = nextList[:0]
		expanded := 0
		for _, w := range curList {
			if opts.Ctx != nil {
				if expanded++; expanded%cancelCheckStride == 0 && ctxDone(opts.Ctx) {
					x.Cancelled = true
					break
				}
			}
			if stop != nil && w != src && stop(w) {
				continue
			}
			wBase := int(w) * stride
			wTopoAB, wTopoB := cur[wBase+abOff], cur[wBase+bOff]
			dsts, lbls := e.g.Out(w)
			wrow := e.outWeights(w)
			for i, v := range dsts {
				vBase := int(v) * stride
				if !inNext[v] {
					inNext[v] = true
					nextList = append(nextList, v)
					clear(next[vBase : vBase+stride])
				}
				ew := 1.0
				if wrow != nil {
					ew = float64(wrow[i])
				}
				for ti, t := range ts {
					unit := sim(lbls[i], t) * ew
					if ac := acols[ti]; ac != nil {
						unit *= ac[v]
					}
					next[vBase+ti] += beta*cur[wBase+ti] + wTopoAB*(ab*unit)
				}
				next[vBase+abOff] += ab * wTopoAB
				next[vBase+bOff] += beta * wTopoB
			}
		}
		if x.Cancelled {
			break
		}
		var topoMass float64
		perTopic := make([]float64, k)
		for _, v := range nextList {
			vBase, rBase := int(v)*stride, int(v)*k
			if !resIn[v] {
				resIn[v] = true
				resList = append(resList, v)
				if v != src {
					x.Reached = append(x.Reached, v)
				}
			}
			for ti := 0; ti < k; ti++ {
				d := next[vBase+ti]
				resSigma[rBase+ti] += d
				perTopic[ti] += d
			}
			resTopoB[v] += next[vBase+bOff]
			resTopoAB[v] += next[vBase+abOff]
			topoMass += next[vBase+bOff]
			inNext[v] = false
		}
		x.Iterations = depth
		for ti, t := range ts {
			perTopic[ti] *= e.Norm(t)
		}
		denom := float64(max(1, len(resList)))
		converged := maxOf(perTopic)/denom < e.params.Tol && topoMass/denom < e.params.Tol
		curList, nextList = nextList, curList
		cur, next = next, cur
		if converged {
			x.Converged = true
			break
		}
	}
	x.dScored = len(resList)
	x.sigma = make(map[graph.NodeID][]float64)
	x.topoB = make(map[graph.NodeID]float64)
	x.topoAB = make(map[graph.NodeID]float64)
	for _, v := range resList {
		x.sigma[v] = resSigma[int(v)*k : int(v)*k+k]
		x.topoB[v], x.topoAB[v] = resTopoB[v], resTopoAB[v]
	}
	return x
}

// countdownCtx is a context whose Err reports cancellation from its
// (left+1)-th call on, so an exploration stops at the same check — between
// hops or inside one — on every run. calls counts the checks made.
type countdownCtx struct {
	context.Context
	left, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// streamedTestEngine derives e over a 3-layer overlay stack (each layer
// adds and removes a few edges, some with labels the base graph lacks)
// and decay-weights every edge, the engine shape a streaming manager
// explores.
func streamedTestEngine(t *testing.T, e *Engine) *Engine {
	t.Helper()
	g := e.g.(*graph.Graph)
	decay := func(src, dst graph.NodeID) float32 {
		h := (uint32(src)*2654435761 ^ uint32(dst)*40503) >> 8
		return 0.25 + 0.75*float32(h%1024+1)/1024
	}
	wts := graph.BuildWeights(g, decay)
	rng := rand.New(rand.NewSource(5))
	n := g.NumNodes()
	var view graph.View = g
	for layer := 0; layer < 3; layer++ {
		var adds, removes []graph.Edge
		for len(adds) < 40 {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v && !view.HasEdge(u, v) && !slicesHasEdge(adds, u, v) {
				adds = append(adds, graph.Edge{Src: u, Dst: v, Label: topics.Set(rng.Uint32()) & (1<<g.Vocabulary().Len() - 1)})
			}
		}
		for len(removes) < 10 {
			u := graph.NodeID(rng.Intn(n))
			if dsts, _ := view.Out(u); len(dsts) > 0 {
				if v := dsts[rng.Intn(len(dsts))]; !slicesHasEdge(removes, u, v) {
					removes = append(removes, graph.Edge{Src: u, Dst: v})
				}
			}
		}
		ov, err := graph.NewOverlay(view, adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[graph.NodeID][]float32)
		ov.PatchedOut(func(u graph.NodeID, ids []graph.NodeID) {
			ws := make([]float32, len(ids))
			for i, v := range ids {
				ws[i] = decay(u, v)
			}
			rows[u] = ws
		})
		wts = wts.Layer(rows)
		view = ov
	}
	d, err := e.Derive(view, authority.Compute(view))
	if err != nil {
		t.Fatal(err)
	}
	return d.WithEdgeWeights(wts)
}

func slicesHasEdge(es []graph.Edge, u, v graph.NodeID) bool {
	for _, e := range es {
		if e.Src == u && e.Dst == v {
			return true
		}
	}
	return false
}

// TestRecurrenceMatchesReference runs the hop recurrence against
// refExplore at widths 1, 3 and the full vocabulary, pruned at depth 2
// with a Stop set and converged, for every variant on a Twitter-shaped
// graph and on a decay-weighted 3-layer overlay of it, all through one
// scratch per engine: every σ and topo value and the Reached order must
// be bit-identical, read in place and copied out.
func TestRecurrenceMatchesReference(t *testing.T) {
	base := twitterEngine(t, 1500, TrFull)
	engines := map[string]*Engine{"overlay+decay": streamedTestEngine(t, base)}
	for _, v := range []Variant{TrFull, TrNoAuth, TrNoSim, TopoOnly} {
		p := base.params
		p.Variant = v
		e, err := NewEngine(base.g, base.auth, base.sim, p)
		if err != nil {
			t.Fatal(err)
		}
		engines[v.String()] = e
	}
	stop := func(v graph.NodeID) bool { return v%11 == 0 }
	widths := map[string][]topics.ID{"1": {4}, "3": {0, 9, 17}, "all": nil}
	for name, e := range engines {
		s := NewScratch(e)
		for _, src := range []graph.NodeID{1, 42, 777, 1499} {
			for wn, ts := range widths {
				for _, opts := range []ExploreOptions{{MaxDepth: 2, Stop: stop}, {}} {
					label := fmt.Sprintf("%s src %d width %s depth %d", name, src, wn, opts.MaxDepth)
					want := refExplore(e, src, ts, opts)
					if opts.MaxDepth == 0 && !want.Converged {
						t.Fatalf("%s: reference did not converge", label)
					}
					copied := e.ExploreOpts(src, ts, opts)
					requireSameExploration(t, label+" copied", e, copied, want)
					opts.Scratch = s
					requireSameExploration(t, label+" in place", e, e.ExploreOpts(src, ts, opts), want)
				}
			}
		}
	}
}

// TestRecurrenceCancelMatchesReference cancels converged explorations at
// every context check in turn — between hops and, on a frontier past
// cancelCheckStride, inside one — through one scratch shared across
// widths: each cancelled result and each full run after it must equal
// refExplore bit for bit, so an abandoned hop leaves no deltas or marks
// behind.
func TestRecurrenceCancelMatchesReference(t *testing.T) {
	ds := gen.RandomWith(6000, 72000, 3)
	p := DefaultParams()
	p.Beta = 0.02
	e, err := NewEngine(ds.Graph, authority.Compute(ds.Graph), ds.Sim, p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(e)
	for _, ts := range [][]topics.ID{{2}, {0, 5, 11}} {
		probe := &countdownCtx{Context: context.Background(), left: 1 << 30}
		full := e.ExploreOpts(7, ts, ExploreOptions{Ctx: probe, Scratch: s})
		if probe.calls <= full.Iterations+1 {
			t.Fatalf("width %d: %d context checks over %d hops, none inside a hop", len(ts), probe.calls, full.Iterations)
		}
		for left := 0; left < probe.calls; left++ {
			label := fmt.Sprintf("width %d cancelled after %d checks", len(ts), left)
			got := e.ExploreOpts(7, ts, ExploreOptions{Ctx: &countdownCtx{Context: context.Background(), left: left}, Scratch: s})
			want := refExplore(e, 7, ts, ExploreOptions{Ctx: &countdownCtx{Context: context.Background(), left: left}})
			if !got.Cancelled {
				t.Fatalf("%s: not cancelled", label)
			}
			requireSameExploration(t, label, e, got, want)
			requireSameExploration(t, label+", then a full run", e,
				e.ExploreOpts(7, ts, ExploreOptions{Scratch: s}), refExplore(e, 7, ts, ExploreOptions{}))
		}
	}
}
