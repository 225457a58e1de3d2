package subscribe

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// g8kEffects builds a Lazy manager on the 8000-node Twitter graph (gen
// seed 1, 30 In-Deg landmarks, top-500 lists) and records the batch
// effects of 64 batches of 16 random follow toggles applied to it. It
// returns the manager, the effects and the vocabulary size.
func g8kEffects(b *testing.B) (*dynamic.Manager, []dynamic.BatchEffect, int) {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 8000
	ds, err := gen.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, 30, landmark.DefaultSelectConfig())
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := dynamic.NewManager(ds.Graph, lms, dynamic.Config{
		Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 500, QueryDepth: 2, Strategy: dynamic.Lazy,
	})
	if err != nil {
		b.Fatal(err)
	}
	var effects []dynamic.BatchEffect
	mgr.SetBatchHook(func(fx dynamic.BatchEffect) { effects = append(effects, fx) })
	vocab := ds.Graph.Vocabulary().Len()
	rng := rand.New(rand.NewSource(1))
	batch := make([]dynamic.Update, 16)
	for range 64 {
		for j := range batch {
			src := graph.NodeID(rng.Intn(cfg.Nodes))
			dst := graph.NodeID(rng.Intn(cfg.Nodes - 1))
			if dst >= src {
				dst++
			}
			label := topics.NewSet(topics.ID(rng.Intn(vocab)))
			batch[j] = dynamic.Update{Edge: graph.Edge{Src: src, Dst: dst, Label: label}, Add: !ds.Graph.HasEdge(src, dst)}
		}
		if err := mgr.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	mgr.SetBatchHook(nil)
	return mgr, effects, vocab
}

// BenchmarkHubOnBatch times Hub.OnBatch, the marking of subscription
// groups by one batch effect, at 64 and 1024 groups on the 8000-node
// graph of g8kEffects. Each group subscribes a distinct random (user,
// topic) key, with its user's depth-2 neighborhood (≈800 nodes) as
// dependency set. Each op delivers the next recorded effect
// (effects=recorded: up to 32 endpoints plus the 30 landmarks the Lazy
// manager stales, so nearly every group is hit within its first nodes;
// one effect is a compaction's global one), or the same effect cut to
// its endpoints (effects=endpoints: about one group in eight holds none
// of them and is scanned whole). The re-score worker is parked inside
// its first Compute, so an op measures marking alone: its marks coalesce
// into queued entries. B/pair is the heap the hub retains per (group,
// dependency node) pair after registration, marked/batch the groups one
// effect marks.
func BenchmarkHubOnBatch(b *testing.B) {
	mgr, effects, vocab := g8kEffects(b)
	nodes := mgr.Graph().NumNodes()
	endpoints := make([]dynamic.BatchEffect, len(effects))
	for i, fx := range effects {
		endpoints[i] = dynamic.BatchEffect{Epoch: fx.Epoch, Endpoints: fx.Endpoints, OldestAt: fx.OldestAt}
	}
	for _, groups := range []int{64, 1024} {
		rng := rand.New(rand.NewSource(2))
		seen := make(map[Key]bool, groups)
		keys := make([]Key, 0, groups)
		nbr := make(map[graph.NodeID][]graph.NodeID, groups)
		pairs := 0
		for len(keys) < groups {
			k := Key{User: graph.NodeID(rng.Intn(nodes)), Topic: topics.ID(rng.Intn(vocab)), N: 10, Method: "landmark"}
			if seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
			if nbr[k.User] == nil {
				nbr[k.User] = mgr.Neighborhood(k.User, false)
			}
			pairs += len(nbr[k.User])
		}
		for _, fxs := range []struct {
			name    string
			effects []dynamic.BatchEffect
		}{{"recorded", effects}, {"endpoints", endpoints}} {
			b.Run(fmt.Sprintf("groups=%d/effects=%s", groups, fxs.name), func(b *testing.B) {
				effects := fxs.effects
				park := make(chan struct{})
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				h := New(Config{
					Compute: func(context.Context, Key) (Result, error) {
						<-park
						return Result{}, nil
					},
					Neighborhood: func(k Key) []graph.NodeID { return nbr[k.User] },
				})
				defer h.Close()
				defer close(park)
				for _, k := range keys {
					if _, err := h.Register(k); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				marks := h.Stats().RescoreMarks
				b.ReportAllocs()
				b.ResetTimer()
				for i := range b.N {
					h.OnBatch(effects[i%len(effects)])
				}
				b.StopTimer()
				b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(pairs), "B/pair")
				b.ReportMetric(float64(h.Stats().RescoreMarks-marks)/float64(b.N), "marked/batch")
			})
		}
	}
}
