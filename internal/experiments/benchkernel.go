package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// BenchKernelSide is one measured exploration path.
type BenchKernelSide struct {
	// Name is "dense" (the seed float64 dense-mode kernel) or
	// "kernel-degree"/"kernel-bfs" (the cache-topology-aware float32
	// kernel under each relabeling order).
	Name string
	// WallNs is the time of one convergence-depth exploration.
	WallNs int64
	// AllocsPerOp and BytesPerOp are testing.Benchmark's per-iteration
	// memory numbers.
	AllocsPerOp int64
	BytesPerOp  int64
}

// BenchKernelResult compares the seed dense exploration against the
// relabeled float32 kernel — the tentpole speedup measurement — and
// verifies the kernel's ordering contract while at it. Written to
// BENCH_kernel.json by `trbench -exp bench-kernel`.
type BenchKernelResult struct {
	Experiment string
	// Nodes and Edges describe the benchmark graph.
	Nodes, Edges int
	// Dense is the exact float64 baseline every kernel run is compared
	// against.
	Dense        BenchKernelSide
	KernelDegree BenchKernelSide
	KernelBFS    BenchKernelSide
	// SpeedupDegree and SpeedupBFS are Dense.WallNs over each kernel
	// side. The relabeling design targets >= 2x on the deep exploration.
	SpeedupDegree, SpeedupBFS float64
	// TopK and KendallSources parameterize the ordering check: for
	// KendallSources rotating sources the top-TopK σ rankings of the
	// dense and kernel paths are compared.
	TopK, KendallSources int
	// MaxKendall is the worst normalized Kendall distance observed
	// between the dense and kernel top-K rankings; the kernel's bit-
	// safety contract bounds it by 1e-3.
	MaxKendall float64
	// QueryWallNsDense and QueryWallNsKernel time the shallow depth-2
	// exploration (the query-time phase of Algorithm 2) on both paths.
	QueryWallNsDense, QueryWallNsKernel int64
}

// topSigma ranks an exploration's reached set by σ on topic 0.
func topSigma(x *core.Exploration, k int) []ranking.Scored {
	top := ranking.NewTopN(k)
	for _, v := range x.Reached {
		if s := x.Sigma(v, 0); s > 0 {
			top.Insert(v, s)
		}
	}
	return top.List()
}

// BenchKernel measures the cache-aware kernel's headline claim: after a
// degree- or BFS-ordered relabeling, the blocked float32 exploration
// converges >= 2x faster than the seed dense path while preserving the
// top-K ordering (Kendall distance <= 1e-3).
func (r *Runner) BenchKernel() (*BenchKernelResult, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	eng, err := r.engineFor(tw)
	if err != nil {
		return nil, err
	}
	engDeg := eng.Optimized(graph.DegreeOrder)
	engBFS := eng.Optimized(graph.BFSOrder)

	n := tw.Graph.NumNodes()
	res := &BenchKernelResult{
		Experiment:     "bench-kernel",
		Nodes:          n,
		Edges:          tw.Graph.NumEdges(),
		TopK:           100,
		KendallSources: 8,
	}

	// Ordering contract first: the kernel must rank like the exact path.
	ts := []topics.ID{0}
	for i := 0; i < res.KendallSources; i++ {
		src := graph.NodeID(i * (n / res.KendallSources))
		want := topSigma(eng.ExploreOpts(src, ts, core.ExploreOptions{Mode: core.DenseMode}), res.TopK)
		for _, ke := range []*core.Engine{engDeg, engBFS} {
			got := topSigma(ke.ExploreOpts(src, ts, core.ExploreOptions{Mode: core.KernelMode}), res.TopK)
			if d := ranking.KendallTopK(want, got); d > res.MaxKendall {
				res.MaxKendall = d
			}
		}
	}
	if res.MaxKendall > 1e-3 {
		return nil, fmt.Errorf("bench-kernel: kernel ordering diverged from dense: Kendall distance %g > 1e-3", res.MaxKendall)
	}

	side := func(name string, e *core.Engine, mode core.Mode, depth int) BenchKernelSide {
		scratch := core.NewScratch(e)
		bres := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.ExploreOpts(graph.NodeID(i%n), nil, core.ExploreOptions{
					Mode: mode, MaxDepth: depth, Scratch: scratch,
				})
			}
		})
		return BenchKernelSide{
			Name:        name,
			WallNs:      bres.NsPerOp(),
			AllocsPerOp: int64(bres.AllocsPerOp()),
			BytesPerOp:  bres.AllocedBytesPerOp(),
		}
	}
	res.Dense = side("dense", eng, core.DenseMode, 0)
	res.KernelDegree = side("kernel-degree", engDeg, core.KernelMode, 0)
	res.KernelBFS = side("kernel-bfs", engBFS, core.KernelMode, 0)
	if res.KernelDegree.WallNs > 0 {
		res.SpeedupDegree = float64(res.Dense.WallNs) / float64(res.KernelDegree.WallNs)
	}
	if res.KernelBFS.WallNs > 0 {
		res.SpeedupBFS = float64(res.Dense.WallNs) / float64(res.KernelBFS.WallNs)
	}
	res.QueryWallNsDense = side("dense-depth2", eng, core.DenseMode, 2).WallNs
	res.QueryWallNsKernel = side("kernel-depth2", engDeg, core.KernelMode, 2).WallNs
	return res, nil
}

// String renders the three sides, the speedups and the ordering bound.
func (b *BenchKernelResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "exploration kernel: %d nodes, %d edges, convergence depth\n", b.Nodes, b.Edges)
	row := func(s BenchKernelSide) {
		fmt.Fprintf(&sb, "%-16s wall %-12s %8d allocs/op %12d B/op\n",
			s.Name, time.Duration(s.WallNs).Round(time.Microsecond), s.AllocsPerOp, s.BytesPerOp)
	}
	row(b.Dense)
	row(b.KernelDegree)
	row(b.KernelBFS)
	fmt.Fprintf(&sb, "speedup %.2fx (degree order), %.2fx (BFS order)\n", b.SpeedupDegree, b.SpeedupBFS)
	fmt.Fprintf(&sb, "depth-2 query: dense %s, kernel %s\n",
		time.Duration(b.QueryWallNsDense).Round(time.Microsecond),
		time.Duration(b.QueryWallNsKernel).Round(time.Microsecond))
	fmt.Fprintf(&sb, "ordering: max Kendall distance %.2g over %d sources x top-%d (bound 1e-3)\n",
		b.MaxKendall, b.KendallSources, b.TopK)
	return sb.String()
}
