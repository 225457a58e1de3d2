package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/topics"
)

// BenchEvalSide is one measured configuration of the evaluation engine.
type BenchEvalSide struct {
	// Parallelism is the worker count the side ran at (1 = the serial
	// reference path).
	Parallelism int
	// WallNs is the wall-clock time of one full evaluation sweep.
	WallNs int64
	// NsPerRanking divides the wall time over the rankings performed.
	NsPerRanking int64
	// AllocsPerRanking and BytesPerRanking are testing.Benchmark's
	// per-iteration memory numbers divided over the rankings.
	AllocsPerRanking int64
	BytesPerRanking  int64
}

// BenchEvalResult times the Figure 4 evaluation sweep at parallelism 1
// and at NumCPU — the headline numbers of the parallel evaluation
// engine. Written to BENCH_eval.json by `trbench -exp bench-eval`.
type BenchEvalResult struct {
	Experiment string
	// NumCPU records the machine the numbers came from; the speedup
	// cannot exceed it.
	NumCPU  int
	Trials  int
	Methods int
	// Rankings is the total (test edge × method) count per sweep.
	Rankings int
	Serial   BenchEvalSide
	Parallel BenchEvalSide
	// Speedup is Serial.WallNs / Parallel.WallNs.
	Speedup float64
	// CurvesMatch confirms the two sweeps returned bit-identical curves
	// (the determinism contract of eval.Protocol.Parallelism).
	CurvesMatch bool
}

// BenchEval measures the link-prediction evaluation engine itself: the
// same fig4 method set, once on the serial reference path and once with
// the worker pool at NumCPU. testing.Benchmark supplies the allocation
// accounting.
func (r *Runner) BenchEval() (*BenchEvalResult, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	methods := r.allMethods(tw)
	// The parallel side runs at NumCPU, floored at two workers so the
	// worker-pool engine is exercised even on single-core machines — there
	// the comparison shows the pool's overhead rather than a wall-clock
	// speedup.
	parWorkers := runtime.GOMAXPROCS(0)
	if parWorkers < 2 {
		parWorkers = 2
	}

	run := func(parallelism int) ([]eval.Curve, error) {
		p := r.protocol()
		p.Parallelism = parallelism
		return eval.RunLinkPrediction(tw.Graph, p, methods, recallCutoffs, topics.None)
	}

	// One verification sweep per side, compared curve-for-curve, before
	// any timing: speed without invariance would be worthless.
	serialCurves, err := run(1)
	if err != nil {
		return nil, err
	}
	parCurves, err := run(parWorkers)
	if err != nil {
		return nil, err
	}

	res := &BenchEvalResult{
		Experiment:  "bench-eval",
		NumCPU:      runtime.NumCPU(),
		Trials:      r.cfg.Protocol.Trials,
		Methods:     len(methods),
		CurvesMatch: reflect.DeepEqual(serialCurves, parCurves),
	}
	if len(serialCurves) > 0 {
		res.Rankings = serialCurves[0].Tests * len(methods)
	}

	side := func(parallelism int) (BenchEvalSide, error) {
		var runErr error
		bres := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(parallelism); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return BenchEvalSide{}, runErr
		}
		s := BenchEvalSide{Parallelism: parallelism, WallNs: bres.NsPerOp()}
		if res.Rankings > 0 {
			s.NsPerRanking = bres.NsPerOp() / int64(res.Rankings)
			s.AllocsPerRanking = int64(bres.AllocsPerOp()) / int64(res.Rankings)
			s.BytesPerRanking = int64(bres.AllocedBytesPerOp()) / int64(res.Rankings)
		}
		return s, nil
	}
	if res.Serial, err = side(1); err != nil {
		return nil, err
	}
	if res.Parallel, err = side(parWorkers); err != nil {
		return nil, err
	}
	if res.Parallel.WallNs > 0 {
		res.Speedup = float64(res.Serial.WallNs) / float64(res.Parallel.WallNs)
	}
	return res, nil
}

// String renders the two sides and the headline speedup.
func (b *BenchEvalResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "evaluation sweep: fig4 method set, %d methods × %d rankings, NumCPU %d\n",
		b.Methods, b.Rankings, b.NumCPU)
	row := func(label string, s BenchEvalSide) {
		fmt.Fprintf(&sb, "%-22s workers %-3d wall %-12s %8d ns/ranking %6d allocs/ranking %8d B/ranking\n",
			label, s.Parallelism, time.Duration(s.WallNs).Round(time.Millisecond),
			s.NsPerRanking, s.AllocsPerRanking, s.BytesPerRanking)
	}
	row("serial (reference)", b.Serial)
	row("parallel", b.Parallel)
	fmt.Fprintf(&sb, "speedup %.2fx, curves match: %v\n", b.Speedup, b.CurvesMatch)
	return sb.String()
}
