package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// MethodFactory builds a recommender over the reduced graph of a trial
// (the graph with the test edges removed). Building per trial is required
// because authority scores, transition matrices, etc. must not see the
// held-out edges. The returned recommender must be safe for concurrent
// ScoreCandidates calls (every implementation in this repository is:
// explorations allocate or pool their per-call state).
type MethodFactory struct {
	Name  string
	Build func(g graph.View) (ranking.Recommender, error)
}

// Curve is the recall/precision of one method at each cutoff N.
type Curve struct {
	Method    string
	Ns        []int
	Recall    []float64 // recall@Ns[i]
	Precision []float64 // precision@Ns[i]
	// MRR is the mean reciprocal rank of the hidden target over all
	// rankings (the link-prediction task has exactly one relevant item,
	// so MAP and MRR coincide).
	MRR float64
	// NDCG is the mean normalized discounted cumulative gain at the
	// largest cutoff: 1/log2(1+rank) when the target lands within it.
	NDCG float64
	// Tests is the total number of (trial × edge) rankings aggregated.
	Tests int
}

// RecallAt returns recall at cutoff n (0 if n is not a measured cutoff).
func (c Curve) RecallAt(n int) float64 {
	for i, m := range c.Ns {
		if m == n {
			return c.Recall[i]
		}
	}
	return 0
}

// accumulator gathers per-method tallies across trials. Floating-point
// sums are only ever extended in (edge, method) protocol order — the
// parallel path records per-ranking results first and reduces them in
// that same order, so accumulated values are bit-identical to the serial
// path's.
type accumulator struct {
	hits    [][]int // [method][nsIndex]
	rrSum   []float64
	ndcgSum []float64
	tests   int
	ns      []int
	maxN    int
}

func newAccumulator(methods int, ns []int) *accumulator {
	a := &accumulator{
		hits:    make([][]int, methods),
		rrSum:   make([]float64, methods),
		ndcgSum: make([]float64, methods),
		ns:      ns,
	}
	for i := range a.hits {
		a.hits[i] = make([]int, len(ns))
	}
	for _, n := range ns {
		if n > a.maxN {
			a.maxN = n
		}
	}
	return a
}

// observe folds one ranking outcome for method mi into the tallies.
func (a *accumulator) observe(mi, rank int) {
	for ni, n := range a.ns {
		if rank <= n {
			a.hits[mi][ni]++
		}
	}
	a.rrSum[mi] += 1 / float64(rank)
	if rank <= a.maxN {
		a.ndcgSum[mi] += 1 / math.Log2(1+float64(rank))
	}
}

// curves renders the final averaged curves.
func (a *accumulator) curves(methods []MethodFactory) []Curve {
	out := make([]Curve, len(methods))
	for mi, m := range methods {
		c := Curve{Method: m.Name, Ns: a.ns, Tests: a.tests,
			MRR: a.rrSum[mi] / float64(a.tests), NDCG: a.ndcgSum[mi] / float64(a.tests)}
		c.Recall = make([]float64, len(a.ns))
		c.Precision = make([]float64, len(a.ns))
		for ni, n := range a.ns {
			c.Recall[ni] = float64(a.hits[mi][ni]) / float64(a.tests)
			c.Precision[ni] = float64(a.hits[mi][ni]) / (float64(n) * float64(a.tests))
		}
		out[mi] = c
	}
	return out
}

// evalMetrics bundles the evaluation-path metric handles, resolved once
// per run; a nil receiver records nothing.
type evalMetrics struct {
	rankings *metrics.Counter
	busy     *metrics.Gauge
}

func newEvalMetrics(reg *metrics.Registry) *evalMetrics {
	if reg == nil {
		return nil
	}
	return &evalMetrics{
		rankings: reg.Counter("eval_rankings_total",
			"Candidate rankings scored by the evaluation engine."),
		busy: reg.Gauge("eval_worker_busy",
			"Evaluation workers currently scoring a ranking."),
	}
}

func (m *evalMetrics) ranked() {
	if m != nil {
		m.rankings.Inc()
	}
}

func (m *evalMetrics) setBusy(d float64) {
	if m != nil {
		m.busy.Add(d)
	}
}

// RunLinkPrediction executes the full protocol: for each trial it samples
// a test set (subject to filters), removes it, rebuilds every method on
// the reduced graph, ranks target-vs-negatives per test edge and
// accumulates hits at each cutoff. wantTopic >= 0 forces the evaluation
// topic (Figure 9); pass topics.None otherwise.
//
// With Protocol.Parallelism != 1 the per-trial method builds and the
// (test edge × method) rankings are spread over a worker pool; see
// RunLinkPredictionCtx for the determinism guarantees.
func RunLinkPrediction(g graph.View, p Protocol, methods []MethodFactory, ns []int, wantTopic topics.ID, filters ...EdgeFilter) ([]Curve, error) {
	return RunLinkPredictionCtx(context.Background(), g, p, methods, ns, wantTopic, filters...)
}

// RunLinkPredictionCtx is RunLinkPrediction under a context: cancellation
// stops the run between rankings and returns the context's error.
//
// Parallel runs are bit-identical to serial ones: test-edge selection and
// negative sampling consume the trial RNG in exactly the serial order
// before any worker starts, each worker writes its ranking outcome into a
// dedicated slot, and the slots are reduced in (edge, method) protocol
// order — so every floating-point sum sees the same operands in the same
// sequence at any Parallelism setting.
func RunLinkPredictionCtx(ctx context.Context, g graph.View, p Protocol, methods []MethodFactory, ns []int, wantTopic topics.ID, filters ...EdgeFilter) ([]Curve, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("eval: no cutoffs given")
	}
	workers := p.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	em := newEvalMetrics(p.Metrics)
	acc := newAccumulator(len(methods), ns)

	for trial := 0; trial < p.Trials; trial++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := rand.New(rand.NewPCG(p.Seed+uint64(trial)*1013, 0x5eed))
		testSet, err := SelectTestEdges(g, p, r, wantTopic, filters...)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
		removed := make([]graph.Edge, len(testSet))
		for i, te := range testSet {
			removed[i] = te.Edge
		}
		// The reduced graph is an O(|testSet|) overlay over g, not a full
		// CSR rebuild; overlays are observationally identical to the
		// rebuilt graph, so curves are unchanged (and bit-identical).
		reduced := graph.Remove(g, removed)

		recs, err := buildMethods(ctx, reduced, methods, workers)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}

		if workers > 1 {
			err = rankTrialParallel(ctx, reduced, p, r, testSet, recs, acc, workers, em)
		} else {
			err = rankTrialSerial(ctx, reduced, p, r, testSet, recs, acc, em)
		}
		if err != nil {
			return nil, err
		}
	}
	return acc.curves(methods), nil
}

// buildMethods constructs every method's recommender over the reduced
// graph. Builds are independent (each sees only its own engine state), so
// with workers > 1 they run concurrently.
func buildMethods(ctx context.Context, reduced graph.View, methods []MethodFactory, workers int) ([]ranking.Recommender, error) {
	recs := make([]ranking.Recommender, len(methods))
	errs := make([]error, len(methods))
	build := func(i int) {
		rec, err := methods[i].Build(reduced)
		if err != nil {
			errs[i] = fmt.Errorf("building %s: %w", methods[i].Name, err)
			return
		}
		recs[i] = rec
	}
	if workers > 1 && len(methods) > 1 {
		var wg sync.WaitGroup
		for i := range methods {
			wg.Add(1)
			go func() {
				defer wg.Done()
				build(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range methods {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			build(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// candidateList assembles the ranked candidate set of one test edge:
// the sampled negatives followed by the hidden target.
func candidateList(reduced graph.View, r *rand.Rand, p Protocol, te TestEdge) []graph.NodeID {
	negs := SampleNegatives(reduced, r, p.Negatives, te.Edge.Src, te.Edge.Dst)
	return append(append(make([]graph.NodeID, 0, len(negs)+1), negs...), te.Edge.Dst)
}

// rankOne scores one (test edge, method) pair and returns the target's
// 1-based rank among the candidates.
func rankOne(rec ranking.Recommender, te TestEdge, cands []graph.NodeID) int {
	scores := rec.ScoreCandidates(te.Edge.Src, te.Topic, cands)
	target := scores[len(scores)-1]
	return RankOfTarget(cands[:len(cands)-1], scores[:len(scores)-1], te.Edge.Dst, target)
}

// rankTrialSerial is the reference path (Parallelism 1): rankings run
// edge-by-edge, method-by-method on the calling goroutine, exactly the
// pre-parallelism implementation.
func rankTrialSerial(ctx context.Context, reduced graph.View, p Protocol, r *rand.Rand, testSet []TestEdge, recs []ranking.Recommender, acc *accumulator, em *evalMetrics) error {
	for _, te := range testSet {
		if err := ctx.Err(); err != nil {
			return err
		}
		cands := candidateList(reduced, r, p, te)
		for mi, rec := range recs {
			acc.observe(mi, rankOne(rec, te, cands))
			em.ranked()
		}
		acc.tests++
	}
	return nil
}

// rankTrialParallel spreads the trial's (test edge × method) rankings
// over a pool of workers. Negatives are drawn serially in test-set order
// first (matching the serial path's RNG consumption draw for draw), each
// ranking writes its result into its own slot, and the slots are reduced
// in serial protocol order afterwards.
func rankTrialParallel(ctx context.Context, reduced graph.View, p Protocol, r *rand.Rand, testSet []TestEdge, recs []ranking.Recommender, acc *accumulator, workers int, em *evalMetrics) error {
	cands := make([][]graph.NodeID, len(testSet))
	for i, te := range testSet {
		cands[i] = candidateList(reduced, r, p, te)
	}

	jobs := len(testSet) * len(recs)
	if workers > jobs {
		workers = jobs
	}
	ranks := make([]int, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= jobs || ctx.Err() != nil {
					return
				}
				ei, mi := j/len(recs), j%len(recs)
				em.setBusy(1)
				ranks[j] = rankOne(recs[mi], testSet[ei], cands[ei])
				em.setBusy(-1)
				em.ranked()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Deterministic reduction: same (edge, method) order as the serial
	// loop, so float sums are bit-identical.
	for ei := range testSet {
		for mi := range recs {
			acc.observe(mi, ranks[ei*len(recs)+mi])
		}
		acc.tests++
	}
	return nil
}
