package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/katz"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/twitterrank"
	"repro/internal/workload"
)

// ThroughputResult reports each recommendation method's service-level
// behaviour under a realistic (topic-skewed) query stream — the
// scalability motivation of the paper's introduction quantified.
type ThroughputResult struct {
	Queries     int
	Concurrency int
	Reports     []workload.Report
}

// ExtThroughput plays the same query stream through exact Tr, the
// landmark approximation, Katz and TwitterRank.
func (r *Runner) ExtThroughput() (*ThroughputResult, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	eng, err := r.engineFor(tw)
	if err != nil {
		return nil, err
	}
	lms, err := landmark.Select(tw.Graph, landmark.InDeg, r.cfg.Landmarks/2+1, landmark.DefaultSelectConfig())
	if err != nil {
		return nil, err
	}
	store, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: r.cfg.StoreTopN, Metrics: r.cfg.Metrics})
	approx, err := landmark.NewApprox(eng, store, r.cfg.ApproxDepth)
	if err != nil {
		return nil, err
	}
	kz, err := katz.New(tw.Graph, r.cfg.Params.Beta, 0)
	if err != nil {
		return nil, err
	}
	twr, err := twitterrank.New(twitterrank.InputFromProfiles(tw.Graph), twitterrank.DefaultParams())
	if err != nil {
		return nil, err
	}

	wcfg := workload.DefaultConfig()
	wcfg.Queries = 60
	wcfg.Seed = r.cfg.Seed
	queries, err := workload.Generate(tw.Graph, wcfg)
	if err != nil {
		return nil, err
	}
	res := &ThroughputResult{Queries: len(queries), Concurrency: 4}
	for _, rec := range []ranking.Recommender{approx, core.NewRecommender(eng), kz, twr} {
		res.Reports = append(res.Reports, workload.Run(rec, queries, res.Concurrency))
	}
	return res, nil
}

// String renders one row per method.
func (t *ThroughputResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query stream: %d queries, concurrency %d, topic-skewed\n", t.Queries, t.Concurrency)
	for _, rep := range t.Reports {
		fmt.Fprintln(&b, rep.String())
	}
	return b.String()
}
