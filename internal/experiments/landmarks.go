package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// Table5Result reproduces Table 5: per-strategy landmark selection time
// and per-landmark recommendation computation time.
type Table5Result struct {
	Rows []Table5Row
}

// Table5Row is one strategy's costs.
type Table5Row struct {
	Strategy landmark.Strategy
	// SelectPerLandmark is the selection time divided by the number of
	// landmarks selected (the paper's "select. (ms)" column).
	SelectPerLandmark time.Duration
	// ComputePerLandmark is the average preprocessing exploration time
	// per landmark (the paper's "comput. (s)" column).
	ComputePerLandmark time.Duration
	// Landmarks actually selected.
	Landmarks int
}

// Table5 measures selection and preprocessing cost for all 11 strategies
// on the Twitter dataset.
func (r *Runner) Table5() (*Table5Result, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	eng, err := r.engineFor(tw)
	if err != nil {
		return nil, err
	}
	selCfg := r.selectConfig(tw.Graph)
	res := &Table5Result{}
	for _, strat := range landmark.Strategies {
		t0 := time.Now()
		lms, err := landmark.Select(tw.Graph, strat, r.cfg.Landmarks, selCfg)
		selDur := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("table5 %s: %w", strat, err)
		}
		if len(lms) == 0 {
			return nil, fmt.Errorf("table5 %s: no landmarks selected", strat)
		}
		_, stats := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: r.cfg.StoreTopN, Metrics: r.cfg.Metrics})
		res.Rows = append(res.Rows, Table5Row{
			Strategy:           strat,
			SelectPerLandmark:  selDur / time.Duration(len(lms)),
			ComputePerLandmark: stats.PerLandmark(),
			Landmarks:          len(lms),
		})
	}
	return res, nil
}

// String renders the strategy/selection/computation table.
func (t *Table5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %16s %16s\n", "Strategy", "#lm", "select/lm", "comput/lm")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-10s %6d %16s %16s\n", row.Strategy, row.Landmarks,
			row.SelectPerLandmark.Round(time.Microsecond),
			row.ComputePerLandmark.Round(time.Microsecond))
	}
	return b.String()
}

// Table6Result reproduces Table 6: per strategy, the average number of
// landmarks met by the depth-2 exploration, the approximate query time and
// its gain over the exact computation, and the Kendall tau distance to the
// exact top-100 when the store keeps top-10/100/1000 lists.
type Table6Result struct {
	ExactQueryTime time.Duration
	Rows           []Table6Row
}

// Table6Row is one strategy's quality/cost figures.
type Table6Row struct {
	Strategy     landmark.Strategy
	LandmarksMet float64
	QueryTime    time.Duration
	Gain         float64
	Tau          map[int]float64 // store size → Kendall tau (L10/L100/L1000)
}

// storeSizes are the landmark list lengths compared in Table 6.
var storeSizes = []int{10, 100, 1000}

// Table6 runs the full approximate-vs-exact comparison.
func (r *Runner) Table6() (*Table6Result, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	eng, err := r.engineFor(tw)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(r.cfg.Seed, 0x7ab1e6))
	queries := sampleActiveUsers(tw.Graph, rng, r.cfg.QueryNodes, 3)
	if len(queries) == 0 {
		return nil, fmt.Errorf("table6: no query nodes available")
	}
	qtopics := make([]topics.ID, len(queries))
	for i := range queries {
		qtopics[i] = topics.ID(rng.IntN(tw.Vocabulary().Len()))
	}

	// Exact reference: full-convergence exploration per query node.
	exact := make([][]ranking.Scored, len(queries))
	t0 := time.Now()
	for i, u := range queries {
		x := eng.Explore(u, []topics.ID{qtopics[i]}, 0)
		g := eng.Norm(qtopics[i])
		top := ranking.NewTopN(100)
		for _, v := range x.Reached {
			if s := g * x.Sigma(v, 0); s > 0 && v != u {
				top.Insert(v, s)
			}
		}
		exact[i] = top.List()
	}
	exactDur := time.Since(t0) / time.Duration(len(queries))
	if exactDur <= 0 {
		exactDur = time.Nanosecond
	}

	selCfg := r.selectConfig(tw.Graph)
	res := &Table6Result{ExactQueryTime: exactDur}
	for _, strat := range landmark.Strategies {
		lms, err := landmark.Select(tw.Graph, strat, r.cfg.Landmarks, selCfg)
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", strat, err)
		}
		if len(lms) == 0 {
			return nil, fmt.Errorf("table6 %s: no landmarks selected", strat)
		}
		store, _ := landmark.Preprocess(eng, lms, landmark.PreprocessConfig{TopN: r.cfg.StoreTopN, Metrics: r.cfg.Metrics})

		row := Table6Row{Strategy: strat, Tau: map[int]float64{}}
		// Quality per store size, on the largest store's approximation.
		for _, size := range storeSizes {
			st := store
			if size != r.cfg.StoreTopN {
				st = store.Truncated(size)
			}
			ap, err := landmark.NewApprox(eng, st, r.cfg.ApproxDepth)
			if err != nil {
				return nil, err
			}
			tauSum := 0.0
			for i, u := range queries {
				qr := ap.Query(u, qtopics[i], 100)
				tauSum += ranking.KendallTopK(exact[i], qr.Scores)
			}
			row.Tau[size] = tauSum / float64(len(queries))
		}
		// Cost and landmarks met with the full store.
		ap, err := landmark.NewApprox(eng, store, r.cfg.ApproxDepth)
		if err != nil {
			return nil, err
		}
		met := 0
		tq := time.Now()
		for i, u := range queries {
			qr := ap.Query(u, qtopics[i], 100)
			met += qr.LandmarksMet
		}
		row.QueryTime = time.Since(tq) / time.Duration(len(queries))
		if row.QueryTime <= 0 {
			row.QueryTime = time.Nanosecond
		}
		row.LandmarksMet = float64(met) / float64(len(queries))
		row.Gain = float64(exactDur) / float64(row.QueryTime)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the Table 6 rows.
func (t *Table6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exact query time: %s\n", t.ExactQueryTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-10s %7s %12s %9s %8s %8s %8s\n", "Strategy", "#lnd", "time", "gain", "L10", "L100", "L1000")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-10s %7.1f %12s %8.0fx %8.3f %8.3f %8.3f\n",
			row.Strategy, row.LandmarksMet, row.QueryTime.Round(time.Microsecond),
			row.Gain, row.Tau[10], row.Tau[100], row.Tau[1000])
	}
	return b.String()
}

// selectConfig derives degree bands from the dataset so the Btw-*
// strategies have sensible pools at any scale.
func (r *Runner) selectConfig(g graph.View) landmark.SelectConfig {
	cfg := landmark.DefaultSelectConfig()
	cfg.Seed = r.cfg.Seed
	low, high := graph.InDegreePercentileCutoffs(g, 0.25)
	cfg.MinFollow, cfg.MaxFollow = low, high
	cfg.MinPublish, cfg.MaxPublish = low, high
	if cfg.MaxFollow <= cfg.MinFollow {
		cfg.MaxFollow = cfg.MinFollow + 100
	}
	if cfg.MaxPublish <= cfg.MinPublish {
		cfg.MaxPublish = cfg.MinPublish + 100
	}
	return cfg
}
