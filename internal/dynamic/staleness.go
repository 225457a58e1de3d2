package dynamic

import (
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// QueryStaleness measures the ranking staleness a query from u on topic
// t is exposed to: for every landmark the query exploration would meet,
// the Kendall-tau distance between the landmark's stored topical top-K
// list and one freshly recomputed over the current engine, averaged over
// the met landmarks. A fully refreshed serving path scores 0; the value
// grows as updates outpace the refresh budget. The second return is the
// number of landmarks met.
//
// This is a diagnostic/benchmark surface, not a serving-path call: it
// re-explores every met landmark (the exact work a refresh would do) to
// obtain the fresh reference.
func (m *Manager) QueryStaleness(u graph.NodeID, t topics.ID, topK int) (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var met []graph.NodeID
	graph.BFSOut(m.view, u, m.cfg.QueryDepth, func(v graph.NodeID, depth int) bool {
		if m.store.Get(v) != nil {
			met = append(met, v)
		}
		return true
	})
	if len(met) == 0 {
		return 0, 0
	}
	fresh, _ := landmark.Preprocess(m.eng, met, landmark.PreprocessConfig{TopN: m.cfg.StoreTopN})
	var sum float64
	for _, lm := range met {
		sum += ranking.KendallTopK(
			topScored(&m.store.Get(lm).Topical[t], topK),
			topScored(&fresh.Get(lm).Topical[t], topK))
	}
	return sum / float64(len(met)), len(met)
}

// topScored converts the best-first prefix of a landmark list into the
// ranking form KendallTopK compares.
func topScored(l *landmark.List, k int) []ranking.Scored {
	if k > l.Len() {
		k = l.Len()
	}
	out := make([]ranking.Scored, k)
	for i := 0; i < k; i++ {
		out[i] = ranking.Scored{Node: l.Nodes[i], Score: l.Sigma[i]}
	}
	return out
}
