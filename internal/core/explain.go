package core

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/topics"
)

// PathContribution is one path's share of a recommendation score.
type PathContribution struct {
	// Path is the node sequence from the query user to the candidate.
	Path Path
	// Score is the path's ω_p(t) (Definition 1's summand).
	Score float64
}

// ExplainOptions bounds the path enumeration behind Explain.
type ExplainOptions struct {
	// MaxLen caps the path length in edges (default 3). Longer paths
	// contribute β^len and are rarely worth showing.
	MaxLen int
	// TopK bounds how many paths are returned (default 5).
	TopK int
	// Budget caps the number of edge expansions, protecting against
	// exponential fan-out on dense graphs (default 200000).
	Budget int
}

// Explain returns the top contributing paths behind σ(u, v, t), best
// first — the "because you follow X who follows Y" rationale a
// recommendation UI shows. The returned Covered fraction reports how much
// of the exact score the enumerated paths account for (1.0 when MaxLen
// and Budget let the search see every path).
func (e *Engine) Explain(u, v graph.NodeID, t topics.ID, opts ExplainOptions) ([]PathContribution, float64) {
	if opts.MaxLen <= 0 {
		opts.MaxLen = 3
	}
	if opts.TopK <= 0 {
		opts.TopK = 5
	}
	if opts.Budget <= 0 {
		opts.Budget = 200000
	}
	beta, alpha := e.params.Beta, e.params.Alpha

	var found []PathContribution
	budget := opts.Budget
	prefix := make([]graph.NodeID, 1, opts.MaxLen+1)
	prefix[0] = u

	// DFS carrying the partial Σ α^d·w_t and decay powers.
	var walk func(cur graph.NodeID, depth int, partial, alphaPow, betaPow float64)
	walk = func(cur graph.NodeID, depth int, partial, alphaPow, betaPow float64) {
		if depth >= opts.MaxLen || budget <= 0 {
			return
		}
		dsts, lbls := e.g.Out(cur)
		for i, w := range dsts {
			if budget <= 0 {
				return
			}
			budget--
			ap := alphaPow * alpha
			bp := betaPow * beta
			ps := partial + ap*e.edgeTopicWeight(lbls[i], w, t)
			prefix = append(prefix, w)
			if w == v {
				p := make(Path, len(prefix))
				copy(p, prefix)
				found = append(found, PathContribution{Path: p, Score: bp * ps})
			}
			walk(w, depth+1, ps, ap, bp)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(u, 0, 0, 1, 1)

	sort.Slice(found, func(i, j int) bool {
		if found[i].Score != found[j].Score {
			return found[i].Score > found[j].Score
		}
		return len(found[i].Path) < len(found[j].Path)
	})

	enumerated := 0.0
	for _, pc := range found {
		enumerated += pc.Score
	}
	exact := e.Norm(t) * e.Explore(u, []topics.ID{t}, 0).Sigma(v, 0)
	covered := 1.0
	if exact > 0 {
		covered = enumerated / exact
		if covered > 1 {
			covered = 1 // float noise
		}
	}
	if len(found) > opts.TopK {
		found = found[:opts.TopK]
	}
	return found, covered
}
