package ranking

import "repro/internal/graph"

// KendallTopK returns the normalized Kendall tau distance between two
// top-k lists (best first), following the Fagin/Kumar/Sivakumar
// generalization to partial lists with the optimistic penalty p = 0:
//
//   - a pair of items ranked in opposite relative order by the two lists
//     counts 1;
//   - a pair (i, j) where one list ranks i above j and the other contains
//     only j counts 1 (the present item should have been ranked higher);
//   - a pair appearing in only one list, or in neither order-determining
//     position, counts 0.
//
// The count is normalized by the number of distinct pairs over the union
// of the two lists, so the result is in [0, 1]: 0 for identical lists, 1
// for reversed ones. This is the "Kendall Tau distance between the
// approximate computation and the exact computation" reported in Table 6.
func KendallTopK(a, b []Scored) float64 {
	ra := make(map[graph.NodeID]int, len(a))
	for i, s := range a {
		ra[s.Node] = i + 1
	}
	rb := make(map[graph.NodeID]int, len(b))
	for i, s := range b {
		rb[s.Node] = i + 1
	}
	union := make([]graph.NodeID, 0, len(ra)+len(rb))
	for n := range ra {
		union = append(union, n)
	}
	for n := range rb {
		if _, dup := ra[n]; !dup {
			union = append(union, n)
		}
	}
	m := len(union)
	if m < 2 {
		return 0
	}
	bad := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			x, y := union[i], union[j]
			ax, aOKx := ra[x]
			ay, aOKy := ra[y]
			bx, bOKx := rb[x]
			by, bOKy := rb[y]
			switch {
			case aOKx && aOKy && bOKx && bOKy:
				if (ax < ay) != (bx < by) {
					bad++
				}
			case aOKx && aOKy && bOKx != bOKy:
				// b contains exactly one of them: discordant if b kept the
				// one a ranks lower.
				if (ax < ay) == bOKy {
					bad++
				}
			case bOKx && bOKy && aOKx != aOKy:
				if (bx < by) == aOKy {
					bad++
				}
			default:
				// Pair absent from one list, or one item in each list:
				// optimistic penalty 0.
			}
		}
	}
	return float64(bad) / float64(m*(m-1)/2)
}

// Combine merges per-topic ranked scores into a single query score by a
// weighted linear combination (CombSUM with weights), the metasearch
// scheme the paper references for multi-topic queries [Aslam & Montague]:
// score(v) = Σ_i w_i · score_i(v). Lists may rank different candidates.
func Combine(lists [][]Scored, weights []float64) []Scored {
	acc := make(map[graph.NodeID]float64)
	for i, list := range lists {
		w := 1.0
		if i < len(weights) {
			w = weights[i]
		}
		for _, s := range list {
			acc[s.Node] += w * s.Score
		}
	}
	out := make([]Scored, 0, len(acc))
	for n, sc := range acc {
		out = append(out, Scored{Node: n, Score: sc})
	}
	SortDesc(out)
	return out
}
