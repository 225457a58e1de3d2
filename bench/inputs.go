package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/churn"
	"repro/internal/client"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/topics"
	queries "repro/internal/workload"
)

// Every input stream of a run draws from its own generator, so changing
// how many values one stream consumes does not shift the others.
const (
	streamZipf = iota + 1
	streamSample
	streamTargets
)

func rng(seed uint64, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// readKey is one (user, topic) recommendation key.
type readKey struct {
	User  graph.NodeID
	Topic topics.ID
}

// distinctKeys draws up to n different (user, topic) keys with the query
// stream's skew: users uniform among active accounts, topics by biased
// popularity. Distinct keys defeat the server's result cache whatever its
// size. A small graph may yield fewer than n.
func distinctKeys(g graph.View, n int, seed uint64) ([]readKey, error) {
	seen := make(map[readKey]bool, n)
	out := make([]readKey, 0, n)
	for round := uint64(0); len(out) < n && round < 8; round++ {
		cfg := queries.DefaultConfig()
		cfg.Queries, cfg.Seed = 2*n, seed*16+round
		qs, err := queries.Generate(g, cfg)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			k := readKey{q.User, q.Topic}
			if !seen[k] && len(out) < n {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out, nil
}

// distinctUsers is distinctKeys with no user drawn twice, so that every
// key is a subscription group of its own.
func distinctUsers(g graph.View, n int, seed uint64) ([]readKey, error) {
	cand, err := distinctKeys(g, 4*n, seed)
	if err != nil {
		return nil, err
	}
	seen := make(map[graph.NodeID]bool, n)
	out := make([]readKey, 0, n)
	for _, k := range cand {
		if !seen[k.User] && len(out) < n {
			seen[k.User] = true
			out = append(out, k)
		}
	}
	return out, nil
}

// zipf samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct {
	cdf []float64
	r   *rand.Rand
}

func newZipf(n int, s float64, r *rand.Rand) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf, r: r}
}

func (z *zipf) next() int {
	k := sort.SearchFloat64s(z.cdf, z.r.Float64())
	return min(k, len(z.cdf)-1)
}

// updateStream is a churn stream in wire form together with the edge
// count the graph must have once all of it has applied.
type updateStream struct {
	Items []client.UpdateItem
	// Net[i] is the change in edge count after items 0..i.
	Net []int
}

// churnStream generates n follow/unfollow events over g. No (src, dst)
// pair occurs twice, so the final edge set does not depend on how the
// ingest pipeline happens to batch the events (within one batch a removal
// wins over an add of the same pair), and every event is effective: adds
// create an edge, removals delete one.
func churnStream(g graph.View, n int, seed uint64, avoid map[graph.NodeID]bool) (*updateStream, error) {
	cfg := churn.DefaultConfig()
	cfg.Events, cfg.Seed = 2*n+64, seed
	ups, err := churn.Generate(g, cfg)
	if err != nil {
		return nil, err
	}
	vocab := g.Vocabulary()
	seen := make(map[graph.EdgeKey]bool, n)
	st := &updateStream{}
	net := 0
	for _, up := range ups {
		key := graph.KeyOf(up.Edge.Src, up.Edge.Dst)
		if seen[key] || avoid[up.Edge.Src] || avoid[up.Edge.Dst] || up.Add == g.HasEdge(up.Edge.Src, up.Edge.Dst) {
			continue
		}
		seen[key] = true
		it := client.UpdateItem{Src: uint32(up.Edge.Src), Dst: uint32(up.Edge.Dst), Remove: !up.Add}
		up.Edge.Label.ForEach(func(t topics.ID) { it.Topics = append(it.Topics, vocab.Name(t)) })
		if up.Add {
			net++
		} else {
			net--
		}
		st.Items = append(st.Items, it)
		st.Net = append(st.Net, net)
		if len(st.Items) == n {
			return st, nil
		}
	}
	return nil, fmt.Errorf("churn stream yielded %d usable events, need %d", len(st.Items), n)
}

// stamped returns a copy of items with the event time set.
func stamped(items []client.UpdateItem, at int64) []client.UpdateItem {
	out := append([]client.UpdateItem(nil), items...)
	for i := range out {
		out[i].At = at
	}
	return out
}

// flip is a follow edge whose presence decides whether Dst is in the
// top-k of (Src, Topic): adding it pushes Dst in, removing it drops Dst
// out again.
type flip struct {
	Key readKey
	Dst graph.NodeID
}

func (f flip) item(vocab *topics.Vocabulary, remove bool) client.UpdateItem {
	return client.UpdateItem{Src: uint32(f.Key.User), Dst: uint32(f.Dst),
		Topics: []string{vocab.Name(f.Key.Topic)}, Remove: remove}
}

// screenFlips finds, for need of the keys, an account whose follow edge
// moves the key's landmark top-n both ways: following it pushes it in,
// unfollowing drops it out again. Candidates are the accounts publishing
// on the key's topic, most followed first, since a single new one-hop
// path has to outscore the two-hop paths already in the ranking. It tries
// them on a scratch manager over the same graph, which it leaves as it
// found it. Keys for which nothing works are passed over.
func screenFlips(s *stack, keys []readKey, need, n int) ([]flip, error) {
	scratch, err := dynamic.NewManager(s.g, s.lms, s.managerConfig())
	if err != nil {
		return nil, err
	}
	byFollowers := make([]graph.NodeID, s.g.NumNodes())
	for v := range byFollowers {
		byFollowers[v] = graph.NodeID(v)
	}
	sort.SliceStable(byFollowers, func(i, j int) bool {
		return s.g.InDegree(byFollowers[i]) > s.g.InDegree(byFollowers[j])
	})
	ranks := func(k readKey, v graph.NodeID) (bool, error) {
		scored, err := scratch.Recommend(k.User, k.Topic, n)
		for _, sc := range scored {
			if sc.Node == v {
				return true, err
			}
		}
		return false, err
	}
	var out []flip
	for _, k := range keys {
		tried := 0
		for _, v := range byFollowers {
			if len(out) == need {
				return out, nil
			}
			if tried == 16 {
				break
			}
			if v == k.User || s.g.HasEdge(k.User, v) || !s.g.NodeTopics(v).Has(k.Topic) {
				continue
			}
			tried++
			edge := graph.Edge{Src: k.User, Dst: v, Label: topics.NewSet(k.Topic)}
			var in [3]bool // before the follow, with it, after the unfollow
			for step := range in {
				if step > 0 {
					if err := scratch.Apply([]dynamic.Update{{Edge: edge, Add: step == 1}}); err != nil {
						return nil, err
					}
				}
				if in[step], err = ranks(k, v); err != nil {
					return nil, err
				}
			}
			if !in[0] && in[1] && !in[2] {
				out = append(out, flip{Key: k, Dst: v})
				break
			}
		}
	}
	if len(out) < need {
		return nil, fmt.Errorf("only %d of %d keys have a follow edge that moves their top-%d", len(out), len(keys), n)
	}
	return out, nil
}
