package distrib

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// The acceptance gate of the sharded tier: merged partials must reproduce
// the single-machine landmark ranking bit for bit — the same node and the
// same score at every rank — for every shard count, under the id mod P
// ownership trshard deploys and under a seeded random one that is skewed
// (partition 0 owns about half the nodes) and follows no id pattern.
// This is Proposition 2/4 composition at work: each additive score term is
// folded by exactly one owner, after the same exploration and in the same
// order as landmark.Approx.
func TestScatterGatherMatchesSingleMachine(t *testing.T) {
	eng, store, ds := setup(t, 6)
	lms := store.Landmarks()
	ap, err := landmark.NewApprox(eng, store, 2)
	if err != nil {
		t.Fatal(err)
	}

	partitioners := map[string]func(parts int) Assignment{
		"hash": func(parts int) Assignment { return HashPartition(ds.Graph, parts) },
		"skewed": func(parts int) Assignment {
			r := rand.New(rand.NewPCG(5, uint64(parts)))
			a := Assignment{Of: make([]int, ds.Graph.NumNodes()), Parts: parts}
			for u := range a.Of {
				if p := r.IntN(2*parts - 1); p < parts {
					a.Of[u] = p
				}
			}
			return a
		},
	}
	for name, mk := range partitioners {
		for _, parts := range []int{1, 2, 4} {
			assign := mk(parts)
			shards := make([]*Shard, parts)
			for p := 0; p < parts; p++ {
				sub := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == p })
				shards[p], err = NewShard(eng, sub, assign, p, lms, 2)
				if err != nil {
					t.Fatalf("%s/%d: %v", name, parts, err)
				}
			}
			// Every shard holds every landmark, and the candidate-filtered
			// lists partition the full lists: entries land on exactly one
			// shard and nothing is dropped.
			for p, sh := range shards {
				if sh.Store.Len() != len(lms) {
					t.Fatalf("%s/%d: shard %d holds %d landmarks, deployment has %d",
						name, parts, p, sh.Store.Len(), len(lms))
				}
			}
			for _, lm := range lms {
				full := store.Get(lm).Topical[0].Len()
				split := 0
				for _, sh := range shards {
					split += sh.Store.Get(lm).Topical[0].Len()
				}
				if split != full {
					t.Fatalf("%s/%d: landmark %d topic 0 lists %d entries across shards, full store has %d",
						name, parts, lm, split, full)
				}
			}

			for _, u := range []graph.NodeID{3, 117, 542, 799} {
				for _, tp := range []topics.ID{0, 6, 11} {
					want := ap.Recommend(u, tp, 25)
					partials := make([][]PartialEntry, parts)
					for p, sh := range shards {
						partials[p] = sh.Partial(u, tp)
					}
					got := Merge(partials, u, 25)
					if len(got) != len(want) {
						t.Fatalf("%s parts=%d u=%d t=%d: %d vs %d results", name, parts, u, tp, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s parts=%d u=%d t=%d: rank %d node %d (%.17g), single machine %d (%.17g)",
								name, parts, u, tp, i, got[i].Node, got[i].Score, want[i].Node, want[i].Score)
						}
					}
				}
			}
		}
	}
}

// Both directions of the ownership contract must be enforced at
// construction: a store listing foreign candidates would fold their terms
// twice across the deployment, and a store missing a landmark would
// silently drop that landmark's terms for this worker's candidates.
func TestNewShardRejectsBadStores(t *testing.T) {
	eng, store, ds := setup(t, 7)
	assign := HashPartition(ds.Graph, 2)
	// The unfiltered store lists candidates owned by shard 1.
	if _, err := NewShard(eng, store, assign, 0, store.Landmarks(), 2); err == nil {
		t.Fatal("shard 0 accepted the full store despite foreign candidates")
	}
	// A landmark-partitioned subset (the pre-candidate-partitioning
	// layout) is missing the other partition's landmarks.
	lms := store.Landmarks()
	half := store.Subset(func(l graph.NodeID) bool { return l == lms[0] })
	sub := half.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == 0 })
	if _, err := NewShard(eng, sub, assign, 0, lms, 2); err == nil {
		t.Fatal("shard 0 accepted a store missing landmarks")
	}

	// The scalar inputs and the vocabulary: each case is otherwise a
	// valid shard, so the error must name the one bad input.
	own := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == 0 })
	if _, err := NewShard(eng, own, assign, 0, lms, 2); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	wide := landmark.NewStore(own.VocabLen()+1, own.TopN())
	for _, lm := range own.Landmarks() {
		d := *own.Get(lm)
		d.Topical = append(slices.Clone(d.Topical), landmark.List{})
		if err := wide.Put(&d); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]struct {
		store       *landmark.Store
		part, depth int
		want        string
	}{
		"zero depth":          {own, 0, 0, "depth"},
		"partition past end":  {own, assign.Parts, 2, "shard 2 of 2"},
		"vocabulary mismatch": {wide, 0, 2, "vocabulary"},
	} {
		_, err := NewShard(eng, c.store, assign, c.part, lms, c.depth)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, c.want)
		}
	}
}

// Merge on hand-built partials: a tie across shards ranks the lower node
// id first whatever the shard order, the query node and non-positive
// scores never rank, a nil partial (a timed-out worker) contributes
// nothing, and the list stops at n.
func TestMergeKnownPartials(t *testing.T) {
	const u = 7
	partials := [][]PartialEntry{
		{{Node: 4, Score: 0.5}, {Node: 9, Score: 0.25}, {Node: 12, Score: 0}},
		nil,
		{{Node: 3, Score: 0.5}, {Node: u, Score: 0.9}, {Node: 8, Score: 0.75}, {Node: 10, Score: -1}},
	}
	want := []ranking.Scored{{Node: 8, Score: 0.75}, {Node: 3, Score: 0.5}, {Node: 4, Score: 0.5}, {Node: 9, Score: 0.25}}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		in := make([][]PartialEntry, len(order))
		for i, p := range order {
			in[i] = partials[p]
		}
		if got := Merge(in, u, 10); !slices.Equal(got, want) {
			t.Errorf("shard order %v: %v, want %v", order, got, want)
		}
		if got := Merge(in, u, 2); !slices.Equal(got, want[:2]) {
			t.Errorf("shard order %v, n=2: %v, want %v", order, got, want[:2])
		}
	}
	if got := Merge([][]PartialEntry{nil, nil}, u, 10); len(got) != 0 {
		t.Errorf("all shards timed out: %v, want no results", got)
	}
}

func TestPartialWireRoundTrip(t *testing.T) {
	in := &PartialResponse{
		Shard: 2,
		Parts: 4,
		Entries: []PartialEntry{
			{Node: 0, Score: 1.25},
			{Node: 41, Score: 3.5e-12},
			{Node: 1 << 20, Score: 123456.789},
		},
	}
	out, err := DecodePartial(EncodePartial(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Shard != in.Shard || out.Parts != in.Parts {
		t.Fatalf("header round-trip: %+v vs %+v", out, in)
	}
	if len(out.Entries) != len(in.Entries) {
		t.Fatalf("%d entries, want %d", len(out.Entries), len(in.Entries))
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, out.Entries[i], in.Entries[i])
		}
	}

	empty, err := DecodePartial(EncodePartial(&PartialResponse{Shard: 1, Parts: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Entries) != 0 {
		t.Fatalf("empty response decoded %d entries", len(empty.Entries))
	}

	for name, buf := range map[string][]byte{
		"short":     {1, 2, 3},
		"bad magic": append([]byte("NOPE"), make([]byte, 16)...),
		"truncated": EncodePartial(in)[:30],
		"oversized": append(EncodePartial(in), 0),
	} {
		if _, err := DecodePartial(buf); err == nil {
			t.Errorf("%s frame decoded without error", name)
		}
	}
}

// FuzzDecodePartial: the router decodes frames another process wrote, so
// arbitrary bytes must decode or error, never panic. A frame that decodes
// is canonical up to the reserved word: re-encoding it reproduces the
// input with that word zeroed, and decoding the re-encoding gives the same
// response, scores compared bit for bit (NaN included).
func FuzzDecodePartial(f *testing.F) {
	many := make([]PartialEntry, 300)
	for i := range many {
		many[i] = PartialEntry{Node: graph.NodeID(3 * i), Score: 1 / float64(i+1)}
	}
	for _, r := range []*PartialResponse{
		{Shard: 0, Parts: 1},
		{Shard: 1, Parts: 2, Entries: []PartialEntry{{Node: 7, Score: 0.5}}},
		{Shard: 3, Parts: 8, Entries: many},
	} {
		f.Add(EncodePartial(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodePartial(data)
		if err != nil {
			return
		}
		re := EncodePartial(out)
		want := slices.Clone(data)
		clear(want[8:16])
		if !bytes.Equal(re, want) {
			t.Fatalf("re-encoding differs from the input beyond the reserved word")
		}
		back, err := DecodePartial(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if back.Shard != out.Shard || back.Parts != out.Parts || len(back.Entries) != len(out.Entries) {
			t.Fatalf("header round-trip: %+v vs %+v", back, out)
		}
		for i, e := range out.Entries {
			b := back.Entries[i]
			if b.Node != e.Node || math.Float64bits(b.Score) != math.Float64bits(e.Score) {
				t.Fatalf("entry %d: %+v vs %+v", i, b, e)
			}
		}
	})
}

// End-to-end over real HTTP: the worker's RPC must return exactly what
// the in-process Partial computes, and reject malformed queries.
func TestShardServerHTTP(t *testing.T) {
	eng, store, ds := setup(t, 8)
	assign := HashPartition(ds.Graph, 2)
	sub := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == 0 })
	sh, err := NewShard(eng, sub, assign, 0, store.Landmarks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardServer(sh, 0, 2, ShardServerConfig{})
	srv := httptest.NewServer(ss)
	defer srv.Close()

	body, _ := json.Marshal(PartialRequest{User: 117, Topic: 6})
	resp, err := http.Post(srv.URL+"/shard/v1/partial", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PartialContentType {
		t.Fatalf("content type %q", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := DecodePartial(buf)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Shard != 0 || pr.Parts != 2 {
		t.Fatalf("header %+v", pr)
	}
	want := sh.Partial(117, 6)
	if len(pr.Entries) != len(want) {
		t.Fatalf("%d entries over the wire, %d in process", len(pr.Entries), len(want))
	}
	for i := range want {
		if pr.Entries[i] != want[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, pr.Entries[i], want[i])
		}
	}

	for name, bad := range map[string]string{
		"bad json":      "{",
		"unknown user":  `{"user": 99999, "topic": 0}`,
		"unknown topic": `{"user": 1, "topic": 9999}`,
	} {
		resp, err := http.Post(srv.URL+"/shard/v1/partial", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	hr, err := http.Get(srv.URL + "/shard/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Shard  int    `json:"shard"`
		Parts  int    `json:"parts"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "ok" || health.Shard != 0 || health.Parts != 2 {
		t.Fatalf("health %+v", health)
	}

	sr, err := http.Get(srv.URL + "/shard/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Served    uint64 `json:"served"`
		Landmarks int    `json:"landmarks"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Served != 1 {
		t.Fatalf("served %d, want 1", stats.Served)
	}
	if stats.Landmarks != sub.Len() {
		t.Fatalf("stats landmarks %d, want %d", stats.Landmarks, sub.Len())
	}
}

// A store listing node n (one built for a larger graph) must be rejected
// at construction, not panic on the ownership check or the fold.
func TestNewShardRejectsOutOfRangeEntries(t *testing.T) {
	eng, store, ds := setup(t, 7)
	assign := HashPartition(ds.Graph, 2)
	bad := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == 0 })
	d := *bad.Get(bad.Landmarks()[0])
	d.Topical = slices.Clone(d.Topical)
	d.Topical[0] = landmark.List{Nodes: []graph.NodeID{graph.NodeID(ds.Graph.NumNodes())}, Sigma: []float32{0.5}, Topo: []float32{0.5}}
	if err := bad.Put(&d); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShard(eng, bad, assign, 0, store.Landmarks(), 2); err == nil {
		t.Fatal("shard accepted a store listing node n")
	}
}

// TestConcurrentFoldsMatchSerial: landmark queries and shard partials on
// one engine borrow their scratches, fold buffers included, from the
// engine's one pool, and the manager's readers run them side by side.
// Four goroutines interleave Approx.Query and Shard.PartialAppend over
// shared engines; every answer must equal the serial one bit for bit.
func TestConcurrentFoldsMatchSerial(t *testing.T) {
	eng, store, ds := setup(t, 9)
	lms := store.Landmarks()
	ap, err := landmark.NewApprox(eng, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	assign := HashPartition(ds.Graph, 2)
	shards := make([]*Shard, assign.Parts)
	for p := range shards {
		sub := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == p })
		if shards[p], err = NewShard(eng, sub, assign, p, lms, 2); err != nil {
			t.Fatal(err)
		}
	}
	type key struct {
		u  graph.NodeID
		tp topics.ID
	}
	vocab := ds.Graph.Vocabulary().Len()
	keys := make([]key, 40)
	for i := range keys {
		keys[i] = key{graph.NodeID(i * 97 % ds.Graph.NumNodes()), topics.ID(i % vocab)}
	}
	wantQ := make([]landmark.QueryResult, len(keys))
	wantP := make([][][]PartialEntry, len(keys))
	for i, k := range keys {
		wantQ[i] = ap.Query(k.u, k.tp, 50)
		for _, sh := range shards {
			wantP[i] = append(wantP[i], sh.Partial(k.u, k.tp))
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []PartialEntry
			for r := 0; r < 2; r++ {
				for j := range keys {
					i := (j + g*len(keys)/4) % len(keys)
					k := keys[i]
					if (g+j)%2 == 0 {
						got := ap.Query(k.u, k.tp, 50)
						if got.LandmarksMet != wantQ[i].LandmarksMet || !slices.Equal(got.Scores, wantQ[i].Scores) {
							t.Errorf("goroutine %d u=%d t=%d: concurrent query differs from serial", g, k.u, k.tp)
							return
						}
						continue
					}
					for p, sh := range shards {
						buf = sh.PartialAppend(k.u, k.tp, buf)
						if !slices.Equal(buf, wantP[i][p]) {
							t.Errorf("goroutine %d u=%d t=%d shard %d: concurrent partial differs from serial", g, k.u, k.tp, p)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
