package distrib

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// The acceptance gate of the sharded tier: merged partials must reproduce
// the single-machine landmark ranking bit for bit — the same node and the
// same score at every rank — for every shard count and both partitioners.
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
		"conn": func(parts int) Assignment { return ConnectivityPartition(ds.Graph, parts, 5) },
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
}

func TestPartialWireRoundTrip(t *testing.T) {
	in := &PartialResponse{
		Shard: 2,
		Parts: 4,
		Epoch: 77,
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
	if out.Shard != in.Shard || out.Parts != in.Parts || out.Epoch != in.Epoch {
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

	empty, err := DecodePartial(EncodePartial(&PartialResponse{Shard: 1, Parts: 2, Epoch: 3}))
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

// End-to-end over real HTTP: the worker's RPC must return exactly what
// the in-process Partial computes, and reject malformed queries.
func TestShardServerHTTP(t *testing.T) {
	eng, store, ds := setup(t, 8)
	assign := ConnectivityPartition(ds.Graph, 2, 3)
	sub := store.SubsetNodes(func(v graph.NodeID) bool { return assign.Of[v] == 0 })
	sh, err := NewShard(eng, sub, assign, 0, store.Landmarks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	epoch := uint64(42)
	ss := NewShardServer(sh, 0, 2, ShardServerConfig{Epoch: func() uint64 { return epoch }})
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
	if pr.Shard != 0 || pr.Parts != 2 || pr.Epoch != epoch {
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
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "ok" || health.Shard != 0 || health.Epoch != epoch {
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
