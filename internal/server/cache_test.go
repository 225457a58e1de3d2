package server

import (
	"net/http"
	"testing"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/ranking"
)

func TestResultCacheBasics(t *testing.T) {
	c := newResultCache(2)
	k1 := cacheKey{user: 1, topic: 0, n: 10, method: "tr"}
	k2 := cacheKey{user: 2, topic: 0, n: 10, method: "tr"}
	k3 := cacheKey{user: 3, topic: 0, n: 10, method: "tr"}
	if _, ok := c.get(k1); ok {
		t.Fatal("empty cache hit")
	}
	c.put(k1, []ranking.Scored{{Node: 9, Score: 1}})
	if got, ok := c.get(k1); !ok || got[0].Node != 9 {
		t.Fatal("cache miss after put")
	}
	// Eviction: k1 is most recent; adding k2 then k3 evicts k2? No — LRU
	// evicts the least recently used, which after get(k1) is k2.
	c.put(k2, nil)
	_, _ = c.get(k1) // refresh k1
	c.put(k3, nil)   // evicts k2
	if _, ok := c.get(k2); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.get(k1); !ok {
		t.Error("k1 should survive (recently used)")
	}
	if c.len() > 2 {
		t.Errorf("cache exceeded capacity: %d", c.len())
	}
}

func TestResultCacheInvalidation(t *testing.T) {
	c := newResultCache(8)
	k := cacheKey{user: 1, topic: 2, n: 5, method: "landmark"}
	c.put(k, []ranking.Scored{{Node: 4, Score: 0.5}})
	c.invalidate()
	if _, ok := c.get(k); ok {
		t.Fatal("stale entry served after invalidation")
	}
	// A fresh put at the new generation works.
	c.put(k, []ranking.Scored{{Node: 5, Score: 0.6}})
	if got, ok := c.get(k); !ok || got[0].Node != 5 {
		t.Fatal("fresh entry lost")
	}
}

// TestResultCacheInvalidateClears pins the eager-eviction fix: an
// invalidation empties the cache immediately instead of leaving dead
// entries resident until capacity pressure pushes them out.
func TestResultCacheInvalidateClears(t *testing.T) {
	c := newResultCache(64)
	for i := 0; i < 5; i++ {
		c.put(cacheKey{user: graph.NodeID(i), n: 10, method: "tr"},
			[]ranking.Scored{{Node: 1, Score: 1}})
	}
	if c.len() != 5 {
		t.Fatalf("len = %d before invalidation, want 5", c.len())
	}
	c.invalidate()
	if c.len() != 0 {
		t.Fatalf("invalidate left %d dead entries resident", c.len())
	}
}

// TestResultCachePutAtStaleGeneration: a result computed before an
// invalidation (a coalesced leader finishing late) must not install
// itself into the post-update cache.
func TestResultCachePutAtStaleGeneration(t *testing.T) {
	c := newResultCache(8)
	k := cacheKey{user: 1, topic: 2, n: 5, method: "landmark"}
	gen := c.generation()
	c.invalidate()
	c.putAt(k, []ranking.Scored{{Node: 9, Score: 1}}, gen)
	if _, ok := c.get(k); ok {
		t.Fatal("pre-invalidation result was installed")
	}
	c.putAt(k, []ranking.Scored{{Node: 9, Score: 1}}, c.generation())
	if _, ok := c.get(k); !ok {
		t.Fatal("current-generation putAt was dropped")
	}
}

func TestResultCacheZeroCap(t *testing.T) {
	c := newResultCache(0)
	k := cacheKey{user: 1}
	c.put(k, nil)
	if _, ok := c.get(k); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestServerCacheHeader(t *testing.T) {
	srv, _ := testServer(t)
	url := srv.URL + "/v1/recommend?user=7&topic=technology&n=5&method=tr"
	r1, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	r2, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	// An update invalidates.
	postJSON(t, srv.URL+"/v1/update", client.UpdateRequest{Updates: []client.UpdateItem{
		{Src: 3, Dst: 4, Topics: []string{"technology"}},
	}}, http.StatusOK, nil)
	r3, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if got := r3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("post-update X-Cache = %q, want miss", got)
	}
}
