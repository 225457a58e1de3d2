package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// TestResultCacheNoLostInvalidation interleaves parallel readers and
// writers with invalidation rounds. The invariant under test: once
// invalidate() returns, no entry put before it may ever be served again —
// a lost invalidation would serve a recommendation from a pre-update
// world.
func TestResultCacheNoLostInvalidation(t *testing.T) {
	c := newResultCache(256)
	const workers = 8
	const keys = 32
	for round := 0; round < 60; round++ {
		score := float64(round)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < keys; i++ {
					k := cacheKey{user: graph.NodeID(i), topic: topics.ID(w % 4), n: 10, method: "tr"}
					if w%2 == 0 {
						c.put(k, []ranking.Scored{{Node: graph.NodeID(round), Score: score}})
					} else if got, ok := c.get(k); ok && got[0].Node != graph.NodeID(round) {
						// Within a round only this round's values exist: a
						// hit carrying an older round means a stale entry
						// survived a previous invalidation.
						t.Errorf("round %d: served stale entry from round %d", round, got[0].Node)
					}
				}
			}(w)
		}
		wg.Wait()
		c.invalidate()
		// Everything put before the invalidation must now miss.
		for i := 0; i < keys; i++ {
			for topic := 0; topic < 4; topic++ {
				k := cacheKey{user: graph.NodeID(i), topic: topics.ID(topic), n: 10, method: "tr"}
				if _, ok := c.get(k); ok {
					t.Fatalf("round %d: entry %v survived invalidation", round, k)
				}
			}
		}
	}
}

// TestResultCacheChurn hammers every cache operation concurrently,
// including invalidations racing puts, with a small capacity to force
// constant eviction. The assertions are the cache's structural
// invariants; the race detector checks the locking.
func TestResultCacheChurn(t *testing.T) {
	c := newResultCache(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := cacheKey{user: graph.NodeID(i % 64), n: 10, method: "landmark"}
				switch w % 3 {
				case 0:
					c.put(k, []ranking.Scored{{Node: 1, Score: 1}})
				case 1:
					c.get(k)
				default:
					if i%100 == 0 {
						c.invalidate()
					}
					if n := c.len(); n > 16 {
						t.Errorf("cache exceeded capacity: %d", n)
					}
				}
			}
		}(w)
	}
	for i := 0; i < 50_000; i++ {
		c.put(cacheKey{user: graph.NodeID(i % 64), n: 5}, nil)
	}
	close(stop)
	wg.Wait()
	if n := c.len(); n > 16 {
		t.Errorf("cache exceeded capacity after churn: %d", n)
	}
}

// TestConcurrentRecommendAndUpdates drives the full HTTP stack from
// parallel clients mixing reads and writes — the end-to-end smoke for the
// cache/manager/baseline locking under -race.
func TestConcurrentRecommendAndUpdates(t *testing.T) {
	srv, _ := testServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w == 0 && i%3 == 0 {
					postJSON(t, srv.URL+"/v1/update", client.UpdateRequest{Updates: []client.UpdateItem{
						{Src: uint32(i + 1), Dst: uint32(i + 50), Topics: []string{"technology"}},
					}}, 200, nil)
					continue
				}
				url := fmt.Sprintf("%s/v1/recommend?user=%d&topic=technology&n=5&method=landmark", srv.URL, (w*31+i)%600)
				getJSON(t, url, 200, nil)
			}
		}(w)
	}
	wg.Wait()
}
