package server

import (
	"container/list"
	"sync"

	"repro/internal/graph"
	"repro/internal/ranking"
	"repro/internal/topics"
)

// cacheKey identifies one recommendation request.
type cacheKey struct {
	user   graph.NodeID
	topic  topics.ID
	n      int
	method string
}

// resultCache is a small LRU over recommendation results. Entries carry
// the update generation they were computed at; invalidate bumps the
// generation and evicts everything immediately, and the per-entry
// generation guards the other direction — a computation that started
// before an update (a coalesced leader finishing late) can never install
// its pre-update result into the post-update cache.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	gen     int
	order   *list.List // front = most recent; values are cacheKey
	entries map[cacheKey]*cacheEntry
}

type cacheEntry struct {
	scores []ranking.Scored
	gen    int
	elem   *list.Element
}

// newResultCache creates a cache keeping up to cap entries.
func newResultCache(cap int) *resultCache {
	return &resultCache{
		cap:     cap,
		order:   list.New(),
		entries: make(map[cacheKey]*cacheEntry),
	}
}

// get returns the cached scores and whether they are fresh.
func (c *resultCache) get(k cacheKey) ([]ranking.Scored, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	if e.gen != c.gen {
		// Stale: drop it eagerly.
		c.order.Remove(e.elem)
		delete(c.entries, k)
		return nil, false
	}
	c.order.MoveToFront(e.elem)
	return e.scores, true
}

// generation returns the current invalidation generation; the coalescer
// captures it when a computation starts.
func (c *resultCache) generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// put stores scores computed at the current generation.
func (c *resultCache) put(k cacheKey, scores []ranking.Scored) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, scores, c.gen)
}

// putAt stores scores computed at generation gen; if an invalidation has
// happened since gen was captured the result is silently dropped — it
// describes a pre-update world.
func (c *resultCache) putAt(k cacheKey, scores []ranking.Scored, gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	c.putLocked(k, scores, gen)
}

func (c *resultCache) putLocked(k cacheKey, scores []ranking.Scored, gen int) {
	if c.cap <= 0 {
		return
	}
	if e, ok := c.entries[k]; ok {
		e.scores, e.gen = scores, gen
		c.order.MoveToFront(e.elem)
		return
	}
	for len(c.entries) >= c.cap {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.order.Remove(back)
		delete(c.entries, back.Value.(cacheKey))
	}
	e := &cacheEntry{scores: scores, gen: gen}
	e.elem = c.order.PushFront(k)
	c.entries[k] = e
}

// invalidate advances the generation and evicts every entry. The bump
// alone already made each entry an unservable miss, but leaving dead
// entries resident until capacity pressure (or an unlucky lookup) evicted
// them kept real memory alive and inflated the cache_entries gauge; a
// wholesale clear costs O(entries) once per update batch.
func (c *resultCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.order.Init()
	clear(c.entries)
}

// len returns the live entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
