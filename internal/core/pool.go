package core

import "sync"

// ScratchPool recycles exploration Scratches across goroutines. Every
// Engine owns one, sized for its graph and full vocabulary: ExploreOpts
// borrows from it when the caller supplies no scratch, and callers that
// read results in place borrow through Engine.Scratches. NewScratch pays
// an n×k zeroing cost per buffer; serving-path queries, landmark refreshes
// and evaluation workers that explore thousands of times amortize that
// cost to zero by drawing from the pool instead. Put silently drops
// scratches sized for anything else, so a stale buffer can never corrupt
// a later exploration.
//
// A ScratchPool is safe for concurrent use. Scratches obtained from it are
// not: each goroutine must Get its own and Put it back when the
// exploration's results have been read off.
type ScratchPool struct {
	n, k int
	pool sync.Pool
}

// newScratchPool creates a pool of scratches for n-node, k-topic
// explorations.
func newScratchPool(n, k int) *ScratchPool {
	p := &ScratchPool{n: n, k: k}
	p.pool.New = func() any { return newScratchDims(n, k) }
	return p
}

// Get returns a scratch sized for the pool's dimensions.
func (p *ScratchPool) Get() *Scratch { return p.pool.Get().(*Scratch) }

// Put returns a scratch to the pool. Scratches that do not fit the pool's
// dimensions (or nil) are dropped.
func (p *ScratchPool) Put(s *Scratch) {
	if s.fits(p.n, p.k) {
		p.pool.Put(s)
	}
}
