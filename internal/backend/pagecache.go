package backend

import (
	"errors"
	"net/netip"
	"sync"
	"time"
)

// pageCache is a single-flight page cache for fabric fetches within one
// simulated instant.
//
// Every crowd check fans one URL out to the 14 vantage points, and under
// concurrent crowd load many users check the same popular product inside
// the same synchronized round. On the fabric a page is a deterministic
// function of (URL, source address, User-Agent, simulated instant) — the
// storefront renders from those inputs and the failure injector hashes
// them — so the second identical fetch at the same instant is pure waste.
// The cache collapses it: the first caller fetches, concurrent duplicates
// wait on the same in-flight call (single-flight), and later duplicates
// within the instant are served from memory.
//
// The simulated instant is the cache's generation: when the clock moves,
// every cached page is stale by definition (prices drift daily, failure
// hashes change per day), so the map is dropped wholesale rather than
// entry-by-entry. Size is therefore bounded by the number of distinct
// (URL, source, UA) triples touched within a single instant.
type pageCache struct {
	mu    sync.Mutex
	gen   time.Time // simulated instant the cached pages were fetched at
	calls map[pageKey]*pageCall

	hits, misses uint64
}

// pageKey identifies one deterministic fetch.
type pageKey struct {
	url string
	src netip.Addr // source address — distinct per vantage point and per user
	ua  string     // User-Agent — fingerprint-pricing retailers render by it
}

// pageCall is one fetch, in flight or complete. done closes when the
// result fields are set.
type pageCall struct {
	done chan struct{}
	page string
	err  error
}

func newPageCache() *pageCache {
	return &pageCache{calls: make(map[pageKey]*pageCall)}
}

// do returns the page for key at the simulated instant now, fetching at
// most once per (key, instant) across all concurrent callers. Errors are
// cached too: a deterministic 503 stays a 503 for every duplicate within
// the instant.
func (c *pageCache) do(now time.Time, key pageKey, fetch func() (string, error)) (string, error) {
	c.mu.Lock()
	if !now.Equal(c.gen) {
		// The clock moved; everything cached is from an older instant.
		c.gen = now
		c.calls = make(map[pageKey]*pageCall)
	}
	if call, ok := c.calls[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-call.done
		return call.page, call.err
	}
	call := &pageCall{done: make(chan struct{})}
	c.calls[key] = call
	c.misses++
	c.mu.Unlock()

	// done must close even if fetch panics: in sheriffd the panic is
	// recovered by net/http's handler machinery, and an unclosed channel
	// would park every duplicate fetcher of this key forever. Waiters
	// then see errFetchPanicked — the assignment below never completed.
	call.err = errFetchPanicked
	func() {
		defer close(call.done)
		call.page, call.err = fetch()
	}()
	return call.page, call.err
}

// errFetchPanicked is what duplicate waiters observe when the fetch that
// owned their cache slot panicked instead of returning.
var errFetchPanicked = errors.New("backend: page fetch panicked")

// stats returns the cumulative hit/miss counters. A hit is a fetch served
// from a completed or in-flight duplicate; a miss actually touched the
// fabric.
func (c *pageCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
