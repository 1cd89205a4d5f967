package backend

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/extract"
	"sheriff/internal/money"
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
// The answer a check asks of a page is just as deterministic as the page,
// so a hit also keeps it (see ask): a flash crowd's repeat checks then
// skip parse, derive and extract as well as the fetch.
//
// The simulated instant is the cache's generation: when the clock moves,
// every cached page is stale by definition (prices drift daily, failure
// hashes change per day), so the map is dropped wholesale rather than
// entry-by-entry. Nothing else evicts, so the cache holds every distinct
// (URL, source, UA) triple fetched since the clock last moved.
type pageCache struct {
	mu    sync.Mutex
	gen   time.Time // simulated instant the cached pages were fetched at
	calls map[pageKey]*pageCall

	hits, misses uint64
	memoHits     atomic.Uint64 // answers served from a page's memo
}

// pageKey identifies one deterministic fetch.
type pageKey struct {
	url string
	src netip.Addr // source address — distinct per vantage point and per user
	ua  string     // User-Agent — fingerprint-pricing retailers render by it
}

// pageCall is one fetch, in flight or complete. done closes when the
// result fields are set. memo holds the answer that a check last asked of
// the page; only hits set it, so a page fetched once carries none, and
// the one pointer keeps a pageCall in the 48-byte size class.
type pageCall struct {
	done chan struct{}
	page string
	err  error
	memo atomic.Pointer[pageMemo]
}

// question is what a check asks of a cached page: on a user's page, the
// anchor that a highlight derives; on a vantage point's page, the price
// that an anchor extracts. The hint currency both steps take is a
// function of the source address, which the page's key already holds.
type question struct {
	derive    bool
	highlight string         // asked of a user's page
	anchor    extract.Anchor // asked of a vantage point's page
}

// pageMemo is a question with the answer a check computed for it.
type pageMemo struct {
	q       question
	derived extract.Parsed // a highlight's anchor, path parsed
	price   money.Amount   // an anchor's price
	err     error
}

func newPageCache() *pageCache {
	return &pageCache{calls: make(map[pageKey]*pageCall)}
}

// do returns the completed call for key at the simulated instant now,
// fetching at most once per (key, instant) across all concurrent callers,
// and whether the call was a hit. Errors are cached too: a deterministic
// 503 stays a 503 for every duplicate within the instant.
func (c *pageCache) do(now time.Time, key pageKey, fetch func() (string, error)) (call *pageCall, hit bool) {
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
		return call, true
	}
	call = &pageCall{done: make(chan struct{})}
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
	return call, false
}

// memoSlot is where a check asks about a page from the cache: the page's
// call and its cache on a hit. A miss gets the zero slot, which keeps
// nothing: a missed page is asked once.
type memoSlot struct {
	cache *pageCache
	call  *pageCall
}

// ask returns the answer to q about the slot's page, computing it with
// compute when no memo holds it. A hit's page keeps one answer, that of
// the question last computed, so a question that changes is recomputed,
// and two concurrent first hits may both compute the same answer. A
// compute that panics stores nothing.
func (s memoSlot) ask(q question, compute func() pageMemo) pageMemo {
	if s.cache == nil {
		return compute()
	}
	if m := s.call.memo.Load(); m != nil && m.q == q {
		s.cache.memoHits.Add(1)
		return *m
	}
	m := compute()
	m.q = q
	s.call.memo.Store(&m)
	return m
}

// errFetchPanicked is what duplicate waiters observe when the fetch that
// owned their cache slot panicked instead of returning.
var errFetchPanicked = errors.New("backend: page fetch panicked")

// stats returns the cumulative counters. A hit is a fetch served from a
// completed or in-flight duplicate; a miss actually touched the fabric; a
// memo hit is an answer served from a page's memo.
func (c *pageCache) stats() (hits, misses, memoHits uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.memoHits.Load()
}
