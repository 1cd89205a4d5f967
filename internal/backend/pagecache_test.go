package backend

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/shop"
)

// TestPageCacheDedupesWithinInstant checks the second identical fetch at
// the same instant is served from memory.
func TestPageCacheDedupesWithinInstant(t *testing.T) {
	c := newPageCache()
	now := time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC)
	key := pageKey{url: "http://a/product/1", src: netip.MustParseAddr("10.0.0.1"), ua: "Mozilla/5.0"}
	fetches := 0
	fetch := func() (string, error) { fetches++; return "page", nil }

	for i := 0; i < 5; i++ {
		page, err := c.do(now, key, fetch)
		if err != nil || page != "page" {
			t.Fatalf("do: %q %v", page, err)
		}
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1", fetches)
	}
	if hits, misses := c.stats(); hits != 4 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 4/1", hits, misses)
	}
}

// TestPageCacheKeysAreExact checks distinct URL, source, or UA each miss:
// fingerprint-pricing retailers render per UA, geo pricing per source.
func TestPageCacheKeysAreExact(t *testing.T) {
	c := newPageCache()
	now := time.Unix(0, 0)
	keys := []pageKey{
		{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1"), ua: "ff"},
		{url: "http://a/2", src: netip.MustParseAddr("10.0.0.1"), ua: "ff"},
		{url: "http://a/1", src: netip.MustParseAddr("10.0.0.2"), ua: "ff"},
		{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1"), ua: "safari"},
	}
	fetches := 0
	for _, k := range keys {
		k := k
		if _, err := c.do(now, k, func() (string, error) {
			fetches++
			return fmt.Sprintf("%+v", k), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if fetches != len(keys) {
		t.Fatalf("fetches = %d, want %d distinct", fetches, len(keys))
	}
}

// TestPageCacheGenerationReset checks advancing the simulated instant
// invalidates everything: prices drift per day, so must the cache.
func TestPageCacheGenerationReset(t *testing.T) {
	c := newPageCache()
	key := pageKey{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1")}
	day1 := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	day2 := day1.AddDate(0, 0, 1)
	fetches := 0
	fetch := func() (string, error) { fetches++; return "p", nil }

	c.do(day1, key, fetch)
	c.do(day1, key, fetch)
	c.do(day2, key, fetch)
	c.do(day2, key, fetch)
	if fetches != 2 {
		t.Fatalf("fetches = %d, want one per instant", fetches)
	}
}

// TestPageCacheCachesErrors checks a deterministic failure (the fabric's
// injected 503s hash the same inputs as the cache key) is served to
// duplicates without refetching.
func TestPageCacheCachesErrors(t *testing.T) {
	c := newPageCache()
	now := time.Unix(0, 0)
	key := pageKey{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1")}
	boom := errors.New("status 503")
	fetches := 0

	for i := 0; i < 3; i++ {
		if _, err := c.do(now, key, func() (string, error) {
			fetches++
			return "", boom
		}); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want cached 503", err)
		}
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1", fetches)
	}
}

// TestPageCacheSingleFlight hammers one key from many goroutines and
// checks exactly one fetch runs; everyone else waits on the in-flight
// call and sees its result.
func TestPageCacheSingleFlight(t *testing.T) {
	c := newPageCache()
	now := time.Unix(0, 0)
	key := pageKey{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1")}
	var fetches int32
	started := make(chan struct{})

	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			page, err := c.do(now, key, func() (string, error) {
				atomic.AddInt32(&fetches, 1)
				<-started // hold the call open until all goroutines launched
				return "slow page", nil
			})
			if err != nil || page != "slow page" {
				t.Errorf("do: %q %v", page, err)
			}
		}()
	}
	close(started)
	wg.Wait()
	if n := atomic.LoadInt32(&fetches); n != 1 {
		t.Fatalf("fetches = %d, want 1", n)
	}
}

// TestCheckConcurrentStress hammers Backend.Check from many goroutines —
// mixed users, products and domains — and checks counters, storage and
// results stay coherent. Run under -race this is the backend's
// thread-safety proof.
func TestCheckConcurrentStress(t *testing.T) {
	w := newTestWorld(t)
	products := w.vary.Catalog().Products()
	flatProducts := w.flat.Catalog().Products()

	type userSpec struct {
		cc, city string
		host     int
	}
	specs := []userSpec{
		{"US", "Boston", 50}, {"DE", "Berlin", 51}, {"FI", "Tampere", 52},
		{"GB", "London", 53}, {"ES", "Barcelona", 54},
	}

	const perUser = 8
	var succeeded atomic.Int64
	var wg sync.WaitGroup
	for ui, spec := range specs {
		wg.Add(1)
		go func(ui int, spec userSpec) {
			defer wg.Done()
			loc, err := geo.LocationOf(spec.cc, spec.city)
			if err != nil {
				t.Error(err)
				return
			}
			addr, err := geo.AddrFor(loc, spec.host)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perUser; i++ {
				r, ps, domain := w.vary, products, "vary.example.com"
				if (ui+i)%2 == 0 {
					r, ps, domain = w.flat, flatProducts, "flat.example.com"
				}
				p := ps[(ui*perUser+i)%len(ps)]
				amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: w.clk.Now(), IP: addr.String()})
				res, err := w.backend.Check(CheckRequest{
					URL:       "http://" + domain + "/product/" + p.SKU,
					Highlight: money.Format(amt, amt.Currency.Style()),
					UserAddr:  addr,
					UserID:    fmt.Sprintf("stress-%d", ui),
				})
				if err != nil {
					t.Errorf("user %d check %d: %v", ui, i, err)
					continue
				}
				if len(res.Prices) != len(w.backend.VantagePoints()) {
					t.Errorf("got %d prices", len(res.Prices))
				}
				succeeded.Add(1)
			}
		}(ui, spec)
	}
	wg.Wait()

	want := int(succeeded.Load())
	if got := w.backend.Checks(); got != want {
		t.Errorf("Checks() = %d, want %d", got, want)
	}
	if got, want := w.st.Len(), want*len(w.backend.VantagePoints()); got != want {
		t.Errorf("store rows = %d, want %d", got, want)
	}
	// Both domains were checked, so both anchors must have been learned.
	for _, d := range []string{"vary.example.com", "flat.example.com"} {
		if _, ok := w.backend.Anchor(d); !ok {
			t.Errorf("no anchor for %s", d)
		}
	}
	// All checks ran at one instant: the cache must have deduped the
	// repeated (product × vantage point) fetches across users.
	hits, misses := w.backend.PageCacheStats()
	if hits == 0 {
		t.Errorf("page cache saw no hits over %d concurrent checks (misses=%d)", want, misses)
	}
}

// TestPageCachePanickingFetch checks a panicking fetch does not deadlock
// duplicate waiters: done still closes, waiters see an error, and the
// panic propagates to the fetching caller (net/http recovers it there).
func TestPageCachePanickingFetch(t *testing.T) {
	c := newPageCache()
	now := time.Unix(0, 0)
	key := pageKey{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1")}

	release := make(chan struct{})
	var waiterErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-release // let the panicking fetch claim the slot first
		_, waiterErr = c.do(now, key, func() (string, error) { return "never", nil })
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the fetching caller")
			}
		}()
		c.do(now, key, func() (string, error) {
			close(release)
			// Give the waiter time to park on the in-flight call.
			time.Sleep(10 * time.Millisecond)
			panic("render exploded")
		})
	}()

	wg.Wait() // deadlocks here if done never closed
	if waiterErr == nil {
		t.Fatal("duplicate waiter saw a nil error from a panicked fetch")
	}
}
