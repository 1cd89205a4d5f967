package backend

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sheriff/internal/extract"
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
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
		call, hit := c.do(now, key, fetch)
		if call.err != nil || call.page != "page" || hit != (i > 0) {
			t.Fatalf("do %d: %q %v, hit %v", i, call.page, call.err, hit)
		}
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1", fetches)
	}
	if hits, misses, _ := c.stats(); hits != 4 || misses != 1 {
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
		if call, _ := c.do(now, k, func() (string, error) {
			fetches++
			return fmt.Sprintf("%+v", k), nil
		}); call.err != nil {
			t.Fatal(call.err)
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
		if call, _ := c.do(now, key, func() (string, error) {
			fetches++
			return "", boom
		}); !errors.Is(call.err, boom) {
			t.Fatalf("err = %v, want cached 503", call.err)
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
			call, _ := c.do(now, key, func() (string, error) {
				atomic.AddInt32(&fetches, 1)
				<-started // hold the call open until all goroutines launched
				return "slow page", nil
			})
			if call.err != nil || call.page != "slow page" {
				t.Errorf("do: %q %v", call.page, call.err)
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
	hits, misses, _ := w.backend.PageCacheStats()
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
		call, _ := c.do(now, key, func() (string, error) { return "never", nil })
		waiterErr = call.err
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the fetching caller")
			}
		}()
		c.do(now, key, func() (string, error) {
			close(release)
			// Panic only once the waiter holds the in-flight call: its hit
			// is counted under the lock that hands the call over.
			for hits, _, _ := c.stats(); hits == 0; hits, _, _ = c.stats() {
				runtime.Gosched()
			}
			panic("render exploded")
		})
	}()

	wg.Wait() // deadlocks here if done never closed
	if waiterErr == nil {
		t.Fatal("duplicate waiter saw a nil error from a panicked fetch")
	}
}

// TestPageMemo checks what a page's memo keeps: nothing on a miss, the
// last question's answer on a hit, served to a repeat of that question
// and recomputed for another.
func TestPageMemo(t *testing.T) {
	c := newPageCache()
	now := time.Unix(0, 0)
	key := pageKey{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1")}
	fetch := func() (string, error) { return "page", nil }
	computes := 0
	answer := func(units int64) func() pageMemo {
		return func() pageMemo {
			computes++
			return pageMemo{price: money.Amount{Units: units, Currency: money.USD}}
		}
	}
	a := question{anchor: extract.Anchor{Path: "html/body/p"}}
	b := question{anchor: extract.Anchor{Path: "html/body/p", MatchIndex: 1}}
	ask := func(q question, units int64) {
		t.Helper()
		call, hit := c.do(now, key, fetch)
		var memo memoSlot
		if hit {
			memo = memoSlot{cache: c, call: call}
		}
		if got := memo.ask(q, answer(units)); got.price.Units != units {
			t.Fatalf("answer %d, want %d", got.price.Units, units)
		}
	}

	ask(a, 1)
	call, _ := c.do(now, key, fetch)
	if call.memo.Load() != nil {
		t.Fatal("a miss left a memo")
	}
	ask(a, 1) // first hit: computes and keeps
	ask(a, 1) // served from the memo
	ask(b, 2) // another question: recomputed, and it replaces a's answer
	ask(a, 1)
	if computes != 4 {
		t.Fatalf("computes = %d, want 4", computes)
	}
	if _, _, memoHits := c.stats(); memoHits != 1 {
		t.Fatalf("memo hits = %d, want 1", memoHits)
	}
	if size := unsafe.Sizeof(pageCall{}); size > 48 {
		t.Fatalf("pageCall is %d bytes, want it in the 48-byte size class", size)
	}
}

// TestPageMemoPanickingCompute checks a price step that panics on a hit
// leaves no memo and blocks no later caller of the page or its memo.
func TestPageMemoPanickingCompute(t *testing.T) {
	c := newPageCache()
	now := time.Unix(0, 0)
	key := pageKey{url: "http://a/1", src: netip.MustParseAddr("10.0.0.1")}
	fetch := func() (string, error) { return "page", nil }
	q := question{anchor: extract.Anchor{Path: "html/body/p"}}
	c.do(now, key, fetch)
	call, hit := c.do(now, key, fetch)
	if !hit {
		t.Fatal("second fetch missed")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("price step panic did not propagate")
			}
		}()
		memoSlot{cache: c, call: call}.ask(q, func() pageMemo { panic("extract exploded") })
	}()
	if call.memo.Load() != nil {
		t.Fatal("a panicked price step left a memo")
	}

	// A later caller deadlocks here if the panic left the page held.
	call, _ = c.do(now, key, fetch)
	m := memoSlot{cache: c, call: call}.ask(q, func() pageMemo { return pageMemo{price: money.Amount{Units: 7}} })
	if m.price.Units != 7 || call.memo.Load() == nil {
		t.Fatalf("later caller got %+v, memo %v", m, call.memo.Load())
	}
}

// failFor answers 503 to the listed client addresses and passes every
// other request to inner, as the paper world's injected failures do.
type failFor struct {
	inner   http.Handler
	clients map[string]bool
}

func (f failFor) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if f.clients[req.Header.Get(netsim.HeaderClientIP)] {
		http.Error(rw, "service unavailable", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(rw, req)
}

// TestCheckMemoMatchesFresh runs repeat checks against one backend at one
// instant, so their pages hit the cache and their answers come from the
// pages' memos, and runs each check again on a fresh backend, whose pages
// all miss. The result, or the error, and the stored rows must match.
func TestCheckMemoMatchesFresh(t *testing.T) {
	failUser := addrOf(userAddr(t, "GB", "London"))
	failVP := geo.VantagePoints()[3].Addr
	world := func() (*testWorld, *shop.Retailer) {
		w := newTestWorld(t)
		geodb := geo.NewDB()
		// Every German client is told "Price on request", so their rows
		// carry the extraction's error.
		hide := shop.New(shop.Config{
			Domain: "hide.example.com", Label: "Hiding shop", Seed: 23,
			Categories: []shop.Category{shop.CatClothing}, ProductCount: 20,
			PriceLo: 20, PriceHi: 200, Template: "classic", Localize: true,
			HideFraction: 1, HideCountries: []string{"DE"},
		}, w.market)
		w.reg.Register(hide.Domain(), shop.NewServer(hide, geodb))
		w.reg.Register(w.vary.Domain(), failFor{
			inner:   shop.NewServer(w.vary, geodb),
			clients: map[string]bool{failUser.String(): true, failVP.String(): true},
		})
		return w, hide
	}

	w, hide := world()
	us := addrOf(userAddr(t, "US", "Boston"))
	de := addrOf(userAddr(t, "DE", "Berlin"))
	p := w.vary.Catalog().Products()[0]
	url := "http://vary.example.com/product/" + p.SKU
	price := highlightFor(t, w.vary, p.SKU, "US", "Boston", w.clk)
	// The struck-through "was" price beside it: a second highlight on the
	// same page, with another anchor.
	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	wasAmt := w.vary.WasPrice(p, shop.Visit{Loc: loc, Time: w.clk.Now(), IP: "10.0.1.77"})
	was := money.Format(wasAmt, wasAmt.Currency.Style())
	hideSKU := hide.Catalog().Products()[0].SKU
	hideURL := "http://hide.example.com/product/" + hideSKU
	hidePrice := highlightFor(t, hide, hideSKU, "US", "Boston", w.clk)

	check := func(u netip.Addr, url, highlight string) CheckRequest {
		return CheckRequest{URL: url, Highlight: highlight, UserAddr: u, UserID: "memo"}
	}
	reqs := []struct {
		name string
		req  CheckRequest
	}{
		{"first check misses", check(us, url, price)},
		{"repeat computes the memos", check(us, url, price)},
		{"repeat is answered by the memos", check(us, url, price)},
		{"second highlight on the user page recomputes", check(us, url, was)},
		{"the first highlight recomputes again", check(us, url, price)},
		{"another user hits the vantage points", check(de, url, highlightFor(t, w.vary, p.SKU, "DE", "Berlin", w.clk))},
		{"highlight error", check(us, url, "gibberish")},
		{"highlight error from the memo", check(us, url, "gibberish")},
		{"injected 503 on the user page", check(failUser, url, price)},
		{"injected 503 again", check(failUser, url, price)},
		{"failed extraction", check(us, hideURL, hidePrice)},
		{"failed extraction again", check(us, hideURL, hidePrice)},
		{"failed extraction from the memo", check(us, hideURL, hidePrice)},
	}
	var seen uint64
	var prev CheckResult
	for _, tc := range reqs {
		got, gotErr := w.backend.Check(tc.req)
		gotRows := rowsAfter(w.st, seen)
		seen += uint64(len(gotRows))

		fresh, _ := world()
		want, wantErr := fresh.backend.Check(tc.req)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err %v, fresh %v", tc.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n  got %+v\nfresh %+v", tc.name, got, want)
		}
		if wantRows := rowsAfter(fresh.st, 0); !slices.Equal(gotRows, wantRows) {
			t.Fatalf("%s: rows\n  got %+v\nfresh %+v", tc.name, gotRows, wantRows)
		}
		// A fresh backend's pages all missed, so none keeps a memo.
		for key, call := range fresh.backend.pages.calls {
			if call.memo.Load() != nil {
				t.Fatalf("%s: missed page %v keeps a memo", tc.name, key)
			}
		}
		if tc.req.Highlight == was && reflect.DeepEqual(got, prev) {
			t.Fatalf("%s: the was price gave the price's result %+v", tc.name, got)
		}
		prev = got
	}

	// The cases reach every outcome a memo serves: prices, a 503 row and
	// a failed extraction.
	errs := map[string]bool{}
	for _, o := range rowsAfter(w.st, 0) {
		errs[o.Err] = true
	}
	if !errs[""] || !errs["backend: GET "+url+": status 503"] || !errs[extract.ErrNoPrice.Error()] {
		t.Fatalf("row outcomes %v miss a case", errs)
	}
	// Memos answer 43 questions: the third price check's user page and
	// its 13 vantage points that did not 503; those 13 again for the
	// German user, whose page derives the same anchor; the second
	// highlight error; the third hiding-shop check's user page and 14
	// vantage points. Every other question was a first or a changed one.
	if _, _, memoHits := w.backend.PageCacheStats(); memoHits != 14+13+1+15 {
		t.Fatalf("memos answered %d questions, want 43", memoHits)
	}
}

// TestCheckMemoConcurrent has concurrent users repeat checks of two
// products with two highlights at one instant, so checks race to read
// and replace the same pages' memos. Every result must equal the same
// check's on a fresh backend.
func TestCheckMemoConcurrent(t *testing.T) {
	w := newTestWorld(t)
	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	user := addrOf(userAddr(t, "US", "Boston"))
	var reqs []CheckRequest
	for _, p := range w.vary.Catalog().Products()[:2] {
		v := shop.Visit{Loc: loc, Time: w.clk.Now(), IP: "10.0.1.77"}
		for _, amt := range []money.Amount{w.vary.DisplayPrice(p, v), w.vary.WasPrice(p, v)} {
			reqs = append(reqs, CheckRequest{
				URL:       "http://vary.example.com/product/" + p.SKU,
				Highlight: money.Format(amt, amt.Currency.Style()),
				UserAddr:  user,
			})
		}
	}
	want := make([]CheckResult, len(reqs))
	for i, req := range reqs {
		if want[i], err = newTestWorld(t).backend.Check(req); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, perGoroutine = 6, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				k := (g + i) % len(reqs)
				got, err := w.backend.Check(reqs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("check %d:\n  got %+v\nfresh %+v", k, got, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, memoHits := w.backend.PageCacheStats(); memoHits == 0 {
		t.Error("no answer came from a memo")
	}
}

// rowsAfter returns the store's crowd rows with a sequence above after.
func rowsAfter(st *store.Store, after uint64) []store.Observation {
	var out []store.Observation
	for _, o := range st.ScanRange(store.Query{Round: -1}, after, math.MaxUint64) {
		out = append(out, o)
	}
	return out
}
