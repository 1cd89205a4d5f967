package crawler

import (
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

type crawlWorld struct {
	reg      *netsim.Registry
	clk      *netsim.Clock
	market   *fx.Market
	st       *store.Store
	retailer *shop.Retailer
	anchors  map[string]extract.Anchor
}

func newCrawlWorld(t *testing.T, cfg shop.Config) *crawlWorld {
	t.Helper()
	market := fx.NewMarket(1)
	if cfg.Domain == "" {
		cfg.Domain = "crawlme.example.com"
	}
	if cfg.Label == "" {
		cfg.Label = "Crawl target"
	}
	if len(cfg.Categories) == 0 {
		cfg.Categories = []shop.Category{shop.CatClothing, shop.CatShoes}
	}
	if cfg.ProductCount == 0 {
		cfg.ProductCount = 30
	}
	if cfg.PriceLo == 0 {
		cfg.PriceLo, cfg.PriceHi = 20, 200
	}
	r := shop.New(cfg, market)
	reg := netsim.NewRegistry()
	reg.Register(r.Domain(), shop.NewServer(r, geo.NewDB()))
	clk := netsim.NewClock(time.Date(2013, 5, 1, 10, 0, 0, 0, time.UTC))

	// Learn an anchor the way the pipeline does: from a rendered page.
	loc, _ := geo.LocationOf("US", "Boston")
	p := r.Catalog().Products()[0]
	v := shop.Visit{Loc: loc, Time: clk.Now(), IP: "10.0.1.99"}
	page := r.RenderProduct(p, v)
	doc, err := htmlx.ParseString(page)
	if err != nil {
		t.Fatal(err)
	}
	amt := r.DisplayPrice(p, v)
	anchor, err := extract.Derive(doc, money.Format(amt, amt.Currency.Style()), money.USD)
	if err != nil {
		t.Fatal(err)
	}
	return &crawlWorld{
		reg: reg, clk: clk, market: market, st: store.New(),
		retailer: r,
		anchors:  map[string]extract.Anchor{r.Domain(): anchor},
	}
}

func TestDiscoverFindsProducts(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{Seed: 31, ProductCount: 30})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	vp, _ := geo.VantagePointByID("us-bos")
	urls, err := c.Discover(w.retailer.Domain(), vp, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 30 {
		t.Fatalf("discovered %d products, want 30", len(urls))
	}
	urls, err = c.Discover(w.retailer.Domain(), vp, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 10 {
		t.Fatalf("cap ignored: %d", len(urls))
	}
}

func TestRunProducesObservations(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{
		Seed: 32, ProductCount: 10, Localize: true, VariedFraction: 1,
		CountryFactor: map[string]float64{"FI": 1.25},
	})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	rep, err := c.Run(Plan{
		Domains: []string{w.retailer.Domain()}, MaxProducts: 10,
		Rounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * 14 * 3
	if got := w.st.Len(); got != want {
		t.Fatalf("observations = %d, want %d", got, want)
	}
	if rep.Extracted+rep.Failed != want {
		t.Fatalf("report %d+%d != %d", rep.Extracted, rep.Failed, want)
	}
	if rep.Extracted < want*9/10 {
		t.Fatalf("extraction success too low: %d of %d", rep.Extracted, want)
	}
	if rep.ProductsPerDomain[w.retailer.Domain()] != 10 {
		t.Fatalf("products per domain = %v", rep.ProductsPerDomain)
	}
}

func TestRunRoundsAdvanceSimulatedDays(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{Seed: 33, ProductCount: 4})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	start := w.clk.Now()
	if _, err := c.Run(Plan{
		Domains: []string{w.retailer.Domain()}, MaxProducts: 4,
		Rounds: 7,
	}); err != nil {
		t.Fatal(err)
	}
	elapsed := w.clk.Now().Sub(start)
	if elapsed != 6*24*time.Hour {
		t.Fatalf("clock advanced %v, want 6 days for 7 rounds", elapsed)
	}
	days := map[string]bool{}
	for _, o := range w.st.Filter(store.Query{Round: -1}) {
		days[o.Time.UTC().Format("2006-01-02")] = true
	}
	if len(days) != 7 {
		t.Fatalf("observations span %d days, want 7", len(days))
	}
}

func TestRunSynchronizedWithinRound(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{Seed: 34, ProductCount: 3})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	if _, err := c.Run(Plan{Domains: []string{w.retailer.Domain()}, MaxProducts: 3, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	byRound := map[int]time.Time{}
	for _, o := range w.st.Filter(store.Query{Round: -1}) {
		if prev, ok := byRound[o.Round]; ok {
			if !prev.Equal(o.Time) {
				t.Fatal("observations within a round are not synchronized")
			}
		} else {
			byRound[o.Round] = o.Time
		}
	}
}

func TestRunUnsynchronizedStaggersVPs(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{Seed: 35, ProductCount: 2})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	if _, err := c.Run(Plan{
		Domains: []string{w.retailer.Domain()}, MaxProducts: 2,
		Rounds: 1, Unsynchronized: true,
	}); err != nil {
		t.Fatal(err)
	}
	times := map[time.Time]bool{}
	for _, o := range w.st.Filter(store.Query{Round: -1}) {
		times[o.Time] = true
	}
	if len(times) < 10 {
		t.Fatalf("unsynchronized crawl has only %d distinct times", len(times))
	}
}

func TestRunWithoutAnchorUsesHeuristics(t *testing.T) {
	// classic template has .price classes: heuristic extraction works
	// without a crowd anchor.
	w := newCrawlWorld(t, shop.Config{Seed: 36, ProductCount: 5, Template: "classic"})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, nil)
	rep, err := c.Run(Plan{Domains: []string{w.retailer.Domain()}, MaxProducts: 5, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Extracted == 0 {
		t.Fatal("heuristic extraction extracted nothing on classic template")
	}
}

func TestRunExtractionMatchesGroundTruth(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{
		Seed: 37, ProductCount: 6, Localize: true, VariedFraction: 1,
		CountryFactor: map[string]float64{"FI": 1.25, "GB": 1.10, "DE": 1.12, "BE": 1.12, "ES": 1.12},
	})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	if _, err := c.Run(Plan{Domains: []string{w.retailer.Domain()}, MaxProducts: 6, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, o := range w.st.Filter(store.Query{Round: -1, OnlyOK: true}) {
		p, ok := w.retailer.Catalog().BySKU(o.SKU)
		if !ok {
			t.Fatalf("unknown SKU %s", o.SKU)
		}
		vp, ok := geo.VantagePointByID(o.VP)
		if !ok {
			t.Fatalf("unknown VP %s", o.VP)
		}
		truth := w.retailer.DisplayPrice(p, shop.Visit{
			Loc: vp.Location, Time: o.Time, IP: vp.Addr.String(),
		})
		if truth.Units != o.PriceUnits || truth.Currency.Code != o.Currency {
			t.Fatalf("extracted %d %s != truth %d %s (sku %s vp %s)",
				o.PriceUnits, o.Currency, truth.Units, truth.Currency.Code, o.SKU, o.VP)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestRunErrors(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{Seed: 38})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	if _, err := c.Run(Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := c.Run(Plan{Domains: []string{"nowhere.example.com"}}); err == nil {
		t.Error("NXDOMAIN domain accepted")
	}
}

// trackingHandler wraps a shop server counting concurrent in-flight
// requests, and the distinct product pages among them, to verify
// politeness limits.
type trackingHandler struct {
	inner http.Handler
	mu    sync.Mutex
	// inflight counts requests in flight and peak its maximum.
	inflight, peak int
	// pages counts in-flight requests per product page; peakPages is the
	// most distinct product pages ever in flight at once.
	pages     map[string]int
	peakPages int
}

func (h *trackingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	page := ""
	if strings.HasPrefix(r.URL.Path, "/product/") {
		page = r.URL.Path
	}
	h.mu.Lock()
	h.inflight++
	h.peak = max(h.peak, h.inflight)
	if page != "" {
		h.pages[page]++
		h.peakPages = max(h.peakPages, len(h.pages))
	}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.inflight--
		if page != "" {
			if h.pages[page]--; h.pages[page] == 0 {
				delete(h.pages, page)
			}
		}
		h.mu.Unlock()
	}()
	h.inner.ServeHTTP(w, r)
}

// TestPerDomainPoliteness checks no more than perDomainWorkers product
// groups of one retailer are ever in flight. At GOMAXPROCS 16 each
// product's fan-out runs all its vantage points at once, so the request
// peak is bounded by perDomainWorkers full fan-outs.
func TestPerDomainPoliteness(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	w := newCrawlWorld(t, shop.Config{Seed: 39, ProductCount: 24})
	// Re-register the retailer behind the concurrency tracker.
	srv := shop.NewServer(w.retailer, geo.NewDB())
	tracker := &trackingHandler{inner: srv, pages: map[string]int{}}
	w.reg.Register(w.retailer.Domain(), tracker)

	vps := geo.VantagePoints()
	c := New(w.reg, w.clk, vps, w.st, w.anchors)
	if _, err := c.Run(Plan{
		Domains: []string{w.retailer.Domain()}, MaxProducts: 24, Rounds: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if tracker.peakPages > perDomainWorkers {
		t.Fatalf("peak product pages in flight = %d; politeness cap %d violated", tracker.peakPages, perDomainWorkers)
	}
	if limit := perDomainWorkers * len(vps); tracker.peak > limit {
		t.Fatalf("peak in-flight = %d; politeness cap %d violated", tracker.peak, limit)
	}
}

// TestCrawlIndependentOfGOMAXPROCS crawls the same two retailers at
// GOMAXPROCS 1 and 4, synchronized and not: the simulated clock, not
// the scheduling, decides every row, so both runs must store the same
// rows (in any order, under any sequence numbers) and report the same
// counts.
func TestCrawlIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	crawl := func(procs int, unsync bool) ([]string, *Report) {
		runtime.GOMAXPROCS(procs)
		w := newCrawlWorld(t, shop.Config{Seed: 41, ProductCount: 12, Localize: true, VariedFraction: 1})
		// A second retailer without an anchor: heuristic extraction on
		// the classic template, crawled alongside the first.
		second := shop.New(shop.Config{
			Seed: 42, Domain: "second.example.com", Label: "Second", ProductCount: 9,
			Categories: []shop.Category{shop.CatShoes}, PriceLo: 20, PriceHi: 200, Template: "classic",
		}, w.market)
		w.reg.Register(second.Domain(), shop.NewServer(second, geo.NewDB()))
		c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
		rep, err := c.Run(Plan{
			Domains:     []string{w.retailer.Domain(), second.Domain()},
			MaxProducts: 12, Rounds: 2, Unsynchronized: unsync,
		})
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, o := range w.st.Filter(store.Query{Round: -1}) {
			b, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, string(b))
		}
		slices.Sort(rows)
		return rows, rep
	}
	for _, unsync := range []bool{false, true} {
		oneRows, oneRep := crawl(1, unsync)
		fourRows, fourRep := crawl(4, unsync)
		if want := (12 + 9) * 14 * 2; len(oneRows) != want {
			t.Fatalf("unsync=%v: stored %d rows, want %d", unsync, len(oneRows), want)
		}
		if !slices.Equal(oneRows, fourRows) {
			t.Fatalf("unsync=%v: rows differ by GOMAXPROCS", unsync)
		}
		if !reflect.DeepEqual(oneRep, fourRep) {
			t.Fatalf("unsync=%v: report differs by GOMAXPROCS:\n 1: %+v\n 4: %+v", unsync, oneRep, fourRep)
		}
	}
}

func TestDiscoverFollowsPagination(t *testing.T) {
	// 95 products in one category paginate at 40/page; discovery must
	// walk all three pages.
	w := newCrawlWorld(t, shop.Config{
		Seed: 40, ProductCount: 95,
		Categories: []shop.Category{shop.CatClothing},
	})
	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	vp, _ := geo.VantagePointByID("us-bos")
	urls, err := c.Discover(w.retailer.Domain(), vp, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 95 {
		t.Fatalf("discovered %d products across pages, want 95", len(urls))
	}
	// Each product once, and the listing's order kept: page 0's 40
	// products come before any of page 1's.
	seen := map[string]bool{}
	for _, u := range urls {
		if seen[u] {
			t.Fatalf("%s discovered twice", u)
		}
		seen[u] = true
	}
	firstPage := map[string]bool{}
	for _, p := range w.retailer.Catalog().Products()[:shop.CategoryPageSize] {
		firstPage["http://"+w.retailer.Domain()+"/product/"+p.SKU] = true
	}
	for i, u := range urls[:shop.CategoryPageSize] {
		if !firstPage[u] {
			t.Fatalf("urls[%d] = %s is not on the first listing page", i, u)
		}
	}
	// The cap still applies mid-pagination.
	urls, err = c.Discover(w.retailer.Domain(), vp, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 55 {
		t.Fatalf("cap across pages: %d", len(urls))
	}
}

func TestLinksByClass(t *testing.T) {
	for _, tc := range []struct {
		name, page, class string
		hrefs             []string // "-" marks a link without an href
	}{
		{"class among several", `<a class="btn next" href="/c?page=1">more</a>`, "next", []string{"/c?page=1"}},
		{"non-link element ignored", `<span class="next">x</span><a class="next" href="/2">y</a>`, "next", []string{"/2"}},
		{"document order", `<div><a class="next" href="/1">a</a></div><a class="next" href="/2">b</a>`, "next", []string{"/1", "/2"}},
		{"first without href", `<a class="next">a</a><a class="next" href="/2">b</a>`, "next", []string{"-", "/2"}},
		{"other classes", `<a class="cat-link" href="/c">c</a><a class="nextish" href="/n">n</a>`, "next", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := htmlx.ParseString(tc.page)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, a := range links(doc, tc.class) {
				href, ok := a.Attr("href")
				if !ok {
					href = "-"
				}
				got = append(got, href)
			}
			if strings.Join(got, " ") != strings.Join(tc.hrefs, " ") {
				t.Fatalf("links(%q) hrefs = %q, want %q", tc.class, got, tc.hrefs)
			}
		})
	}
}

// The first next link on a listing decides where pagination goes; one
// without an href ends the chain even when a later one has an href.
func TestDiscoverFirstNextLinkDecides(t *testing.T) {
	for _, tc := range []struct {
		name, next string
		want       []string
	}{
		{"first of two wins", `<a class="next" href="/category/c?page=1">1</a><a class="next" href="/category/c?page=2">2</a>`, []string{"P0", "P1"}},
		{"first without href ends", `<a class="next">1</a><a class="next" href="/category/c?page=2">2</a>`, []string{"P0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pages := map[string]string{
				"/":                  `<a class="cat-link" href="/category/c">c</a>`,
				"/category/c":        `<a class="product-link" href="/product/P0">p</a>` + tc.next,
				"/category/c?page=1": `<a class="product-link" href="/product/P1">p</a>`,
				"/category/c?page=2": `<a class="product-link" href="/product/P2">p</a>`,
			}
			reg := netsim.NewRegistry()
			reg.Register("links.example.com", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				page, ok := pages[r.URL.RequestURI()]
				if !ok {
					http.NotFound(w, r)
					return
				}
				w.Write([]byte(page))
			}))
			clk := netsim.NewClock(time.Date(2013, 5, 1, 10, 0, 0, 0, time.UTC))
			c := New(reg, clk, geo.VantagePoints(), store.New(), nil)
			vp, _ := geo.VantagePointByID("us-bos")
			urls, err := c.Discover("links.example.com", vp, 10)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, u := range urls {
				got = append(got, skuOf(u))
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("discovered %q, want %q", got, tc.want)
			}
		})
	}
}
