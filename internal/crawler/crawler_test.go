package crawler

import (
	"net/http"
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
		Rounds: 3, RoundInterval: 24 * time.Hour,
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
		Rounds: 7, RoundInterval: 24 * time.Hour,
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
// requests, to verify politeness limits.
type trackingHandler struct {
	inner interface {
		ServeHTTP(http.ResponseWriter, *http.Request)
	}
	mu       sync.Mutex
	inflight int
	peak     int
}

func (h *trackingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.inflight++
	if h.inflight > h.peak {
		h.peak = h.inflight
	}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.inflight--
		h.mu.Unlock()
	}()
	h.inner.ServeHTTP(w, r)
}

func TestPerDomainPoliteness(t *testing.T) {
	w := newCrawlWorld(t, shop.Config{Seed: 39, ProductCount: 24})
	// Re-register the retailer behind the concurrency tracker.
	srv := shop.NewServer(w.retailer, geo.NewDB())
	tracker := &trackingHandler{inner: srv}
	w.reg.Register(w.retailer.Domain(), tracker)

	c := New(w.reg, w.clk, geo.VantagePoints(), w.st, w.anchors)
	if _, err := c.Run(Plan{
		Domains: []string{w.retailer.Domain()}, MaxProducts: 24,
		Rounds: 1, Parallelism: 8, PerDomainParallelism: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// One product group at a time means at most 14 concurrent VP fetches.
	if tracker.peak > 14 {
		t.Fatalf("peak in-flight = %d; politeness cap violated", tracker.peak)
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
	// The cap still applies mid-pagination.
	urls, err = c.Discover(w.retailer.Domain(), vp, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 55 {
		t.Fatalf("cap across pages: %d", len(urls))
	}
}
