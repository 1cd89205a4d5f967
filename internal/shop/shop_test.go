package shop

import (
	"math"
	"strings"
	"testing"
	"time"

	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/money"
)

var (
	testDay = time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC)
	market  = fx.NewMarket(1)
)

func loc(t *testing.T, cc, city string) geo.Location {
	t.Helper()
	l, err := geo.LocationOf(cc, city)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func visitAt(t *testing.T, cc, city string) Visit {
	t.Helper()
	return Visit{Loc: loc(t, cc, city), Time: testDay, IP: "10.9.9.9"}
}

func testRetailer(cfg Config) *Retailer {
	if cfg.Domain == "" {
		cfg.Domain = "test.example.com"
	}
	if cfg.Label == "" {
		cfg.Label = "Test shop"
	}
	if len(cfg.Categories) == 0 {
		cfg.Categories = []Category{CatClothing}
	}
	if cfg.ProductCount == 0 {
		cfg.ProductCount = 20
	}
	if cfg.PriceLo == 0 {
		cfg.PriceLo, cfg.PriceHi = 10, 500
	}
	if cfg.VariedFraction == 0 {
		cfg.VariedFraction = 1
	}
	return New(cfg, market)
}

func TestCatalogDeterministic(t *testing.T) {
	a := GenCatalog(5, "AAA", []Category{CatBooks}, 50, 10, 100)
	b := GenCatalog(5, "AAA", []Category{CatBooks}, 50, 10, 100)
	pa, pb := a.Products(), b.Products()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("catalog not deterministic at %d: %+v vs %+v", i, pa[i], pb[i])
		}
	}
	c := GenCatalog(6, "AAA", []Category{CatBooks}, 50, 10, 100)
	if c.Products()[0].Name == pa[0].Name && c.Products()[1].Name == pa[1].Name &&
		c.Products()[0].Base == pa[0].Base {
		t.Fatal("different seeds produced identical catalogs")
	}
}

func TestCatalogPriceRange(t *testing.T) {
	c := GenCatalog(7, "RNG", []Category{CatElectronics}, 200, 10, 1000)
	for _, p := range c.Products() {
		v := p.Base.Float()
		if v < 9.5 || v > 1100 {
			t.Fatalf("base price %v outside range", v)
		}
		if p.Base.Currency.Code != "USD" {
			t.Fatal("base price not USD")
		}
	}
}

func TestCatalogBySKU(t *testing.T) {
	c := GenCatalog(1, "SKU", []Category{CatBooks}, 10, 10, 50)
	p := c.Products()[3]
	got, ok := c.BySKU(p.SKU)
	if !ok || got != p {
		t.Fatalf("BySKU(%s) = %v", p.SKU, got)
	}
	if _, ok := c.BySKU("nope"); ok {
		t.Fatal("bogus SKU resolved")
	}
}

func TestGenCatalogPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid params")
		}
	}()
	GenCatalog(1, "X", nil, 0, 0, 0)
}

func TestMultiplicativeGeoPricing(t *testing.T) {
	r := testRetailer(Config{
		Seed:          42,
		CountryFactor: map[string]float64{"FI": 1.25, "GB": 1.10},
	})
	p := r.Catalog().Products()[0]
	us := r.USDPrice(p, visitAt(t, "US", "New York")).Float()
	fi := r.USDPrice(p, visitAt(t, "FI", "Tampere")).Float()
	uk := r.USDPrice(p, visitAt(t, "GB", "London")).Float()
	if ratio := fi / us; ratio < 1.24 || ratio > 1.26 {
		t.Fatalf("FI/US = %v, want ~1.25", ratio)
	}
	if ratio := uk / us; ratio < 1.09 || ratio > 1.11 {
		t.Fatalf("UK/US = %v, want ~1.10", ratio)
	}
}

func TestAdditiveGeoPricing(t *testing.T) {
	r := testRetailer(Config{
		Seed:       43,
		CountryAdd: map[string]float64{"GB": 8},
	})
	for _, p := range r.Catalog().Products() {
		us := r.USDPrice(p, visitAt(t, "US", "New York")).Float()
		uk := r.USDPrice(p, visitAt(t, "GB", "London")).Float()
		if diff := uk - us; diff < 7.9 || diff > 8.1 {
			t.Fatalf("UK-US = %v, want 8 (p=%v)", diff, us)
		}
	}
}

func TestCityPricing(t *testing.T) {
	r := testRetailer(Config{
		Seed: 44,
		CityFactor: map[string]float64{
			"US/Chicago": 0.98, "US/New York": 1.09,
		},
	})
	p := r.Catalog().Products()[0]
	chi := r.USDPrice(p, visitAt(t, "US", "Chicago")).Float()
	nyc := r.USDPrice(p, visitAt(t, "US", "New York")).Float()
	bos := r.USDPrice(p, visitAt(t, "US", "Boston")).Float()
	if nyc <= chi {
		t.Fatal("NYC should be dearer than Chicago")
	}
	if ratio := nyc / chi; ratio < 1.10 || ratio > 1.13 {
		t.Fatalf("NYC/Chicago = %v", ratio)
	}
	if bos != p.Base.Float() {
		t.Fatalf("Boston (no factor) = %v, want base %v", bos, p.Base.Float())
	}
}

func TestJitterMixedRelation(t *testing.T) {
	r := testRetailer(Config{
		Seed:         45,
		ProductCount: 100,
		CityFactor:   map[string]float64{"US/Boston": 1.02, "US/Lincoln": 1.01},
		CityJitter:   map[string]float64{"US/Lincoln": 0.06},
	})
	var linCheaper, linDearer int
	for _, p := range r.Catalog().Products() {
		bos := r.USDPrice(p, visitAt(t, "US", "Boston")).Float()
		lin := r.USDPrice(p, visitAt(t, "US", "Lincoln")).Float()
		if lin < bos {
			linCheaper++
		}
		if lin > bos {
			linDearer++
		}
	}
	if linCheaper < 10 || linDearer < 10 {
		t.Fatalf("mixed relation not mixed: cheaper=%d dearer=%d", linCheaper, linDearer)
	}
}

func TestVariedFractionExtent(t *testing.T) {
	r := testRetailer(Config{
		Seed:           46,
		ProductCount:   200,
		VariedFraction: 0.4,
		CountryFactor:  map[string]float64{"FI": 1.3},
	})
	varied := 0
	for _, p := range r.Catalog().Products() {
		us := r.USDPrice(p, visitAt(t, "US", "New York"))
		fi := r.USDPrice(p, visitAt(t, "FI", "Tampere"))
		if us.Units != fi.Units {
			varied++
		}
	}
	frac := float64(varied) / 200
	if frac < 0.27 || frac > 0.53 {
		t.Fatalf("varied fraction = %v, want ~0.4", frac)
	}
}

func TestPricingDeterministicAcrossRequests(t *testing.T) {
	r := testRetailer(Config{Seed: 47, CountryFactor: map[string]float64{"FI": 1.2}})
	p := r.Catalog().Products()[5]
	v := visitAt(t, "FI", "Tampere")
	a := r.USDPrice(p, v)
	for i := 0; i < 10; i++ {
		if got := r.USDPrice(p, v); got != a {
			t.Fatal("price changed between identical visits")
		}
	}
}

func TestABNoiseFlipsAcrossDays(t *testing.T) {
	r := testRetailer(Config{
		Seed:         48,
		ProductCount: 60,
		ABFraction:   1.0, ABAmplitude: 0.05,
	})
	flips := 0
	for _, p := range r.Catalog().Products() {
		v1 := Visit{Loc: loc(t, "US", "Boston"), Time: testDay, IP: "10.0.1.10"}
		v2 := v1
		v2.Time = testDay.AddDate(0, 0, 1)
		if r.USDPrice(p, v1).Units != r.USDPrice(p, v2).Units {
			flips++
		}
	}
	// Bucket reassignment flips ~half the products day over day.
	if flips < 15 || flips > 45 {
		t.Fatalf("A/B day flips = %d of 60", flips)
	}
}

func TestDriftSameEverywhereAtSameInstant(t *testing.T) {
	r := testRetailer(Config{Seed: 49, DriftAmplitude: 0.05})
	p := r.Catalog().Products()[0]
	v1 := visitAt(t, "US", "Boston")
	v2 := visitAt(t, "GB", "London")
	if r.USDPrice(p, v1).Units != r.USDPrice(p, v2).Units {
		t.Fatal("drift differs across locations at the same instant")
	}
	v3 := v1
	v3.Time = testDay.Add(7 * time.Hour)
	if r.USDPrice(p, v1).Units == r.USDPrice(p, v3).Units {
		t.Fatal("drift did not move the price over hours")
	}
}

func TestLoginPricing(t *testing.T) {
	r := testRetailer(Config{
		Seed:            50,
		Categories:      []Category{CatEbooks},
		LoginJitter:     0.10,
		LoginCategories: []Category{CatEbooks},
	})
	anon := visitAt(t, "US", "Boston")
	a, b := anon, anon
	a.Account, b.Account = "userA", "userB"
	affected := 0
	for _, p := range r.Catalog().Products() {
		pAnon := r.USDPrice(p, anon).Float()
		pA := r.USDPrice(p, a).Float()
		pB := r.USDPrice(p, b).Float()
		if pAnon != p.Base.Float() {
			t.Fatalf("anonymous price %v != base %v", pAnon, p.Base.Float())
		}
		if pA != pAnon || pB != pAnon {
			affected++
		}
		if pA < pAnon*0.89 || pA > pAnon*1.11 {
			t.Fatalf("login delta out of bounds: %v vs %v", pA, pAnon)
		}
	}
	// Some products react to accounts, some do not (Fig. 10's shape).
	if affected == 0 || affected == r.Catalog().Len() {
		t.Fatalf("login effect on %d of %d products; expected a strict subset",
			affected, r.Catalog().Len())
	}
}

func TestLoginOnlyAffectsConfiguredCategories(t *testing.T) {
	r := testRetailer(Config{
		Seed:            51,
		Categories:      []Category{CatBooks, CatEbooks},
		ProductCount:    10,
		LoginJitter:     0.10,
		LoginCategories: []Category{CatEbooks},
	})
	v := visitAt(t, "US", "Boston")
	v.Account = "userA"
	for _, p := range r.Catalog().Products() {
		anon := visitAt(t, "US", "Boston")
		if p.Category == CatBooks {
			if r.USDPrice(p, v) != r.USDPrice(p, anon) {
				t.Fatal("books affected by login")
			}
		}
	}
}

func TestDisplayPriceLocalization(t *testing.T) {
	r := testRetailer(Config{Seed: 52, Localize: true})
	p := r.Catalog().Products()[0]
	vUS := visitAt(t, "US", "Boston")
	vDE := visitAt(t, "DE", "Berlin")
	us := r.DisplayPrice(p, vUS)
	de := r.DisplayPrice(p, vDE)
	if us.Currency.Code != "USD" {
		t.Fatalf("US display currency = %s", us.Currency.Code)
	}
	if de.Currency.Code != "EUR" {
		t.Fatalf("DE display currency = %s", de.Currency.Code)
	}
	// Same USD value (no geo factors configured): EUR amount is smaller
	// since EUR > USD in 2013.
	if de.Float() >= us.Float() {
		t.Fatalf("EUR %v not smaller than USD %v at 2013 rates", de.Float(), us.Float())
	}
}

func TestDisplayPriceNoLocalize(t *testing.T) {
	r := testRetailer(Config{Seed: 53, Localize: false})
	p := r.Catalog().Products()[0]
	de := r.DisplayPrice(p, visitAt(t, "DE", "Berlin"))
	if de.Currency.Code != "USD" {
		t.Fatalf("non-localizing retailer showed %s", de.Currency.Code)
	}
}

func TestCrawledConfigsShape(t *testing.T) {
	cfgs := CrawledConfigs(1)
	if len(cfgs) != 21 {
		t.Fatalf("crawled retailers = %d, want 21 (Sec. 3.2)", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if seen[c.Domain] {
			t.Fatalf("duplicate domain %s", c.Domain)
		}
		seen[c.Domain] = true
		if c.ProductCount < 100 {
			t.Errorf("%s: ProductCount %d < 100 (paper crawls up to 100)", c.Domain, c.ProductCount)
		}
		if c.PriceLo <= 0 || c.PriceHi < c.PriceLo {
			t.Errorf("%s: bad price range", c.Domain)
		}
	}
	for _, want := range []string{"www.amazon.com", "www.homedepot.com", "www.digitalrev.com", "www.energie.it", "www.mauijim.com", "www.tuscanyleather.it"} {
		if !seen[want] {
			t.Errorf("missing retailer %s", want)
		}
	}
}

func TestTrackerPresenceMatchesPaper(t *testing.T) {
	cfgs := CrawledConfigs(1)
	count := map[string]int{}
	for _, c := range cfgs {
		for _, tr := range c.Trackers {
			count[tr]++
		}
	}
	n := float64(len(cfgs))
	checks := []struct {
		key  string
		want float64 // paper's fraction
		tol  float64
	}{
		{"ga", 0.95, 0.05},
		{"doubleclick", 0.65, 0.05},
		{"facebook", 0.80, 0.05},
		{"pinterest", 0.45, 0.05},
		{"twitter", 0.40, 0.05},
	}
	for _, c := range checks {
		got := float64(count[c.key]) / n
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s presence = %.2f, want %.2f±%.2f", c.key, got, c.want, c.tol)
		}
	}
}

func TestLongTailNeverVaries(t *testing.T) {
	cfgs := LongTailConfigs(1, 30)
	if len(cfgs) != 30 {
		t.Fatalf("long tail = %d", len(cfgs))
	}
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		if seen[cfg.Domain] {
			t.Fatalf("duplicate long-tail domain %s", cfg.Domain)
		}
		seen[cfg.Domain] = true
		r := New(cfg, market)
		p := r.Catalog().Products()[0]
		us := r.USDPrice(p, visitAt(t, "US", "Boston"))
		fi := r.USDPrice(p, visitAt(t, "FI", "Tampere"))
		if us.Units != fi.Units {
			t.Fatalf("%s varies but should not", cfg.Domain)
		}
	}
}

func TestFinlandPremiumShape(t *testing.T) {
	// Across crawled retailers, Finland must (almost) never be cheaper
	// than the US, with mauijim and tuscanyleather as the exceptions.
	for _, cfg := range CrawledConfigs(1) {
		r := New(cfg, market)
		cheaperCount := 0
		ps := r.Catalog().Products()
		for _, p := range ps[:30] {
			us := r.USDPrice(p, visitAt(t, "US", "Chicago"))
			fi := r.USDPrice(p, visitAt(t, "FI", "Tampere"))
			if fi.Units < us.Units {
				cheaperCount++
			}
		}
		isException := cfg.Domain == "www.mauijim.com" || cfg.Domain == "www.tuscanyleather.it"
		if isException && cheaperCount == 0 {
			t.Errorf("%s: expected Finland to be cheaper sometimes", cfg.Domain)
		}
		if !isException && cheaperCount > 0 {
			t.Errorf("%s: Finland cheaper for %d products, expected none", cfg.Domain, cheaperCount)
		}
	}
}

func TestWasPriceAboveDisplay(t *testing.T) {
	r := testRetailer(Config{Seed: 54})
	v := visitAt(t, "US", "Boston")
	for _, p := range r.Catalog().Products() {
		if r.WasPrice(p, v).Units <= r.DisplayPrice(p, v).Units {
			t.Fatal("was price not above display price")
		}
	}
}

func TestUSDPriceFloor(t *testing.T) {
	r := testRetailer(Config{
		Seed:    55,
		PriceLo: 10, PriceHi: 12,
		CountryFactor: map[string]float64{"BR": 0.0001},
	})
	p := r.Catalog().Products()[0]
	if got := r.USDPrice(p, visitAt(t, "BR", "Sao Paulo")); got.Units < 1 {
		t.Fatalf("price below floor: %v", got)
	}
}

func TestRenderProductContainsExactlyOneMainPrice(t *testing.T) {
	for _, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		r := testRetailer(Config{Seed: 56, Template: tmpl})
		p := r.Catalog().Products()[0]
		v := visitAt(t, "US", "Boston")
		page := r.RenderProduct(p, v)
		want := money.Format(r.DisplayPrice(p, v), money.USD.Style())
		if got := strings.Count(page, want); got < 1 {
			t.Errorf("template %s: price %q not on page", tmpl, want)
		}
		if !strings.Contains(page, p.SKU) {
			t.Errorf("template %s: SKU missing", tmpl)
		}
		if !strings.Contains(page, "<!DOCTYPE html>") {
			t.Errorf("template %s: no doctype", tmpl)
		}
	}
}

func TestRenderProductHasDecoyPrices(t *testing.T) {
	r := testRetailer(Config{Seed: 57, Template: "classic", ProductCount: 30})
	p := r.Catalog().Products()[0]
	v := visitAt(t, "US", "Boston")
	page := r.RenderProduct(p, v)
	// At least the was-price and three recommendation prices beyond the
	// main price: 5+ dollar signs in total.
	if got := strings.Count(page, "$"); got < 5 {
		t.Fatalf("page has %d price marks, want >=5 (decoys missing)", got)
	}
}

func TestRenderLocalizedFormats(t *testing.T) {
	r := testRetailer(Config{Seed: 58, Template: "classic", Localize: true})
	p := r.Catalog().Products()[0]
	pageDE := r.RenderProduct(p, visitAt(t, "DE", "Berlin"))
	if !strings.Contains(pageDE, "€") {
		t.Fatal("German page has no euro price")
	}
	pageBR := r.RenderProduct(p, visitAt(t, "BR", "Sao Paulo"))
	if !strings.Contains(pageBR, "R$") {
		t.Fatal("Brazilian page has no BRL price")
	}
}

func TestRenderCategoryListsProducts(t *testing.T) {
	r := testRetailer(Config{Seed: 59, ProductCount: 12})
	v := visitAt(t, "US", "Boston")
	page := r.RenderCategory(CatClothing, v)
	if got := strings.Count(page, "product-link"); got != 12 {
		t.Fatalf("category lists %d products, want 12", got)
	}
}

func TestRenderHomeLinksCategories(t *testing.T) {
	r := testRetailer(Config{Seed: 60, Categories: []Category{CatBooks, CatGames}, ProductCount: 10})
	page := r.RenderHome()
	if !strings.Contains(page, "/category/books") || !strings.Contains(page, "/category/games") {
		t.Fatal("home page missing category links")
	}
}

func TestTrackersEmbedded(t *testing.T) {
	r := testRetailer(Config{Seed: 61, Trackers: []string{"ga", "facebook"}})
	page := r.RenderProduct(r.Catalog().Products()[0], visitAt(t, "US", "Boston"))
	if !strings.Contains(page, "google-analytics.com") {
		t.Fatal("GA snippet missing")
	}
	if !strings.Contains(page, "facebook.com") {
		t.Fatal("Facebook snippet missing")
	}
	if strings.Contains(page, "pinterest.com") {
		t.Fatal("unexpected Pinterest snippet")
	}
}

func TestSKUPrefix(t *testing.T) {
	cases := map[string]string{
		"www.amazon.com":   "WWW",
		"store.killah.com": "STO",
		"x.y":              "XYX",
	}
	for in, want := range cases {
		if got := skuPrefix(in); got != want {
			t.Errorf("skuPrefix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCategoryPagination(t *testing.T) {
	r := testRetailer(Config{Seed: 62, ProductCount: 95})
	v := visitAt(t, "US", "Boston")
	p0 := r.RenderCategoryPage(CatClothing, v, 0)
	p1 := r.RenderCategoryPage(CatClothing, v, 1)
	p2 := r.RenderCategoryPage(CatClothing, v, 2)
	if got := strings.Count(p0, "product-link"); got != CategoryPageSize {
		t.Fatalf("page 0 lists %d", got)
	}
	if got := strings.Count(p1, "product-link"); got != CategoryPageSize {
		t.Fatalf("page 1 lists %d", got)
	}
	if got := strings.Count(p2, "product-link"); got != 95-2*CategoryPageSize {
		t.Fatalf("page 2 lists %d", got)
	}
	if !strings.Contains(p0, `class="next"`) || !strings.Contains(p1, `class="next"`) {
		t.Fatal("next link missing on non-final pages")
	}
	if strings.Contains(p2, `class="next"`) {
		t.Fatal("next link on final page")
	}
	// Out-of-range pages are empty but well-formed.
	p9 := r.RenderCategoryPage(CatClothing, v, 9)
	if strings.Count(p9, "product-link") != 0 {
		t.Fatal("phantom products beyond the catalog")
	}
}

// TestRenderAllocs pins what a product page costs in allocations, so the
// one-buffer render holds in the ordinary test run: the page's buffer,
// grown once to its exact size, and nothing per price, teaser or section.
// The pages cover the four templates and a withheld price.
func TestRenderAllocs(t *testing.T) {
	const maxAllocsPerPage = 2
	type renderCase struct {
		r *Retailer
		p Product
		v Visit
	}
	var cases []renderCase
	withheld := false
	for i, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		r := testRetailer(Config{
			Domain: "allocs.example.com", Seed: int64(40 + i),
			Categories: []Category{CatClothing}, ProductCount: 12,
			PriceLo: 20, PriceHi: 900, Template: tmpl, Localize: true,
			HideFraction: 0.5, Trackers: []string{"ga", "twitter"},
		})
		for _, p := range r.Catalog().Products()[:4] {
			v := Visit{Loc: loc(t, "DE", "Berlin"), Time: time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC), IP: "10.2.0.9"}
			withheld = withheld || !r.PriceDisclosed(p, v)
			cases = append(cases, renderCase{r, p, v})
		}
	}
	if !withheld {
		t.Fatal("no case withholds its price")
	}
	perRun := testing.AllocsPerRun(20, func() {
		for _, c := range cases {
			if c.r.RenderProduct(c.p, c.v) == "" {
				t.Fatal("empty page")
			}
		}
	})
	if perPage := perRun / float64(len(cases)); perPage > maxAllocsPerPage {
		t.Fatalf("RenderProduct allocates %.2f times per page, want at most %d", perPage, maxAllocsPerPage)
	}
}

// TestCategoryPageBeyondTheEnd asks for listing pages far past the last:
// the ?page= number comes from the request, and a page count near the int
// range used to overflow page*CategoryPageSize into a negative slice
// bound and panic. Such a page lists nothing and links nowhere.
func TestCategoryPageBeyondTheEnd(t *testing.T) {
	r := testRetailer(Config{Seed: 5, Categories: []Category{CatBooks}, ProductCount: 50, PriceLo: 5, PriceHi: 50})
	for _, pg := range []int{2, math.MaxInt / 20, math.MaxInt/CategoryPageSize + 1, math.MaxInt} {
		page := r.RenderCategoryPage(CatBooks, Visit{}, pg)
		if strings.Contains(page, "product-link") || strings.Contains(page, `rel="next"`) {
			t.Fatalf("page %d lists products or links on:\n%s", pg, page)
		}
	}
}
