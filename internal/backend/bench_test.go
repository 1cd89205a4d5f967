package backend

import (
	"testing"
	"time"

	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// measureCase is one vantage point's rendering of a product page with the
// price the retailer displayed on it.
type measureCase struct {
	vp     geo.VantagePoint
	page   string
	anchor extract.Parsed
	want   money.Amount
}

// measureCases renders the product pages of the four shop templates as
// each of the 14 vantage points sees them, with the anchor derived from a
// US visitor's page.
func measureCases(tb testing.TB) []measureCase {
	home, err := geo.LocationOf("US", "Boston")
	if err != nil {
		tb.Fatal(err)
	}
	market := fx.NewMarket(1)
	day := time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC)
	var cases []measureCase
	for i, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		r := shop.New(shop.Config{
			Domain: "bench.example.com", Label: "Bench shop", Seed: int64(31 + i),
			Categories: []shop.Category{shop.CatClothing}, ProductCount: 20,
			PriceLo: 20, PriceHi: 900, Template: tmpl, Localize: true,
			VariedFraction: 1.0,
			CountryFactor:  map[string]float64{"FI": 1.30, "DE": 1.12, "GB": 1.10, "BR": 1.2},
		}, market)
		p := r.Catalog().Products()[3]
		user := shop.Visit{Loc: home, Time: day, IP: "10.0.1.77"}
		truth := r.DisplayPrice(p, user)
		doc, err := htmlx.ParseString(r.RenderProduct(p, user))
		if err != nil {
			tb.Fatal(err)
		}
		anchor, err := extract.Derive(doc, money.Format(truth, truth.Currency.Style()), money.USD)
		if err != nil {
			tb.Fatalf("%s: Derive: %v", tmpl, err)
		}
		for _, vp := range geo.VantagePoints() {
			v := shop.Visit{Loc: vp.Location, Time: day, IP: vp.Addr.String(), Browser: vp.Browser}
			cases = append(cases, measureCase{vp: vp, page: r.RenderProduct(p, v), anchor: anchor.Parse(), want: r.DisplayPrice(p, v)})
		}
	}
	return cases
}

// measure records one case's page and fails unless the row holds the
// displayed price.
func (c *measureCase) measure(tb testing.TB) {
	var o store.Observation
	Measure(&o, c.vp, c.page, nil, c.anchor)
	if !o.OK || o.PriceUnits != c.want.Units || o.Currency != c.want.Currency.Code {
		tb.Fatalf("%s: row %+v, want %v", c.vp.ID, o, c.want)
	}
}

// BenchmarkMeasure turns the product pages of the four shop templates, as
// each of the 14 vantage points sees them, into rows: the per-page work a
// crowd check's fan-out does after its fetches. One op is one page.
func BenchmarkMeasure(b *testing.B) {
	cases := measureCases(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases[i%len(cases)].measure(b)
	}
}

// TestMeasureAllocs pins what BenchmarkMeasure costs in allocations, so
// the saving holds in the ordinary test run: a streamed page allocates
// the tokenizer's two stacks and the price element's text, and nothing
// per token, per price or per path step.
func TestMeasureAllocs(t *testing.T) {
	const maxAllocsPerPage = 3
	cases := measureCases(t)
	perRun := testing.AllocsPerRun(20, func() {
		for i := range cases {
			cases[i].measure(t)
		}
	})
	if perPage := perRun / float64(len(cases)); perPage > maxAllocsPerPage {
		t.Fatalf("Measure allocates %.2f times per page, want at most %d", perPage, maxAllocsPerPage)
	}
}

// BenchmarkCheckMiss runs crowd checks whose pages all miss the page
// cache: the clock steps a minute before every check, so each one
// fetches, parses and derives the user's page and extracts the price from
// 14 fetched vantage-point pages, with no memo. One op is one check.
func BenchmarkCheckMiss(b *testing.B) {
	w := newTestWorld(b)
	ps := w.vary.Catalog().Products()
	user := addrOf(userAddr(b, "US", "Boston"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.clk.Advance(time.Minute)
		sku := ps[i%len(ps)].SKU
		if _, err := w.backend.Check(CheckRequest{
			URL:       "http://vary.example.com/product/" + sku,
			Highlight: highlightFor(b, w.vary, sku, "US", "Boston", w.clk),
			UserAddr:  user,
			UserID:    "bench",
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits, _, _ := w.backend.PageCacheStats(); hits != 0 {
		b.Fatalf("%d page-cache hits, want every page to miss", hits)
	}
}
