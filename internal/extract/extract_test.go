package extract

import (
	"testing"
	"time"

	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/shop"
)

var (
	market  = fx.NewMarket(1)
	testDay = time.Date(2013, 2, 10, 12, 0, 0, 0, time.UTC)
)

func parse(t *testing.T, s string) *htmlx.Node {
	t.Helper()
	doc, err := htmlx.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// retailerPages renders the same product for two locations through a real
// retailer, returning both pages, the highlight string, and ground truth.
func retailerPages(t testing.TB, tmpl string) (pageUS, pageDE string, highlightUS string, truthUS, truthDE money.Amount) {
	t.Helper()
	r := shop.New(shop.Config{
		Domain: "x.example.com", Label: "X", Seed: 11,
		Categories: []shop.Category{shop.CatClothing}, ProductCount: 20,
		PriceLo: 20, PriceHi: 200, Template: tmpl, Localize: true,
		VariedFraction: 1.0,
		CountryFactor:  map[string]float64{"DE": 1.15},
	}, market)
	p := r.Catalog().Products()[2]
	locUS, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	locDE, err := geo.LocationOf("DE", "Berlin")
	if err != nil {
		t.Fatal(err)
	}
	vUS := shop.Visit{Loc: locUS, Time: testDay, IP: "10.0.1.10"}
	vDE := shop.Visit{Loc: locDE, Time: testDay, IP: "10.2.0.10"}
	truthUS = r.DisplayPrice(p, vUS)
	truthDE = r.DisplayPrice(p, vDE)
	highlightUS = money.Format(truthUS, truthUS.Currency.Style())
	return r.RenderProduct(p, vUS), r.RenderProduct(p, vDE), highlightUS, truthUS, truthDE
}

func TestDeriveAndExtractAllTemplates(t *testing.T) {
	for _, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		pageUS, pageDE, highlight, truthUS, truthDE := retailerPages(t, tmpl)
		docUS, docDE := parse(t, pageUS), parse(t, pageDE)

		anchor, err := Derive(docUS, highlight, money.USD)
		if err != nil {
			t.Fatalf("%s: Derive: %v", tmpl, err)
		}
		// Same page: anchor recovers the highlighted price.
		got, err := anchor.Extract(docUS, money.USD)
		if err != nil {
			t.Fatalf("%s: Extract US: %v", tmpl, err)
		}
		if got.Units != truthUS.Units || got.Currency.Code != "USD" {
			t.Fatalf("%s: US = %v, want %v", tmpl, got, truthUS)
		}
		// Cross-locale: German rendering in EUR with comma decimals.
		gotDE, err := anchor.Extract(docDE, money.EUR)
		if err != nil {
			t.Fatalf("%s: Extract DE: %v", tmpl, err)
		}
		if gotDE.Units != truthDE.Units || gotDE.Currency.Code != "EUR" {
			t.Fatalf("%s: DE = %v, want %v", tmpl, gotDE, truthDE)
		}
	}
}

func TestNaiveFirstTripsOnDecoy(t *testing.T) {
	// Every template places the free-shipping promo before the main price,
	// so the naive scan must return the wrong value somewhere.
	wrong := 0
	for _, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		pageUS, _, _, truthUS, _ := retailerPages(t, tmpl)
		got, err := NaiveFirst(parse(t, pageUS), money.USD)
		if err != nil {
			t.Fatalf("%s: NaiveFirst: %v", tmpl, err)
		}
		if got.Units != truthUS.Units {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("naive extraction never failed; decoys are not doing their job")
	}
}

func TestDeriveErrors(t *testing.T) {
	doc := parse(t, `<div><span class="price">$10.00</span></div>`)
	if _, err := Derive(doc, "not-a-price", money.USD); err == nil {
		t.Error("non-price highlight accepted")
	}
	if _, err := Derive(doc, "$99.99", money.USD); err == nil {
		t.Error("highlight absent from page accepted")
	}
}

func TestDeriveMatchIndexSecondPrice(t *testing.T) {
	// Two prices in one element; user highlights the second.
	doc := parse(t, `<p class="desc">List $20.00, our price $15.00 today.</p>`)
	anchor, err := Derive(doc, "$15.00", money.USD)
	if err != nil {
		t.Fatal(err)
	}
	if anchor.MatchIndex != 1 {
		t.Fatalf("MatchIndex = %d, want 1", anchor.MatchIndex)
	}
	got, err := anchor.Extract(doc, money.USD)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units != 1500 {
		t.Fatalf("got %v", got)
	}
}

func TestExtractContextFallback(t *testing.T) {
	// Page B restructured: the structural path dies, but the "Our price:"
	// context survives in a different element.
	docA := parse(t, `<div id="w"><div><p class="a">Our price: $12.00</p></div></div>`)
	anchor, err := Derive(docA, "$12.00", money.USD)
	if err != nil {
		t.Fatal(err)
	}
	docB := parse(t, `<section><span class="b">Our price: $14.50</span></section>`)
	got, err := anchor.Extract(docB, money.USD)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units != 1450 {
		t.Fatalf("context fallback = %v, want $14.50", got)
	}
}

func TestExtractClassHeuristicFallback(t *testing.T) {
	docA := parse(t, `<div id="z"><em class="px">$9.00</em></div>`)
	anchor, err := Derive(docA, "$9.00", money.USD)
	if err != nil {
		t.Fatal(err)
	}
	// No matching structure, no context — but a .price element exists.
	docB := parse(t, `<body><div class="promo">over $49!</div><b class="price">$11.00</b></body>`)
	anchor.Path = "div#gone/em.px[0]"
	anchor.Context = "zzz-no-such-context"
	got, err := anchor.Extract(docB, money.USD)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units != 1100 {
		t.Fatalf("class heuristic = %v, want $11.00", got)
	}
}

func TestClassHeuristicSkipsDecoys(t *testing.T) {
	doc := parse(t, `<body>
	<ul class="recs"><li><span class="price">$5.00</span></li></ul>
	<s class="was-price">$30.00</s>
	<span class="price main">$22.00</span>
	</body>`)
	got, ok := priceByClassHeuristic(doc, money.USD)
	if !ok {
		t.Fatal("heuristic found nothing")
	}
	if got.Units != 2200 {
		t.Fatalf("heuristic picked %v, want $22.00 (decoy not skipped)", got)
	}
}

func TestExtractNoPriceAnywhere(t *testing.T) {
	anchor := Anchor{Path: "div[0]", Context: "Price:"}
	doc := parse(t, `<div>nothing to see</div>`)
	if _, err := anchor.Extract(doc, money.USD); err == nil {
		t.Fatal("expected ErrNoPrice")
	}
}

func TestAllPricesCountsDecoys(t *testing.T) {
	pageUS, _, _, _, _ := retailerPages(t, "classic")
	prices := money.ParseAll(parse(t, pageUS).Text(), money.USD)
	// promo + main + was + 3 recommendations = at least 6.
	if len(prices) < 6 {
		t.Fatalf("page carries %d prices, want >= 6", len(prices))
	}
}

func TestExtractBrazilianFormat(t *testing.T) {
	docA := parse(t, `<div id="m"><span class="price">$100.00</span></div>`)
	anchor, err := Derive(docA, "$100.00", money.USD)
	if err != nil {
		t.Fatal(err)
	}
	docBR := parse(t, `<div id="m"><span class="price">R$1.234,56</span></div>`)
	got, err := anchor.Extract(docBR, money.BRL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units != 123456 || got.Currency.Code != "BRL" {
		t.Fatalf("BR extract = %v", got)
	}
}

func TestDeriveDeepestElement(t *testing.T) {
	// The highlight exists in both an outer and inner element's text; the
	// anchor must bind to the innermost.
	doc := parse(t, `<div class="outer">Total: <span class="inner">$7.77</span></div>`)
	anchor, err := Derive(doc, "$7.77", money.USD)
	if err != nil {
		t.Fatal(err)
	}
	p, err := htmlx.ParsePath(anchor.Path)
	if err != nil {
		t.Fatal(err)
	}
	if p[len(p)-1].Tag != "span" {
		t.Fatalf("anchor bound to %s, want span", p[len(p)-1].Tag)
	}
}

// Anchors can come from a sidecar file (backend.LoadAnchors): a negative
// path index or match index must not index out of range.
func TestExtractNegativeIndexes(t *testing.T) {
	doc := parse(t, `<div><span>$1.00 or $2.00</span></div>`)
	if _, err := (Anchor{Path: "div[0]/span[-1]"}).Extract(doc, money.USD); err != ErrNoPrice {
		t.Fatalf("negative path index: %v, want ErrNoPrice (the path does not parse)", err)
	}
	got, err := Anchor{Path: "div[0]/span[0]", MatchIndex: -1}.Extract(doc, money.USD)
	if err != nil || got.Units != 100 {
		t.Fatalf("negative match index = %v, %v; want the first price", got, err)
	}
}
