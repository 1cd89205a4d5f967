package extract

import (
	"testing"

	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/shop"
)

// extractBoth runs ExtractPage and Extract on the parsed page and fails
// unless they return the same amount and the same error.
func extractBoth(t *testing.T, a Anchor, page string, hint money.Currency) (money.Amount, error) {
	t.Helper()
	got, gotErr := a.Parse().ExtractPage(page, hint)
	want, wantErr := a.Extract(parse(t, page), hint)
	if got != want || (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("anchor %+v: ExtractPage = %v, %v; Extract(ParseString) = %v, %v", a, got, gotErr, want, wantErr)
	}
	return got, gotErr
}

// TestExtractPageStreamsEveryShopPage renders products of every preset
// and scenario retailer from all vantage points and applies the anchor
// derived from a US visitor's page: the streamed layer 1 must commit on
// every page, and ExtractPage must return the displayed price.
func TestExtractPageStreamsEveryShopPage(t *testing.T) {
	home, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []shop.Config
	cfgs = append(cfgs, shop.CrawledConfigs(1)...)
	cfgs = append(cfgs, shop.CrowdExtraConfigs(1)...)
	cfgs = append(cfgs, shop.ScenarioConfigs(1)...)
	templates := map[string]bool{}
	pages, priced := 0, 0
	for _, cfg := range cfgs {
		r := shop.New(cfg, market)
		for _, p := range r.Catalog().Products()[:2] {
			user := shop.Visit{Loc: home, Time: testDay, IP: "10.0.1.10"}
			if !r.PriceDisclosed(p, user) {
				continue
			}
			truth := r.DisplayPrice(p, user)
			a, err := Derive(parse(t, r.RenderProduct(p, user)), money.Format(truth, truth.Currency.Style()), money.USD)
			if err != nil {
				t.Fatalf("%s %s: Derive: %v", cfg.Domain, p.SKU, err)
			}
			path, err := htmlx.ParsePath(a.Path)
			if err != nil {
				t.Fatal(err)
			}
			for _, vp := range geo.VantagePoints() {
				v := shop.Visit{Loc: vp.Location, Time: testDay, IP: vp.Addr.String(), Browser: vp.Browser}
				page := r.RenderProduct(p, v)
				if _, ok := path.ResolveText(page); !ok {
					t.Fatalf("%s %s from %s: streamed resolve of %s not definitive", cfg.Domain, p.SKU, vp.ID, a.Path)
				}
				got, err := extractBoth(t, a, page, vp.Location.Country.Currency)
				pages++
				if !r.PriceDisclosed(p, v) {
					continue
				}
				if want := r.DisplayPrice(p, v); err != nil || got != want {
					t.Fatalf("%s %s from %s: ExtractPage = %v, %v; want %v", cfg.Domain, p.SKU, vp.ID, got, err, want)
				}
				priced++
			}
		}
		templates[cfg.Template] = true
	}
	if len(templates) != 4 || priced < pages/2 {
		t.Fatalf("covered templates %v, %d of %d pages priced", templates, priced, pages)
	}
}

// FuzzAnchorResolve is the differential check of the streamed layer 1:
// whenever Path.ResolveText commits to an answer it is the Text() of the
// node Resolve finds on the full tree, and ExtractPage returns exactly
// what Extract(ParseString(page), hint) does, amounts and errors alike.
// Run longer with: go test -fuzz=FuzzAnchorResolve ./internal/extract
func FuzzAnchorResolve(f *testing.F) {
	for _, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		pageUS, pageDE, highlight, _, _ := retailerPages(f, tmpl)
		doc, err := htmlx.ParseString(pageUS)
		if err != nil {
			f.Fatal(err)
		}
		a, err := Derive(doc, highlight, money.USD)
		if err != nil {
			f.Fatalf("%s: Derive: %v", tmpl, err)
		}
		f.Add(pageUS, a.Path, a.MatchIndex, a.Context, false)
		f.Add(pageDE, a.Path, a.MatchIndex, a.Context, true)
	}
	// Misnested, unclosed, comment-split and raw-text-inside-target pages.
	f.Add(`<div id=a><span class=p>$1<b>.00</div><p>$3</p>`, "div#a[0]/span.p[0]", 0, "", false)
	f.Add(`<div id=a><span class=p>Our price: $12`, "div#a[0]/span.p[0]", 0, "Our price:", false)
	f.Add(`<div id=a><span class=p>$1<!-- -->2.00</span></div>`, "div#a[0]/span.p[0]", 0, "", false)
	f.Add(`<div id=a><span class=p><script>var p="$9.99"</script>12,00 €</span></div>`, "div#a[0]/span.p[0]", 0, "", true)
	f.Add(`<ul><li class=price>$5</li><li>$6</li></ul>`, "ul[0]/li.price[1]", 1, "", false)
	f.Fuzz(func(t *testing.T, page, path string, matchIndex int, context string, eur bool) {
		hint := money.USD
		if eur {
			hint = money.EUR
		}
		if p, err := htmlx.ParsePath(path); err == nil {
			if text, ok := p.ResolveText(page); ok {
				el, found := p.Resolve(parse(t, page))
				if !found || el.Text() != text {
					t.Fatalf("ResolveText(%s) = %q; Resolve found %v", p, text, el)
				}
			}
		}
		extractBoth(t, Anchor{Path: path, MatchIndex: matchIndex, Context: context}, page, hint)
	})
}
