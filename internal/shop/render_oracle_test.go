package shop

import (
	"fmt"
	"html"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
)

// ---------------------------------------------------------------------------
// Byte-identity oracle: the renderers write each page straight into one
// exact-size buffer, and must produce the very bytes the fmt-based
// renderers below produced. They are kept verbatim, with the methods they
// called turned into free functions, so a slip in the one-buffer writer
// cannot hide inside code the two share: only pricing and money.Format.
// ---------------------------------------------------------------------------

func oracleTrackerHTML(r *Retailer) string {
	var b strings.Builder
	for _, t := range r.cfg.Trackers {
		if s, ok := trackerSnippets[t]; ok {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// priceString renders an amount in its currency's home-locale style — what
// the retailer's storefront would actually print.
func priceString(a money.Amount) string {
	return money.Format(a, a.Currency.Style())
}

func oraclePriceText(r *Retailer, p Product, v Visit) string {
	if !r.PriceDisclosed(p, v) {
		return PriceOnRequest
	}
	return priceString(r.DisplayPrice(p, v))
}

type oracleRec struct {
	name, href, price string
}

func oracleRecommendations(r *Retailer, p Product, v Visit, n int) []oracleRec {
	ps := r.catalog.products
	if len(ps) <= 1 {
		return nil
	}
	start := int(hash01(r.cfg.Seed, "recs", p.SKU) * float64(len(ps)))
	var out []oracleRec
	for i := 0; len(out) < n && i < len(ps); i++ {
		q := ps[(start+i)%len(ps)]
		if q.SKU == p.SKU {
			continue
		}
		out = append(out, oracleRec{
			name:  q.Name,
			href:  "/product/" + q.SKU,
			price: oraclePriceText(r, q, v),
		})
	}
	return out
}

func oracleRenderProduct(r *Retailer, p Product, v Visit) string {
	price, was := PriceOnRequest, "n/a"
	if r.PriceDisclosed(p, v) {
		price = priceString(r.DisplayPrice(p, v))
		was = priceString(r.WasPrice(p, v))
	}
	recs := oracleRecommendations(r, p, v, 3)
	name := html.EscapeString(p.Name)

	promo := money.FromFloat(49, money.USD)
	if cur := v.Loc.Country.Currency; r.cfg.Localize && cur.Code != "" && cur.Code != "USD" {
		promo = r.market.ConvertRetail(promo, cur, v.Time)
	}

	var b strings.Builder
	b.Grow(4096)
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html>
<head>
<title>%s - %s</title>
<meta charset="utf-8">
%s</head>
<body>
<div class="header"><a href="/">%s</a> &gt; <a href="/category/%s">%s</a></div>
<div class="promo">Free shipping on orders over %s!</div>
`, name, html.EscapeString(r.cfg.Domain), oracleTrackerHTML(r), html.EscapeString(r.cfg.Domain), p.Category, p.Category, priceString(promo))

	switch r.cfg.Template {
	case "modern":
		fmt.Fprintf(&b, `<main id="product" data-sku="%s">
<h1 class="name">%s</h1>
<div id="buybox">
  <b class="amount">%s</b>
  <s class="was">%s</s>
  <button class="buy">Add to cart</button>
  <div class="ship">Shipping from %s</div>
</div>
<aside class="sidebar">
%s</aside>
</main>`, p.SKU, name, price, was, priceString(money.FromFloat(4.99, money.USD)), asideAds(recs))
	case "table":
		fmt.Fprintf(&b, `<div id="content" data-sku="%s">
<h1>%s</h1>
<table class="specs">
<tr><th>Item</th><td>%s</td></tr>
<tr><th>Category</th><td>%s</td></tr>
<tr><th>Price</th><td class="p">%s</td></tr>
<tr><th>List price</th><td class="lp">%s</td></tr>
</table>
<table class="related"><tr><th>Related</th><th>Price</th></tr>
%s</table>
</div>`, p.SKU, name, name, p.Category, price, was, relatedRows(recs))
	case "minimal":
		fmt.Fprintf(&b, `<div class="page" data-sku="%s">
<h2>%s</h2>
<p class="desc">Our price: %s (list price %s). Free returns within 30 days.</p>
<p class="others">Customers also bought: %s</p>
</div>`, p.SKU, name, price, was, inlineRecs(recs))
	default: // classic
		fmt.Fprintf(&b, `<div id="main" class="container" data-sku="%s">
<h1 class="product-title">%s</h1>
<div class="price-box">
  <span class="price main-price">%s</span>
  <span class="was-price">%s</span>
  <span class="vat-note">excl. taxes</span>
</div>
<ul class="recs">
%s</ul>
</div>`, p.SKU, name, price, was, recsList(recs))
	}

	fmt.Fprintf(&b, "\n<div class=\"footer\">© %s</div>\n</body>\n</html>\n", html.EscapeString(r.cfg.Domain))
	return b.String()
}

func recsList(recs []oracleRec) string {
	var b strings.Builder
	for _, rc := range recs {
		fmt.Fprintf(&b, `<li class="rec"><a href="%s">%s</a> <span class="price">%s</span></li>`+"\n",
			rc.href, html.EscapeString(rc.name), rc.price)
	}
	return b.String()
}

func asideAds(recs []oracleRec) string {
	var b strings.Builder
	for _, rc := range recs {
		fmt.Fprintf(&b, `<div class="ad"><a href="%s">%s</a><span class="ad-price">%s</span></div>`+"\n",
			rc.href, html.EscapeString(rc.name), rc.price)
	}
	return b.String()
}

func relatedRows(recs []oracleRec) string {
	var b strings.Builder
	for _, rc := range recs {
		fmt.Fprintf(&b, `<tr><td><a href="%s">%s</a></td><td class="rp">%s</td></tr>`+"\n",
			rc.href, html.EscapeString(rc.name), rc.price)
	}
	return b.String()
}

func inlineRecs(recs []oracleRec) string {
	parts := make([]string, 0, len(recs))
	for _, rc := range recs {
		parts = append(parts, fmt.Sprintf(`<a href="%s">%s</a> at %s`, rc.href, html.EscapeString(rc.name), rc.price))
	}
	return strings.Join(parts, ", ")
}

func oracleRenderCategoryPage(r *Retailer, cat Category, v Visit, page int) string {
	if page < 0 {
		page = 0
	}
	var inCat []Product
	for _, p := range r.catalog.products {
		if p.Category == cat {
			inCat = append(inCat, p)
		}
	}
	start := page * CategoryPageSize
	end := start + CategoryPageSize
	if start > len(inCat) {
		start = len(inCat)
	}
	if end > len(inCat) {
		end = len(inCat)
	}

	var b strings.Builder
	b.Grow(8192)
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html><head><title>%s - %s</title>%s</head>
<body>
<h1>%s (page %d)</h1>
<ul class="listing">
`, cat, html.EscapeString(r.cfg.Domain), oracleTrackerHTML(r), cat, page+1)
	for _, p := range inCat[start:end] {
		fmt.Fprintf(&b, `<li><a class="product-link" href="/product/%s">%s</a> <span class="teaser">%s</span></li>`+"\n",
			p.SKU, html.EscapeString(p.Name), oraclePriceText(r, p, v))
	}
	b.WriteString("</ul>\n")
	if end < len(inCat) {
		fmt.Fprintf(&b, `<a class="next" rel="next" href="/category/%s?page=%d">next page</a>`+"\n", cat, page+1)
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

func oracleRenderHome(r *Retailer) string {
	seen := map[Category]bool{}
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html><head><title>%s</title>%s</head>
<body>
<h1>%s</h1>
<nav class="cats">
`, html.EscapeString(r.cfg.Domain), oracleTrackerHTML(r), html.EscapeString(r.cfg.Label))
	for _, p := range r.catalog.products {
		if seen[p.Category] {
			continue
		}
		seen[p.Category] = true
		fmt.Fprintf(&b, `<a class="cat-link" href="/category/%s">%s</a>`+"\n", p.Category, p.Category)
	}
	b.WriteString("</nav>\n</body></html>\n")
	return b.String()
}

// oracleConfigs are every preset and scenario retailer, plus two made to
// reach what the presets do not: a label, domain and product names with
// every character HTML escapes, and one category deep enough to paginate
// three times.
func oracleConfigs() []Config {
	var cfgs []Config
	cfgs = append(cfgs, CrawledConfigs(3)...)
	cfgs = append(cfgs, CrowdExtraConfigs(3)...)
	cfgs = append(cfgs, ScenarioConfigs(3)...)
	cfgs = append(cfgs,
		Config{
			Domain: `www.o'neil&"co".example`, Label: `O'Neil & "Sons" <Outfitters>`, Seed: 77,
			Categories: []Category{CatClothing, CatBooks}, ProductCount: 9, PriceLo: 5, PriceHi: 90000,
			Template: "minimal", Localize: true, HideFraction: 0.4,
			Trackers: []string{"ga", "facebook", "unknown", "twitter"},
		},
		Config{
			Domain: "www.deep.example", Label: "Deep", Seed: 78,
			Categories: []Category{CatBooks}, ProductCount: 130, PriceLo: 1, PriceHi: 3,
			Template: "table",
		},
	)
	return cfgs
}

// oracleVisits are the 14 vantage points, anonymous and logged in, with
// and without a segment cookie, at two instants either side of a UTC
// midnight.
func oracleVisits() []Visit {
	instants := []time.Time{
		time.Date(2013, 3, 9, 23, 59, 59, 0, time.UTC),
		time.Date(2013, 3, 10, 0, 0, 1, 0, time.UTC),
	}
	var visits []Visit
	for _, vp := range geo.VantagePoints() {
		for _, acct := range []string{"", "userA"} {
			for _, seg := range []string{"", "affluent"} {
				for _, at := range instants {
					visits = append(visits, Visit{
						Loc: vp.Location, Time: at, Account: acct, Segment: seg,
						IP: vp.Addr.String(), Browser: vp.Browser,
					})
				}
			}
		}
	}
	return visits
}

// TestRenderMatchesOracle holds the three renderers to the fmt-based ones
// byte for byte over every preset and scenario retailer.
func TestRenderMatchesOracle(t *testing.T) {
	visits := oracleVisits()
	var pages, withheld, disclosed, nextLinks int
	escaped := false
	for _, cfg := range oracleConfigs() {
		r := New(cfg, market)
		if got, want := r.RenderHome(), oracleRenderHome(r); got != want {
			t.Fatalf("%s: RenderHome differs from the oracle:\n%s\nwant:\n%s", cfg.Domain, got, want)
		}
		escaped = escaped || strings.Contains(r.RenderHome(), "&#39;")
		ps := r.Catalog().Products()
		// Several products spread over the catalog, the first and last
		// included.
		var picks []Product
		for i := 0; i < len(ps); i += max(1, len(ps)/5) {
			picks = append(picks, ps[i])
		}
		picks = append(picks, ps[len(ps)-1])
		for _, p := range picks {
			for _, v := range visits {
				got, want := r.RenderProduct(p, v), oracleRenderProduct(r, p, v)
				if got != want {
					t.Fatalf("%s %s at %s acct=%q seg=%q t=%s: RenderProduct differs from the oracle:\n%s\nwant:\n%s",
						cfg.Domain, p.SKU, v.Loc, v.Account, v.Segment, v.Time, got, want)
				}
				pages++
				if r.PriceDisclosed(p, v) {
					disclosed++
				} else {
					withheld++
				}
			}
		}
		seen := map[Category]bool{}
		for _, p := range ps {
			if seen[p.Category] {
				continue
			}
			seen[p.Category] = true
			for i, v := range visits {
				// Every third visit: 3 is prime to the 8 (account,
				// segment, instant) combinations of a vantage point, so
				// the sample still mixes all of them.
				if i%3 != 0 {
					continue
				}
				for _, pg := range []int{-1, 0, 1, 2, 3, 9} {
					got, want := r.RenderCategoryPage(p.Category, v, pg), oracleRenderCategoryPage(r, p.Category, v, pg)
					if got != want {
						t.Fatalf("%s %s page %d at %s: RenderCategoryPage differs from the oracle:\n%s\nwant:\n%s",
							cfg.Domain, p.Category, pg, v.Loc, got, want)
					}
					if strings.Contains(got, `rel="next"`) {
						nextLinks++
					}
				}
			}
		}
		if got, want := r.RenderCategoryPage("no-such-category", visits[0], 0), oracleRenderCategoryPage(r, "no-such-category", visits[0], 0); got != want {
			t.Fatalf("%s: empty category differs from the oracle:\n%s\nwant:\n%s", cfg.Domain, got, want)
		}
	}
	if withheld == 0 || disclosed == 0 || nextLinks == 0 || !escaped {
		t.Fatalf("oracle grid misses a case: %d withheld and %d disclosed product pages, %d next links, escaping reached %v",
			withheld, disclosed, nextLinks, escaped)
	}
	if pages < 20000 {
		t.Fatalf("oracle grid too small: %d product pages", pages)
	}
}

// TestServedPagesMatchOracle requests product pages through the fabric as
// the backend does, from every vantage point with its User-Agent and with
// account and segment cookies, and holds each body to the oracle and its
// declared length to the body's.
func TestServedPagesMatchOracle(t *testing.T) {
	db := geo.NewDB()
	instants := []time.Time{
		time.Date(2013, 3, 9, 23, 59, 59, 0, time.UTC),
		time.Date(2013, 3, 10, 0, 0, 1, 0, time.UTC),
	}
	served := 0
	for _, cfg := range oracleConfigs() {
		r := New(cfg, market)
		reg := netsim.NewRegistry()
		reg.Register(r.Domain(), NewServer(r, db))
		p := r.Catalog().Products()[1]
		for _, at := range instants {
			clk := netsim.NewClock(at)
			for i, vp := range geo.VantagePoints() {
				acct, seg := "", ""
				if i%2 == 1 {
					acct = "userA"
				}
				if i%3 == 1 {
					seg = "affluent"
				}
				req, _ := http.NewRequest(http.MethodGet, "http://"+r.Domain()+"/product/"+p.SKU, nil)
				ua := vp.Browser.UserAgent()
				req.Header.Set("User-Agent", ua)
				if acct != "" {
					req.AddCookie(&http.Cookie{Name: accountCookie, Value: acct})
				}
				if seg != "" {
					req.AddCookie(&http.Cookie{Name: SegmentCookie, Value: seg})
				}
				resp, err := netsim.NewTransport(reg, clk, vp.Addr).RoundTrip(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				want := oracleRenderProduct(r, p, Visit{
					Loc: vp.Location, Time: at, Account: acct, Segment: seg,
					IP: vp.Addr.String(), Browser: geo.ProfileFromUA(ua),
				})
				if string(body) != want {
					t.Fatalf("%s from %s at %s: served page differs from the oracle:\n%s\nwant:\n%s", cfg.Domain, vp.ID, at, body, want)
				}
				if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
					t.Fatalf("%s from %s: ContentLength %d, Content-Length %q for a %d-byte page",
						cfg.Domain, vp.ID, resp.ContentLength, resp.Header.Get("Content-Length"), len(body))
				}
				served++
			}
		}
	}
	if served == 0 {
		t.Fatal("no page served")
	}
}
