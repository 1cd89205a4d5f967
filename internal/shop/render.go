package shop

import (
	"fmt"
	"html"
	"strings"

	"sheriff/internal/money"
)

// trackerSnippets maps tracker keys to the third-party embed they inject
// (Sec. 4.4's presence study counts these).
var trackerSnippets = map[string]string{
	"ga":          `<script src="http://www.google-analytics.com/ga.js"></script>`,
	"doubleclick": `<script src="http://ad.doubleclick.net/adj/N1/shop;sz=728x90"></script>`,
	"facebook":    `<iframe class="social" src="http://www.facebook.com/plugins/like.php?href=PAGE"></iframe>`,
	"pinterest":   `<script src="http://assets.pinterest.com/js/pinit.js"></script>`,
	"twitter":     `<script src="http://platform.twitter.com/widgets.js"></script>`,
}

func (r *Retailer) trackerHTML() string {
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

// priceText renders what this visit actually sees in a price slot: the
// display price, or the "Price on request" withholding text when the
// retailer selectively does not disclose the price to this client.
func (r *Retailer) priceText(p Product, v Visit) string {
	if !r.PriceDisclosed(p, v) {
		return PriceOnRequest
	}
	return priceString(r.DisplayPrice(p, v))
}

// rec is a recommended/related product teaser with its own price — the
// decoys that defeat naive "find the first $" extraction.
type rec struct {
	name, href, price string
}

// recommendations picks up to n other products deterministically and
// prices them for the same visit.
func (r *Retailer) recommendations(p Product, v Visit, n int) []rec {
	ps := r.catalog.products
	if len(ps) <= 1 {
		return nil
	}
	start := int(hash01(r.cfg.Seed, "recs", p.SKU) * float64(len(ps)))
	var out []rec
	for i := 0; len(out) < n && i < len(ps); i++ {
		q := ps[(start+i)%len(ps)]
		if q.SKU == p.SKU {
			continue
		}
		out = append(out, rec{
			name:  q.Name,
			href:  "/product/" + q.SKU,
			price: r.priceText(q, v),
		})
	}
	return out
}

// RenderProduct produces the product page HTML for a visit. The layout is
// selected by the config's template family; every family embeds decoy
// prices (recommendations, "was" prices, shipping) so that extraction has
// to find the right one.
func (r *Retailer) RenderProduct(p Product, v Visit) string {
	// Selective disclosure: the price slot carries no parseable amount,
	// so extraction must fall through its layers and fail — the decoy
	// prices elsewhere on the page stay, which is what makes the
	// fallbacks' decoy filtering earn its keep.
	price, was := PriceOnRequest, "n/a"
	if r.PriceDisclosed(p, v) {
		price = priceString(r.DisplayPrice(p, v))
		was = priceString(r.WasPrice(p, v))
	}
	recs := r.recommendations(p, v, 3)
	name := html.EscapeString(p.Name)

	// The free-shipping threshold is a decoy price that precedes the main
	// price in document order — naive "first price on the page" extraction
	// trips over it (the extraction ablation measures exactly this).
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
`, name, html.EscapeString(r.cfg.Domain), r.trackerHTML(), html.EscapeString(r.cfg.Domain), p.Category, p.Category, priceString(promo))

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
</main>`, p.SKU, name, price, was, priceString(shippingTeaser(p)), asideAds(recs))
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

// shippingTeaser fabricates a small shipping price in the product's display
// currency — another decoy.
func shippingTeaser(p Product) money.Amount {
	return money.FromFloat(4.99, money.USD)
}

func recsList(recs []rec) string {
	var b strings.Builder
	for _, rc := range recs {
		fmt.Fprintf(&b, `<li class="rec"><a href="%s">%s</a> <span class="price">%s</span></li>`+"\n",
			rc.href, html.EscapeString(rc.name), rc.price)
	}
	return b.String()
}

func asideAds(recs []rec) string {
	var b strings.Builder
	for _, rc := range recs {
		fmt.Fprintf(&b, `<div class="ad"><a href="%s">%s</a><span class="ad-price">%s</span></div>`+"\n",
			rc.href, html.EscapeString(rc.name), rc.price)
	}
	return b.String()
}

func relatedRows(recs []rec) string {
	var b strings.Builder
	for _, rc := range recs {
		fmt.Fprintf(&b, `<tr><td><a href="%s">%s</a></td><td class="rp">%s</td></tr>`+"\n",
			rc.href, html.EscapeString(rc.name), rc.price)
	}
	return b.String()
}

func inlineRecs(recs []rec) string {
	parts := make([]string, 0, len(recs))
	for _, rc := range recs {
		parts = append(parts, fmt.Sprintf(`<a href="%s">%s</a> at %s`, rc.href, html.EscapeString(rc.name), rc.price))
	}
	return strings.Join(parts, ", ")
}

// CategoryPageSize is how many products a category listing shows per page
// before paginating — real storefronts paginate, so the crawler's
// discovery has to follow "next" links.
const CategoryPageSize = 40

// RenderCategory produces the first page of a category listing.
func (r *Retailer) RenderCategory(cat Category, v Visit) string {
	return r.RenderCategoryPage(cat, v, 0)
}

// RenderCategoryPage produces one page of a category listing with teaser
// prices and, when more products follow, a rel=next pagination link.
func (r *Retailer) RenderCategoryPage(cat Category, v Visit, page int) string {
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
`, cat, html.EscapeString(r.cfg.Domain), r.trackerHTML(), cat, page+1)
	for _, p := range inCat[start:end] {
		fmt.Fprintf(&b, `<li><a class="product-link" href="/product/%s">%s</a> <span class="teaser">%s</span></li>`+"\n",
			p.SKU, html.EscapeString(p.Name), r.priceText(p, v))
	}
	b.WriteString("</ul>\n")
	if end < len(inCat) {
		fmt.Fprintf(&b, `<a class="next" rel="next" href="/category/%s?page=%d">next page</a>`+"\n", cat, page+1)
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// RenderHome produces the storefront home page linking every category.
func (r *Retailer) RenderHome() string {
	seen := map[Category]bool{}
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html><head><title>%s</title>%s</head>
<body>
<h1>%s</h1>
<nav class="cats">
`, html.EscapeString(r.cfg.Domain), r.trackerHTML(), html.EscapeString(r.cfg.Label))
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
