package shop

import (
	"slices"
	"strconv"
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

// trackerHTML renders the embeds of the given trackers, one a line. Every
// page of a retailer carries the same embeds, so New renders them once.
func trackerHTML(trackers []string) string {
	var b strings.Builder
	for _, t := range trackers {
		if s, ok := trackerSnippets[t]; ok {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// pageWriter renders one HTML page in two passes over the same body: the
// first only counts the bytes the second writes, so the buffer is grown
// once, to the page's exact size, and the page costs that one
// allocation. A renderer runs its body as `for w.pass() { ... }`.
type pageWriter struct {
	b      strings.Builder
	n      int // bytes the sizing pass counted
	passes int // passes started
}

// pass starts the next pass over the body: it reports true twice, first
// for the sizing pass and then, with the buffer grown to the counted
// size, for the writing pass.
func (w *pageWriter) pass() bool {
	w.passes++
	if w.passes == 2 {
		w.b.Grow(w.n)
	}
	return w.passes <= 2
}

// sizing reports whether the pass only counts bytes.
func (w *pageWriter) sizing() bool { return w.passes == 1 }

func (w *pageWriter) str(s string) {
	if w.sizing() {
		w.n += len(s)
		return
	}
	w.b.WriteString(s)
}

func (w *pageWriter) bytes(p []byte) {
	if w.sizing() {
		w.n += len(p)
		return
	}
	w.b.Write(p)
}

// esc writes s escaped as html.EscapeString escapes it.
func (w *pageWriter) esc(s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '&':
			rep = "&amp;"
		case '\'':
			rep = "&#39;"
		case '"':
			rep = "&#34;"
		default:
			continue
		}
		w.str(s[last:i])
		w.str(rep)
		last = i + 1
	}
	w.str(s[last:])
}

func (w *pageWriter) num(n int) {
	var buf [20]byte
	w.bytes(strconv.AppendInt(buf[:0], int64(n), 10))
}

// price writes an amount in its currency's home-locale style — what the
// retailer's storefront would actually print.
func (w *pageWriter) price(a money.Amount) {
	var buf [32]byte
	w.bytes(money.AppendFormat(buf[:0], a, a.Currency.Style()))
}

// slot writes what a visit sees in a price slot: the price, or, when the
// retailer selectively withholds it from this client, the withheld text.
func (w *pageWriter) slot(s priceSlot, withheld string) {
	if !s.shown {
		w.str(withheld)
		return
	}
	w.price(s.amt)
}

// priceSlot is a price as one visit sees it.
type priceSlot struct {
	amt   money.Amount
	shown bool // false: the retailer withholds the price from this client
}

// priceFor prices p for the visit, or withholds it.
func (r *Retailer) priceFor(p Product, v Visit) priceSlot {
	if !r.PriceDisclosed(p, v) {
		return priceSlot{}
	}
	return priceSlot{amt: r.DisplayPrice(p, v), shown: true}
}

// rec is a recommended/related product teaser with its own price — the
// decoys that defeat naive "find the first $" extraction.
type rec struct {
	name, sku string
	price     priceSlot
}

// recCount is how many recommendations a product page shows.
const recCount = 3

// recommendations picks up to recCount other products deterministically
// and prices them for the same visit.
func (r *Retailer) recommendations(p Product, v Visit) (recs [recCount]rec, n int) {
	ps := r.catalog.products
	if len(ps) <= 1 {
		return recs, 0
	}
	start := int(hash01(r.cfg.Seed, "recs", p.SKU) * float64(len(ps)))
	for i := 0; n < recCount && i < len(ps); i++ {
		q := ps[(start+i)%len(ps)]
		if q.SKU == p.SKU {
			continue
		}
		recs[n] = rec{name: q.Name, sku: q.SKU, price: r.priceFor(q, v)}
		n++
	}
	return recs, n
}

// recs writes the teasers, each as open, the product link, mid, the
// price and end, with sep between two teasers.
func (w *pageWriter) recs(rs []rec, open, mid, end, sep string) {
	for i, rc := range rs {
		if i > 0 {
			w.str(sep)
		}
		w.str(open)
		w.str(`<a href="/product/`)
		w.str(rc.sku)
		w.str(`">`)
		w.esc(rc.name)
		w.str(`</a>`)
		w.str(mid)
		w.slot(rc.price, PriceOnRequest)
		w.str(end)
	}
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
	price := r.priceFor(p, v)
	was := priceSlot{shown: price.shown}
	if price.shown {
		was.amt = r.wasPrice(p, price.amt)
	}
	recs, nrecs := r.recommendations(p, v)

	// The free-shipping threshold is a decoy price that precedes the main
	// price in document order — naive "first price on the page" extraction
	// trips over it (the extraction ablation measures exactly this).
	promo := money.FromFloat(49, money.USD)
	if cur := v.Loc.Country.Currency; r.cfg.Localize && cur.Code != "" && cur.Code != "USD" {
		promo = r.market.ConvertRetail(promo, cur, v.Time)
	}

	domain := r.cfg.Domain
	var w pageWriter
	for w.pass() {
		w.str("<!DOCTYPE html>\n<html>\n<head>\n<title>")
		w.esc(p.Name)
		w.str(" - ")
		w.esc(domain)
		w.str("</title>\n<meta charset=\"utf-8\">\n")
		w.str(r.trackers)
		w.str("</head>\n<body>\n<div class=\"header\"><a href=\"/\">")
		w.esc(domain)
		w.str(`</a> &gt; <a href="/category/`)
		w.str(string(p.Category))
		w.str(`">`)
		w.str(string(p.Category))
		w.str("</a></div>\n<div class=\"promo\">Free shipping on orders over ")
		w.price(promo)
		w.str("!</div>\n")

		switch r.cfg.Template {
		case "modern":
			w.str(`<main id="product" data-sku="`)
			w.str(p.SKU)
			w.str("\">\n<h1 class=\"name\">")
			w.esc(p.Name)
			w.str("</h1>\n<div id=\"buybox\">\n  <b class=\"amount\">")
			w.slot(price, PriceOnRequest)
			w.str("</b>\n  <s class=\"was\">")
			w.slot(was, "n/a")
			w.str("</s>\n  <button class=\"buy\">Add to cart</button>\n  <div class=\"ship\">Shipping from ")
			w.price(shippingTeaser())
			w.str("</div>\n</div>\n<aside class=\"sidebar\">\n")
			w.recs(recs[:nrecs], `<div class="ad">`, `<span class="ad-price">`, "</span></div>\n", "")
			w.str("</aside>\n</main>")
		case "table":
			w.str(`<div id="content" data-sku="`)
			w.str(p.SKU)
			w.str("\">\n<h1>")
			w.esc(p.Name)
			w.str("</h1>\n<table class=\"specs\">\n<tr><th>Item</th><td>")
			w.esc(p.Name)
			w.str("</td></tr>\n<tr><th>Category</th><td>")
			w.str(string(p.Category))
			w.str("</td></tr>\n<tr><th>Price</th><td class=\"p\">")
			w.slot(price, PriceOnRequest)
			w.str("</td></tr>\n<tr><th>List price</th><td class=\"lp\">")
			w.slot(was, "n/a")
			w.str("</td></tr>\n</table>\n<table class=\"related\"><tr><th>Related</th><th>Price</th></tr>\n")
			w.recs(recs[:nrecs], "<tr><td>", `</td><td class="rp">`, "</td></tr>\n", "")
			w.str("</table>\n</div>")
		case "minimal":
			w.str(`<div class="page" data-sku="`)
			w.str(p.SKU)
			w.str("\">\n<h2>")
			w.esc(p.Name)
			w.str("</h2>\n<p class=\"desc\">Our price: ")
			w.slot(price, PriceOnRequest)
			w.str(" (list price ")
			w.slot(was, "n/a")
			w.str("). Free returns within 30 days.</p>\n<p class=\"others\">Customers also bought: ")
			w.recs(recs[:nrecs], "", " at ", "", ", ")
			w.str("</p>\n</div>")
		default: // classic
			w.str(`<div id="main" class="container" data-sku="`)
			w.str(p.SKU)
			w.str("\">\n<h1 class=\"product-title\">")
			w.esc(p.Name)
			w.str("</h1>\n<div class=\"price-box\">\n  <span class=\"price main-price\">")
			w.slot(price, PriceOnRequest)
			w.str("</span>\n  <span class=\"was-price\">")
			w.slot(was, "n/a")
			w.str("</span>\n  <span class=\"vat-note\">excl. taxes</span>\n</div>\n<ul class=\"recs\">\n")
			w.recs(recs[:nrecs], `<li class="rec">`, ` <span class="price">`, "</span></li>\n", "")
			w.str("</ul>\n</div>")
		}

		w.str("\n<div class=\"footer\">© ")
		w.esc(domain)
		w.str("</div>\n</body>\n</html>\n")
	}
	return w.b.String()
}

// shippingTeaser is the small shipping price every modern product page
// quotes: always USD 4.99, whatever the visitor's currency — another
// decoy.
func shippingTeaser() money.Amount {
	return money.FromFloat(4.99, money.USD)
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
	// The k-th product of the category is listed on page k/CategoryPageSize.
	var listed [CategoryPageSize]struct {
		p     *Product
		price priceSlot
	}
	n, k := 0, 0
	for i := range r.catalog.products {
		p := &r.catalog.products[i]
		if p.Category != cat {
			continue
		}
		if k/CategoryPageSize == page {
			listed[n].p, listed[n].price = p, r.priceFor(*p, v)
			n++
		}
		k++
	}
	more := k > 0 && (k-1)/CategoryPageSize > page

	var w pageWriter
	for w.pass() {
		w.str("<!DOCTYPE html>\n<html><head><title>")
		w.str(string(cat))
		w.str(" - ")
		w.esc(r.cfg.Domain)
		w.str("</title>")
		w.str(r.trackers)
		w.str("</head>\n<body>\n<h1>")
		w.str(string(cat))
		w.str(" (page ")
		w.num(page + 1)
		w.str(")</h1>\n<ul class=\"listing\">\n")
		for _, l := range listed[:n] {
			w.str(`<li><a class="product-link" href="/product/`)
			w.str(l.p.SKU)
			w.str(`">`)
			w.esc(l.p.Name)
			w.str(`</a> <span class="teaser">`)
			w.slot(l.price, PriceOnRequest)
			w.str("</span></li>\n")
		}
		w.str("</ul>\n")
		if more {
			w.str(`<a class="next" rel="next" href="/category/`)
			w.str(string(cat))
			w.str("?page=")
			w.num(page + 1)
			w.str("\">next page</a>\n")
		}
		w.str("</body></html>\n")
	}
	return w.b.String()
}

// RenderHome produces the storefront home page linking every category,
// in the order their first products appear in the catalog.
func (r *Retailer) RenderHome() string {
	var w pageWriter
	for w.pass() {
		w.str("<!DOCTYPE html>\n<html><head><title>")
		w.esc(r.cfg.Domain)
		w.str("</title>")
		w.str(r.trackers)
		w.str("</head>\n<body>\n<h1>")
		w.esc(r.cfg.Label)
		w.str("</h1>\n<nav class=\"cats\">\n")
		var seenBuf [16]Category
		seen := seenBuf[:0]
		for _, p := range r.catalog.products {
			if slices.Contains(seen, p.Category) {
				continue
			}
			seen = append(seen, p.Category)
			w.str(`<a class="cat-link" href="/category/`)
			w.str(string(p.Category))
			w.str(`">`)
			w.str(string(p.Category))
			w.str("</a>\n")
		}
		w.str("</nav>\n</body></html>\n")
	}
	return w.b.String()
}
