// Package crawler implements the paper's systematic measurement (Sec. 4):
// for each retailer where the crowd found price variation, discover up to
// 100 products by walking the storefront, then fetch every product page
// from all 14 vantage points simultaneously, once per day for a week,
// extracting prices with the anchors learned from crowd highlights.
// Discovery reads three kinds of storefront link, walking each parsed
// page for the <a> elements of one class: cat-link on the home page,
// product-link on category listings and next for their pagination.
// Each page becomes a row through backend.Measure, the same step the
// crowd check records with, so the two datasets compare like for like.
//
// Synchronization is the paper's noise defence: within a round every
// vantage point sees the same simulated instant, so temporal drift and
// availability effects cannot masquerade as price discrimination. An
// Unsynchronized mode exists solely for the ablation that quantifies what
// happens without that defence.
package crawler

import (
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"time"

	"sheriff/internal/backend"
	"sheriff/internal/extract"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/netsim"
	"sheriff/internal/par"
	"sheriff/internal/store"
)

// Plan describes a crawl campaign.
type Plan struct {
	// Domains to crawl (the 21 retailers in the paper's case).
	Domains []string
	// MaxProducts caps products per domain (the paper's 100).
	MaxProducts int
	// Rounds is the number of daily visits (the paper's 7), one
	// simulated day apart.
	Rounds int
	// Unsynchronized, when set, staggers vantage-point fetches across the
	// day instead of synchronizing them — the ablation mode.
	Unsynchronized bool
}

// perDomainWorkers bounds concurrent product fetch groups, and so those
// against any one retailer — politeness: a measurement study must not
// hammer the sites it studies.
const perDomainWorkers = 2

// Crawler executes plans against the fabric.
type Crawler struct {
	registry *netsim.Registry
	clock    *netsim.Clock
	vps      []geo.VantagePoint
	store    store.Backend
	anchors  map[string]extract.Parsed // per domain, each path parsed once
	// uas holds each vantage point's User-Agent, rendered once, at the
	// vantage point's index.
	uas []string
}

// New builds a crawler. The anchors map (domain → anchor) comes from the
// $heriff backend's crowd-learned anchors; domains without an anchor fall
// back to the extraction heuristics and may fail on hard templates, which
// is faithful to the paper's pipeline ordering.
func New(reg *netsim.Registry, clk *netsim.Clock, vps []geo.VantagePoint, st store.Backend, anchors map[string]extract.Anchor) *Crawler {
	parsed := make(map[string]extract.Parsed, len(anchors))
	for d, a := range anchors {
		parsed[d] = a.Parse()
	}
	uas := make([]string, len(vps))
	for i, vp := range vps {
		uas[i] = vp.Browser.UserAgent()
	}
	return &Crawler{registry: reg, clock: clk, vps: vps, store: st, anchors: parsed, uas: uas}
}

// Report summarizes a finished crawl.
type Report struct {
	// ProductsPerDomain is how many products were discovered and crawled.
	ProductsPerDomain map[string]int
	// Extracted counts successful price extractions.
	Extracted int
	// Failed counts failed extractions or fetches.
	Failed int
	// Rounds actually executed.
	Rounds int
}

// Run executes the plan. Observations land in the store with
// Source=SourceCrawl and their round number.
func (c *Crawler) Run(plan Plan) (*Report, error) {
	if len(plan.Domains) == 0 {
		return nil, fmt.Errorf("crawler: no domains in plan")
	}
	if plan.MaxProducts <= 0 {
		plan.MaxProducts = 100
	}
	if plan.Rounds <= 0 {
		plan.Rounds = 1
	}

	rep := &Report{ProductsPerDomain: map[string]int{}, Rounds: plan.Rounds}

	// Discover products once, from the first US vantage point (discovery
	// location does not matter: SKUs are location-independent).
	discoveryVP := c.vps[0]
	for _, vp := range c.vps {
		if vp.Location.Country.Code == "US" {
			discoveryVP = vp
			break
		}
	}
	products := map[string][]string{}
	for _, domain := range plan.Domains {
		urls, err := c.Discover(domain, discoveryVP, plan.MaxProducts)
		if err != nil {
			return nil, fmt.Errorf("crawler: discover %s: %w", domain, err)
		}
		products[domain] = urls
		rep.ProductsPerDomain[domain] = len(urls)
	}

	// Each round crawls every (domain, product) pair on perDomainWorkers
	// workers. A pair writes its counts into its own slot, summed after
	// the round.
	type item struct{ domain, url string }
	var items []item
	for _, domain := range plan.Domains {
		for _, productURL := range products[domain] {
			items = append(items, item{domain, productURL})
		}
	}
	extracted := make([]int, len(items))
	failed := make([]int, len(items))
	for round := 0; round < plan.Rounds; round++ {
		par.Do(perDomainWorkers, len(items), func() func(int) {
			return func(i int) {
				it := items[i]
				extracted[i], failed[i] = c.crawlProduct(it.domain, it.url, c.anchors[it.domain], round, plan.Unsynchronized)
			}
		})
		for i := range items {
			rep.Extracted += extracted[i]
			rep.Failed += failed[i]
		}
		if round < plan.Rounds-1 {
			c.clock.Advance(24 * time.Hour)
		}
	}
	return rep, nil
}

// crawlProduct fetches one product from every vantage point and stores the
// extractions. It returns (successes, failures). Fabric fetches never
// sleep, so the vantage points run on GOMAXPROCS bounded workers.
func (c *Crawler) crawlProduct(domain, productURL string, anchor extract.Parsed, round int, unsync bool) (okCount, failCount int) {
	now := c.clock.Now()
	sku := skuOf(productURL)
	results := make([]store.Observation, len(c.vps))
	par.Do(runtime.GOMAXPROCS(0), len(c.vps), func() func(int) {
		return func(i int) {
			at := now
			if unsync {
				// Stagger VPs across the day — the ablation that lets
				// temporal drift pollute cross-location comparisons.
				at = now.Add(time.Duration(i) * 90 * time.Minute)
			}
			results[i] = c.fetchOne(domain, productURL, sku, anchor, c.vps[i], c.uas[i], round, at)
		}
	})
	// One batch append per product-round: the 14 per-VP rows share the
	// product's domain, so this takes a single shard lock and concurrent
	// product groups on other retailers never contend.
	c.store.AddAll(results)
	for _, o := range results {
		if o.OK {
			okCount++
		} else {
			failCount++
		}
	}
	return okCount, failCount
}

// fetchOne performs a single (product, vantage point) measurement at the
// given simulated instant, sending the vantage point's User-Agent ua.
func (c *Crawler) fetchOne(domain, productURL, sku string, anchor extract.Parsed, vp geo.VantagePoint, ua string, round int, at time.Time) store.Observation {
	o := store.Observation{
		Domain: domain, SKU: sku, URL: productURL,
		Time: at, Round: round, Source: store.SourceCrawl,
	}
	// An unsynchronized fetch needs its own clock so only this request
	// sees the staggered time.
	clk := c.clock
	if !at.Equal(c.clock.Now()) {
		clk = netsim.NewClock(at)
	}
	page, err := fetch(c.registry, clk, vp, ua, productURL)
	backend.Measure(&o, vp, page, err, anchor)
	return o
}

// Discover walks a storefront from its home page through category pages
// and returns up to max product URLs, in stable order. Transient failures
// (real sites 503 and rate-limit) are retried from the other vantage
// points before giving up.
func (c *Crawler) Discover(domain string, vp geo.VantagePoint, max int) ([]string, error) {
	base := "http://" + domain
	home, err := c.fetchResilient(vp, base+"/")
	if err != nil {
		return nil, err
	}
	homeDoc, err := htmlx.ParseString(home)
	if err != nil {
		return nil, err
	}
	var catURLs []string
	for _, a := range links(homeDoc, "cat-link") {
		if href, ok := a.Attr("href"); ok {
			catURLs = append(catURLs, base+href)
		}
	}
	sort.Strings(catURLs)

	seen := map[string]bool{}
	var out []string
	for _, cu := range catURLs {
		if len(out) >= max {
			break
		}
		// Walk the category's pagination chain (rel=next links); the cap
		// of 64 pages is a cycle guard, far above any real listing depth.
		pageURL := cu
		for hops := 0; pageURL != "" && len(out) < max && hops < 64; hops++ {
			page, err := c.fetchResilient(vp, pageURL)
			if err != nil {
				break // a listing page dead from every vantage point
			}
			doc, err := htmlx.ParseString(page)
			if err != nil {
				break
			}
			for _, a := range links(doc, "product-link") {
				if len(out) >= max {
					break
				}
				href, ok := a.Attr("href")
				if !ok || seen[href] {
					continue
				}
				seen[href] = true
				out = append(out, base+href)
			}
			// The first next link decides: without an href, the chain ends.
			pageURL = ""
			if next := links(doc, "next"); len(next) > 0 {
				if href, ok := next[0].Attr("href"); ok {
					pageURL = base + href
				}
			}
		}
	}
	return out, nil
}

// links returns the <a> elements under doc that carry class, in document
// order.
func links(doc *htmlx.Node, class string) []*htmlx.Node {
	var out []*htmlx.Node
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type == htmlx.ElementNode && n.Tag == "a" && n.HasClass(class) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// fetchResilient tries the preferred vantage point first, then every other
// one (a different egress evades per-client transient failures).
func (c *Crawler) fetchResilient(preferred geo.VantagePoint, rawURL string) (string, error) {
	page, err := fetch(c.registry, c.clock, preferred, preferred.Browser.UserAgent(), rawURL)
	if err == nil {
		return page, nil
	}
	for i, vp := range c.vps {
		if vp.ID == preferred.ID {
			continue
		}
		if page, err2 := fetch(c.registry, c.clock, vp, c.uas[i], rawURL); err2 == nil {
			return page, nil
		}
	}
	return "", err
}

// fetch retrieves a URL as a vantage point sending User-Agent ua.
func fetch(reg *netsim.Registry, clk *netsim.Clock, vp geo.VantagePoint, ua, rawURL string) (string, error) {
	page, status, err := netsim.NewTransport(reg, clk, vp.Addr).Get(rawURL, ua)
	if err == nil && status != http.StatusOK {
		return "", fmt.Errorf("crawler: GET %s: status %d", rawURL, status)
	}
	return page, err
}

// skuOf extracts the SKU path element from a product URL.
func skuOf(productURL string) string {
	u, err := url.Parse(productURL)
	if err != nil {
		return productURL
	}
	return strings.TrimPrefix(u.Path, "/product/")
}
