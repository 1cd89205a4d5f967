// Package backend implements the $heriff service (Sec. 3.1): it accepts a
// product URI plus the user's price highlight, fans the URI out to the 14
// measurement vantage points simultaneously, re-extracts the price from
// every downloaded page using the highlight-derived anchor, applies the
// currency filter, stores everything, and returns the per-location prices
// to the user.
//
// The anchor learned from each successful check is remembered per domain;
// the systematic crawler (internal/crawler) reuses those anchors, which is
// exactly how the paper's pipeline scaled from crowd hints to full crawls.
package backend

import (
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"net/url"
	"strings"
	"sync"
	"time"

	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/store"
)

// Backend is the $heriff service. Construct with New.
type Backend struct {
	registry *netsim.Registry
	clock    *netsim.Clock
	market   *fx.Market
	vps      []geo.VantagePoint
	store    store.Backend
	geodb    *geo.DB

	// pages dedupes identical fabric fetches within one simulated
	// instant (see pagecache.go); checks fanning out to the same URL —
	// the same product checked by many users in a synchronized round —
	// share one fetch per vantage point instead of re-rendering 14 pages
	// per user.
	pages *pageCache

	mu      sync.RWMutex
	anchors map[string]extract.Anchor // per domain
	checks  int
}

// New assembles the backend. The store receives one observation per
// vantage point per check.
func New(reg *netsim.Registry, clk *netsim.Clock, market *fx.Market, vps []geo.VantagePoint, st store.Backend) *Backend {
	return &Backend{
		registry: reg,
		clock:    clk,
		market:   market,
		vps:      vps,
		store:    st,
		geodb:    geo.NewDB(),
		pages:    newPageCache(),
		anchors:  make(map[string]extract.Anchor),
	}
}

// CheckRequest is what the browser extension submits: the exact URI and
// the user's highlighted price text, plus where the user is (their egress
// address determines the locale of the page the highlight was made on).
type CheckRequest struct {
	// URL is the exact product URI.
	URL string `json:"url"`
	// Highlight is the price text the user selected.
	Highlight string `json:"highlight"`
	// UserAddr is the user's egress IP on the fabric.
	UserAddr netip.Addr `json:"user_addr"`
	// UserID tags the originating crowd user for the dataset.
	UserID string `json:"user_id"`
	// UserAgent is the user's browser User-Agent string; the user-side
	// fetch presents it so fingerprint-pricing retailers render the page
	// the highlight was actually made on. Empty is allowed (the page then
	// prices as the baseline fingerprint).
	UserAgent string `json:"user_agent,omitempty"`
	// Tenant is the authenticated contributor's tenant ID; empty for
	// anonymous checks. Stamped onto every stored observation so
	// contributions ledger per tenant.
	Tenant string `json:"tenant,omitempty"`
}

// VPPrice is the price one vantage point saw.
type VPPrice struct {
	// VP is the vantage point ID.
	VP string `json:"vp"`
	// Label is the vantage point's display name.
	Label string `json:"label"`
	// PriceUnits and Currency encode the extracted display price.
	PriceUnits int64  `json:"price_units"`
	Currency   string `json:"currency"`
	// USD is the price converted at the day's mid fixing (for display).
	USD float64 `json:"usd"`
	// OK reports extraction success; Err explains failures.
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// CheckResult is what the extension shows the user.
type CheckResult struct {
	// Domain and SKU identify the product checked.
	Domain string `json:"domain"`
	SKU    string `json:"sku"`
	// Prices holds one entry per vantage point.
	Prices []VPPrice `json:"prices"`
	// Ratio is the conservative max/min USD ratio after the currency
	// filter of Sec. 2.2.
	Ratio float64 `json:"ratio"`
	// Varies reports whether variation survives the currency filter.
	Varies bool `json:"varies"`
}

// Check runs one crowd-assisted price check: derive the anchor from the
// user's own rendering, then fan out to every vantage point at the same
// simulated instant.
//
// Check is safe for concurrent callers: the anchor table and check
// counter sit behind the backend's lock, the store ingests each check's
// fan-out as one batch, and identical fetches across concurrent checks
// collapse in the single-flight page cache. The one contract callers must
// keep is the clock's: the simulated clock may only advance between
// checks, never while checks are in flight (the crowd simulator steps it
// between sequential checks; the load harness advances it at round
// barriers with no checks outstanding).
func (b *Backend) Check(req CheckRequest) (CheckResult, error) {
	domain, sku, err := splitProductURL(req.URL)
	if err != nil {
		return CheckResult{}, err
	}

	// One instant per check: the user-side fetch, the synchronized
	// fan-out and the stored observations all carry it (the paper's
	// defence against temporal noise), and it keys the page cache.
	now := b.clock.Now()

	// Fetch the page as the user sees it and derive the anchor from the
	// highlight (the extension does this client-side in the real system).
	userLoc, userCur := b.locate(req.UserAddr)
	userPage, err := b.fetch(now, req.URL, req.UserAddr, req.UserAgent)
	if err != nil {
		return CheckResult{}, fmt.Errorf("backend: user-side fetch: %w", err)
	}
	userDoc, err := htmlx.ParseString(userPage)
	if err != nil {
		return CheckResult{}, fmt.Errorf("backend: user-side parse: %w", err)
	}
	anchor, err := extract.Derive(userDoc, req.Highlight, userCur)
	if err != nil {
		return CheckResult{}, fmt.Errorf("backend: %w", err)
	}

	b.mu.Lock()
	b.anchors[domain] = anchor
	b.checks++
	b.mu.Unlock()

	// Synchronized fan-out: every vantage point fetches at the same
	// simulated instant (the clock only moves between checks), which is
	// the paper's defence against temporal noise.
	results := make([]VPPrice, len(b.vps))
	var wg sync.WaitGroup
	for i, vp := range b.vps {
		wg.Add(1)
		go func(i int, vp geo.VantagePoint) {
			defer wg.Done()
			results[i] = b.checkOne(now, req.URL, anchor, vp)
		}(i, vp)
	}
	wg.Wait()

	// Store the check's observations as one batch (a single shard lock
	// acquisition — the fan-out's 14 rows share a domain) and apply the
	// currency filter. Each row records the originating user's country,
	// so crowd demographics survive into the dataset.
	var quotes []fx.Quote
	obs := make([]store.Observation, len(results))
	for i, r := range results {
		o := store.Observation{
			Domain: domain, SKU: sku, URL: req.URL,
			VP: r.VP, VPLabel: r.Label,
			Country: b.vps[i].Location.Country.Code, City: b.vps[i].Location.City,
			PriceUnits: r.PriceUnits, Currency: r.Currency,
			Time: now, Round: -1, Source: store.SourceCrowd,
			UserCountry: userLoc.Country.Code,
			Tenant:      req.Tenant,
			OK:          r.OK, Err: r.Err,
		}
		obs[i] = o
		if r.OK {
			if amt, ok := o.Amount(); ok {
				quotes = append(quotes, fx.Quote{Amount: amt, Day: now})
			}
		}
	}
	b.store.AddAll(obs)
	ratio, varies := b.market.RealVariation(quotes)
	return CheckResult{
		Domain: domain, SKU: sku,
		Prices: results, Ratio: ratio, Varies: varies,
	}, nil
}

// checkOne fetches and extracts from a single vantage point.
func (b *Backend) checkOne(now time.Time, rawURL string, anchor extract.Anchor, vp geo.VantagePoint) VPPrice {
	out := VPPrice{VP: vp.ID, Label: vp.Label}
	page, err := b.fetch(now, rawURL, vp.Addr, vp.Browser.UserAgent())
	if err != nil {
		out.Err = err.Error()
		return out
	}
	doc, err := htmlx.ParseString(page)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	amt, err := anchor.Extract(doc, vp.Location.Country.Currency)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.PriceUnits = amt.Units
	out.Currency = amt.Currency.Code
	out.USD = amt.Float() * b.market.Mid(amt.Currency, now)
	out.OK = true
	return out
}

// fetch retrieves a URL from a fabric address presenting the given
// User-Agent (empty sends none), through the single-flight page cache: on
// the fabric the response is a deterministic function of exactly
// (URL, source, UA, instant), so duplicates within the instant are served
// without touching the registry.
func (b *Backend) fetch(now time.Time, rawURL string, src netip.Addr, ua string) (string, error) {
	key := pageKey{url: rawURL, src: src.String(), ua: ua}
	return b.pages.do(now, key, func() (string, error) {
		tr := netsim.NewTransport(b.registry, b.clock, src)
		return doGet(tr.Client(nil), rawURL, ua)
	})
}

func doGet(c *http.Client, rawURL, ua string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return "", err
	}
	if ua != "" {
		req.Header.Set("User-Agent", ua)
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("backend: GET %s: status %d", rawURL, resp.StatusCode)
	}
	return string(body), nil
}

// locate resolves a fabric address to its location and local currency.
func (b *Backend) locate(addr netip.Addr) (geo.Location, money.Currency) {
	if loc, ok := b.geodb.Lookup(addr); ok {
		return loc, loc.Country.Currency
	}
	return geo.Location{Country: geo.US}, money.USD
}

// Anchor returns the anchor learned for a domain, if any check succeeded
// against it.
func (b *Backend) Anchor(domain string) (extract.Anchor, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.anchors[domain]
	return a, ok
}

// Anchors returns a copy of all learned anchors keyed by domain.
func (b *Backend) Anchors() map[string]extract.Anchor {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]extract.Anchor, len(b.anchors))
	for d, a := range b.anchors {
		out[d] = a
	}
	return out
}

// Checks returns the number of checks processed.
func (b *Backend) Checks() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.checks
}

// PageCacheStats returns the single-flight page cache's cumulative
// hit/miss counters — the dedupe ratio concurrent crowd load achieves.
func (b *Backend) PageCacheStats() (hits, misses uint64) {
	return b.pages.stats()
}

// VantagePoints returns the backend's measurement endpoints.
func (b *Backend) VantagePoints() []geo.VantagePoint { return b.vps }

// Store returns the observation database the backend records into — the
// v1 API's query endpoints read it directly.
func (b *Backend) Store() store.Backend { return b.store }

// splitProductURL decomposes a product URI into domain and SKU.
func splitProductURL(rawURL string) (domain, sku string, err error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", "", fmt.Errorf("backend: bad URL %q: %w", rawURL, err)
	}
	domain = u.Hostname()
	if domain == "" {
		return "", "", fmt.Errorf("backend: URL %q has no host", rawURL)
	}
	if strings.HasPrefix(u.Path, "/product/") {
		sku = strings.TrimPrefix(u.Path, "/product/")
	} else {
		sku = u.Path
	}
	return domain, sku, nil
}
