// Package backend implements the $heriff service (Sec. 3.1): it accepts a
// product URI plus the user's price highlight, fans the URI out to the 14
// measurement vantage points simultaneously, re-extracts the price from
// every downloaded page using the highlight-derived anchor, applies the
// currency filter, stores everything, and returns the per-location prices
// to the user.
//
// Measure is the one step that turns a fetched page into an observation
// row. The crowd check, the systematic crawler and the login and persona
// experiments all record through it, so the crowd and crawl datasets the
// paper compares are measured the same way.
//
// The anchor learned from each successful check is remembered per domain;
// the systematic crawler (internal/crawler) reuses those anchors, which is
// exactly how the paper's pipeline scaled from crowd hints to full crawls.
package backend

import (
	"fmt"
	"net/http"
	"net/netip"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/par"
	"sheriff/internal/store"
)

// Backend is the $heriff service. Construct with New.
type Backend struct {
	registry *netsim.Registry
	clock    *netsim.Clock
	market   *fx.Market
	vps      []geo.VantagePoint
	egress   []egress // where vps[i] fetches from
	store    store.Backend
	geodb    *geo.DB

	// pages dedupes identical fabric fetches within one simulated
	// instant (see pagecache.go); checks fanning out to the same URL —
	// the same product checked by many users in a synchronized round —
	// share one fetch per vantage point instead of re-rendering 14 pages
	// per user.
	pages *pageCache

	mu      sync.RWMutex
	anchors map[string]extract.Parsed // per domain
	checks  int
}

// New assembles the backend. The store receives one observation per
// vantage point per check.
func New(reg *netsim.Registry, clk *netsim.Clock, market *fx.Market, vps []geo.VantagePoint, st store.Backend) *Backend {
	b := &Backend{
		registry: reg,
		clock:    clk,
		market:   market,
		vps:      vps,
		store:    st,
		geodb:    geo.NewDB(),
		pages:    newPageCache(),
		anchors:  make(map[string]extract.Parsed),
	}
	b.egress = make([]egress, len(vps))
	for i, vp := range vps {
		b.egress[i] = egress{src: vp.Addr, ua: vp.Browser.UserAgent()}
	}
	return b
}

// egress is where a fetch comes from: the source address and the
// User-Agent it presents (empty sends none).
type egress struct {
	src netip.Addr
	ua  string
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
	// A repeat check of a cached user page with the same highlight is
	// answered from the page's memo, with no parse and no derive.
	userLoc, userCur := b.locate(req.UserAddr)
	user, memo := b.fetch(now, req.URL, egress{src: req.UserAddr, ua: req.UserAgent})
	if user.err != nil {
		return CheckResult{}, fmt.Errorf("backend: user-side fetch: %w", user.err)
	}
	d := memo.ask(question{derive: true, highlight: req.Highlight}, func() pageMemo {
		anchor, err := derive(user.page, req.Highlight, userCur)
		return pageMemo{derived: anchor, err: err}
	})
	if d.err != nil {
		return CheckResult{}, d.err
	}
	anchor := d.derived

	b.mu.Lock()
	b.anchors[domain] = anchor
	b.checks++
	b.mu.Unlock()

	// Synchronized fan-out: every vantage point fetches at the same
	// simulated instant (the clock only moves between checks), which is
	// the paper's defence against temporal noise. The instant, not the
	// scheduling, synchronizes the fetches, and fabric fetches do no I/O
	// and never sleep, so the fan-out runs on GOMAXPROCS bounded workers
	// (par.Do).
	// Each row lands at its vantage point's index whichever worker
	// measured it, and records the originating user's country, so crowd
	// demographics survive into the dataset.
	obs := make([]store.Observation, len(b.vps))
	par.Do(runtime.GOMAXPROCS(0), len(b.vps), func() func(int) {
		return func(i int) {
			vp := b.vps[i]
			obs[i] = store.Observation{
				Domain: domain, SKU: sku, URL: req.URL,
				Time: now, Round: -1, Source: store.SourceCrowd,
				UserCountry: userLoc.Country.Code,
				Tenant:      req.Tenant,
			}
			call, memo := b.fetch(now, req.URL, b.egress[i])
			measure(&obs[i], vp, call.page, call.err, anchor, memo)
		}
	})

	// Show the user each row with its price at the day's mid fixing, and
	// apply the currency filter to the prices that were extracted.
	prices := make([]VPPrice, len(obs))
	var quotes []fx.Quote
	for i, o := range obs {
		prices[i] = VPPrice{
			VP: o.VP, Label: o.VPLabel,
			PriceUnits: o.PriceUnits, Currency: o.Currency,
			OK: o.OK, Err: o.Err,
		}
		if amt, ok := o.Amount(); o.OK && ok {
			prices[i].USD = amt.Float() * b.market.Mid(amt.Currency, now)
			quotes = append(quotes, fx.Quote{Amount: amt, Day: now})
		}
	}
	// Store the check's observations as one batch: the fan-out's 14 rows
	// share a domain, so this is a single shard lock acquisition.
	b.store.AddAll(obs)
	ratio, varies := b.market.RealVariation(quotes)
	return CheckResult{
		Domain: domain, SKU: sku,
		Prices: prices, Ratio: ratio, Varies: varies,
	}, nil
}

// Measure turns one fetched page into the row that records it. It stamps
// the vantage point's ID, label, country and city onto o, then fills
// either the price the anchor extracts in the vantage point's currency,
// or the text of the error that stopped it: the fetch's or the
// extraction's. The page goes through Parsed.ExtractPage, which builds no
// tree when the anchor's path resolves in one streamed pass; the caller
// parses the anchor's path once for all its pages. Crowd checks, the
// crawler and the login and persona experiments all record their rows
// through Measure, so the campaigns the paper compares turn a page into a
// price the same way; a crowd check's cached pages may take the price
// step's answer from their memo.
func Measure(o *store.Observation, vp geo.VantagePoint, page string, fetchErr error, anchor extract.Parsed) {
	measure(o, vp, page, fetchErr, anchor, memoSlot{})
}

// measure is Measure on a page from the cache. On a hit, the page's memo
// answers the price step when the page was last asked the same anchor.
func measure(o *store.Observation, vp geo.VantagePoint, page string, fetchErr error, anchor extract.Parsed, memo memoSlot) {
	o.VP, o.VPLabel = vp.ID, vp.Label
	o.Country, o.City = vp.Location.Country.Code, vp.Location.City
	err := fetchErr
	var amt money.Amount
	if err == nil {
		m := memo.ask(question{anchor: anchor.Anchor}, func() pageMemo {
			amt, err := anchor.ExtractPage(page, vp.Location.Country.Currency)
			return pageMemo{price: amt, err: err}
		})
		amt, err = m.price, m.err
	}
	if err != nil {
		o.Err = err.Error()
		return
	}
	o.PriceUnits, o.Currency, o.OK = amt.Units, amt.Currency.Code, true
}

// fetch retrieves a URL through an egress, via the single-flight page
// cache: on the fabric the response is a deterministic function of
// exactly (URL, source, UA, instant), so duplicates within the instant
// are served without touching the registry. It returns the completed
// call and the slot to ask about its page in.
func (b *Backend) fetch(now time.Time, rawURL string, e egress) (call *pageCall, memo memoSlot) {
	key := pageKey{url: rawURL, src: e.src, ua: e.ua}
	call, hit := b.pages.do(now, key, func() (string, error) {
		page, status, err := netsim.NewTransport(b.registry, b.clock, e.src).Get(rawURL, e.ua)
		if err == nil && status != http.StatusOK {
			return "", fmt.Errorf("backend: GET %s: status %d", rawURL, status)
		}
		return page, err
	})
	if hit {
		memo = memoSlot{cache: b.pages, call: call}
	}
	return call, memo
}

// derive parses the user's page and derives, with its path parsed, the
// anchor that the highlight marks on it.
func derive(page, highlight string, hint money.Currency) (extract.Parsed, error) {
	doc, err := htmlx.ParseString(page)
	if err != nil {
		return extract.Parsed{}, fmt.Errorf("backend: user-side parse: %w", err)
	}
	a, err := extract.Derive(doc, highlight, hint)
	if err != nil {
		return extract.Parsed{}, fmt.Errorf("backend: %w", err)
	}
	return a.Parse(), nil
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
	return a.Anchor, ok
}

// Anchors returns a copy of all learned anchors keyed by domain.
func (b *Backend) Anchors() map[string]extract.Anchor {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]extract.Anchor, len(b.anchors))
	for d, a := range b.anchors {
		out[d] = a.Anchor
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
// hit/miss counters — the dedupe ratio concurrent crowd load achieves —
// and how many answers the pages' memos served.
func (b *Backend) PageCacheStats() (hits, misses, memoHits uint64) {
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
