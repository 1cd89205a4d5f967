// Package core assembles the complete reproduction world — retailers,
// GeoIP, FX market, vantage points, the $heriff backend and the
// measurement store — and orchestrates the paper's campaigns: the crowd
// beta (Sec. 3), the systematic crawl (Sec. 4.1), the login and persona
// experiments (Sec. 4.4) and the third-party audit.
package core

import (
	"net/http"
	"time"

	"sheriff/internal/aggregate"
	"sheriff/internal/backend"
	"sheriff/internal/events"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// WorldOptions configures a reproduction world.
type WorldOptions struct {
	// Seed drives every stochastic component. Worlds with equal options
	// are bit-for-bit identical.
	Seed int64
	// Configs, when non-empty, replaces the paper's retailer roster: the
	// given shops become the crawled (and interesting) set, no extra
	// crowd domains are added and no fetch failures are injected, so
	// detector scoring sees only the behaviour under test. Scenario
	// worlds (core.RunScenarioMatrix) are built this way — one
	// purpose-built retailer per world. Empty means the paper's 21
	// crawled + 9 crowd-extra retailers, whose fetches fail at
	// fetchFailureRate.
	Configs []shop.Config
	// LongTail is the number of no-variation long-tail domains
	// (default 580 for paper worlds, 0 for Configs worlds).
	LongTail int
	// SegmentPricingDomain, when set, plants browsing-history price
	// discrimination at that retailer (affluent visitors pay 8% more).
	// The paper found no such retailer in the wild; planting one lets the
	// detector (RunSegmentDetector) be validated positively — the
	// "attribute prices to personal information" future work of Sec. 6.
	SegmentPricingDomain string
	// Store, when non-nil, is the observation backend the world records
	// into — a durable store opened on a data directory (store.OpenDurable)
	// makes every campaign's dataset survive the process; nil means a
	// fresh in-memory store. A pre-populated backend (a recovered data
	// dir) is fine: campaigns append after what is already there.
	Store store.Backend
}

// campaignStart is the simulated campaign start: the beginning of the
// paper's Jan–May window.
var campaignStart = time.Date(2013, 1, 10, 8, 0, 0, 0, time.UTC)

// fetchFailureRate is the share of paper-world fetches answered with a
// deterministic 503; it turns the crawl's ~206K attempts into the
// paper's ~188K extracted prices.
const fetchFailureRate = 0.085

// World is a fully wired simulation.
type World struct {
	// Opts echoes the options the world was built with.
	Opts WorldOptions
	// Clock is the simulated wall clock shared by every component.
	Clock *netsim.Clock
	// Registry is the virtual internet.
	Registry *netsim.Registry
	// GeoDB resolves fabric addresses.
	GeoDB *geo.DB
	// Market is the FX market.
	Market *fx.Market
	// Store receives every observation; it is WorldOptions.Store when one
	// was supplied (e.g. a durable backend), a fresh memory store otherwise.
	Store store.Backend
	// Backend is the $heriff service.
	Backend *backend.Backend
	// Analysis is the incremental analysis engine: per-domain aggregates
	// folded on every store write, an event log of threshold crossings and
	// strategy flips. It attaches to Store at construction — a recovered
	// durable backend is rebuilt into aggregates before the first campaign
	// writes.
	Analysis *aggregate.Engine
	// Retailers maps every domain to its ground-truth retailer.
	Retailers map[string]*shop.Retailer
	// Crawled lists the 21 systematically crawled domains.
	Crawled []string
	// Interesting lists crawled plus the extra crowd-famous domains.
	Interesting []string
	// Tail lists the long-tail domains.
	Tail []string
}

// NewWorld builds a deterministic world from options.
func NewWorld(opts WorldOptions) *World {
	if opts.LongTail == 0 && len(opts.Configs) == 0 {
		opts.LongTail = 580
	}

	st := opts.Store
	if st == nil {
		st = store.New()
	}
	w := &World{
		Opts:      opts,
		Clock:     netsim.NewClock(campaignStart),
		Registry:  netsim.NewRegistry(),
		GeoDB:     geo.NewDB(),
		Market:    fx.NewMarket(opts.Seed),
		Store:     st,
		Retailers: map[string]*shop.Retailer{},
	}

	crawled := opts.Configs
	var extra []shop.Config
	if len(crawled) == 0 {
		crawled = shop.CrawledConfigs(opts.Seed)
		extra = shop.CrowdExtraConfigs(opts.Seed)
	}
	tail := shop.LongTailConfigs(opts.Seed, opts.LongTail)

	plant := func(cfg *shop.Config) {
		if cfg.Domain == opts.SegmentPricingDomain {
			cfg.SegmentFactor = map[string]float64{"affluent": 1.08}
		}
	}
	for i := range crawled {
		plant(&crawled[i])
	}
	for i := range extra {
		plant(&extra[i])
	}

	for _, cfg := range crawled {
		w.addRetailer(cfg, true)
		w.Crawled = append(w.Crawled, cfg.Domain)
		w.Interesting = append(w.Interesting, cfg.Domain)
	}
	for _, cfg := range extra {
		w.addRetailer(cfg, true)
		w.Interesting = append(w.Interesting, cfg.Domain)
	}
	for _, cfg := range tail {
		w.addRetailer(cfg, false)
		w.Tail = append(w.Tail, cfg.Domain)
	}

	w.Backend = backend.New(w.Registry, w.Clock, w.Market, geo.VantagePoints(), w.Store)
	d, durable := w.Store.(*store.Durable)
	var epoch uint64 // the events epoch: rows retention has pruned to date
	if durable {
		epoch = d.Stats().PrunedRows
	}
	w.Analysis = aggregate.New(w.Store, w.Market, aggregate.Options{Log: events.NewLog(epoch)})
	if durable {
		// Retention prunes whole time buckets out of the store; the engine
		// restarts over the survivors under the new epoch, as a process
		// reopening the pruned directory would.
		d.SetPruneHook(w.Analysis.Restart)
	}
	return w
}

// addRetailer builds, registers and (for named retailers) failure-wraps a
// storefront.
func (w *World) addRetailer(cfg shop.Config, flaky bool) {
	r := shop.New(cfg, w.Market)
	w.Retailers[cfg.Domain] = r
	var h http.Handler = shop.NewServer(r, w.GeoDB)
	if flaky && len(w.Opts.Configs) == 0 {
		h = &flakyHandler{inner: h, seed: w.Opts.Seed}
	}
	w.Registry.Register(cfg.Domain, h)
}

// DomainCount returns the number of registered domains (the paper's
// "600 domains" denominator).
func (w *World) DomainCount() int {
	return len(w.Interesting) + len(w.Tail)
}

// flakyHandler injects deterministic 503s: real sites time out, rate-limit
// and break; the paper's 206K-attempt crawl yielded 188K prices. The
// decision hashes (request URL, client IP, simulated day) so retries on a
// later day succeed, like real transient failures.
type flakyHandler struct {
	inner http.Handler
	seed  int64
}

// ServeHTTP implements http.Handler.
func (f *flakyHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	day := req.Header.Get(netsim.HeaderSimTime)
	if len(day) >= 10 {
		day = day[:10]
	}
	if f.hash01(req.Host, req.URL.Path, req.Header.Get(netsim.HeaderClientIP), day) < fetchFailureRate {
		http.Error(rw, "service unavailable", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(rw, req)
}

// FNV-1a's 64-bit parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash01 maps the key fields, joined by '|', to [0,1) deterministically
// under the world seed: FNV-1a over the seed's eight little-endian bytes
// and the joined key, written field by field, then a splitmix64-style
// finalizer.
func (f *flakyHandler) hash01(fields ...string) float64 {
	v := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		v = (v ^ uint64(byte(f.seed>>(8*i)))) * fnvPrime64
	}
	for i, s := range fields {
		if i > 0 {
			v = (v ^ '|') * fnvPrime64
		}
		for j := 0; j < len(s); j++ {
			v = (v ^ uint64(s[j])) * fnvPrime64
		}
	}
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return float64(v>>11) / float64(1<<53)
}
