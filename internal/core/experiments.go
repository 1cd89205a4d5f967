package core

import (
	"fmt"
	"time"

	"sheriff/internal/backend"
	"sheriff/internal/browser"
	"sheriff/internal/crawler"
	"sheriff/internal/crowd"
	"sheriff/internal/extract"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/shop"
	"sheriff/internal/store"
	"sheriff/internal/thirdparty"
)

// CrowdOptions configures the crowd campaign; zero values take the paper's
// numbers (340 users, 1500 requests, ~4 months).
type CrowdOptions struct {
	Users    int
	Requests int
	Span     time.Duration
}

// RunCrowd executes the crowd beta campaign and returns its report. The
// backend learns one anchor per domain touched — the input the systematic
// crawl depends on.
func (w *World) RunCrowd(opts CrowdOptions) (*crowd.Report, error) {
	sim, err := crowd.New(w.Backend, w.Clock, w.Retailers, w.Interesting, w.Tail, crowd.Options{
		Seed:     w.Opts.Seed + 101,
		Users:    opts.Users,
		Requests: opts.Requests,
		Span:     opts.Span,
	})
	if err != nil {
		return nil, fmt.Errorf("core: crowd setup: %w", err)
	}
	return sim.Run()
}

// RunLoad drives the crowd-load harness against this world's backend:
// opts.Users concurrent simulated users hammering Backend.Check in
// synchronized rounds, reporting checks/sec and latency percentiles. See
// crowd.RunLoad for the clock and synchronization contract.
func (w *World) RunLoad(opts crowd.LoadOptions) (*crowd.LoadReport, error) {
	if opts.Seed == 0 {
		opts.Seed = w.Opts.Seed + 211
	}
	return crowd.RunLoad(w.Backend.Check, w.Clock, w.Retailers, w.Interesting, w.Tail, opts)
}

// CrawlOptions configures the systematic crawl; zero values take the
// paper's numbers (all 21 domains, 100 products, 7 daily rounds).
type CrawlOptions struct {
	Domains        []string
	MaxProducts    int
	Rounds         int
	Unsynchronized bool
}

// RunCrawl executes the systematic crawl using the anchors the crowd
// campaign learned.
func (w *World) RunCrawl(opts CrawlOptions) (*crawler.Report, error) {
	domains := opts.Domains
	if len(domains) == 0 {
		domains = w.Crawled
	}
	if opts.MaxProducts == 0 {
		opts.MaxProducts = 100
	}
	if opts.Rounds == 0 {
		opts.Rounds = 7
	}
	c := crawler.New(w.Registry, w.Clock, geo.VantagePoints(), w.Store, w.Backend.Anchors())
	return c.Run(crawler.Plan{
		Domains:        domains,
		MaxProducts:    opts.MaxProducts,
		Rounds:         opts.Rounds,
		Unsynchronized: opts.Unsynchronized,
	})
}

// EnsureAnchors learns an anchor for every listed domain by simulating one
// $heriff check against it (used when a crawl must run without a full
// crowd campaign, e.g. in focused experiments and benchmarks).
func (w *World) EnsureAnchors(domains []string) error {
	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		return err
	}
	addr, err := geo.AddrFor(loc, 99)
	if err != nil {
		return err
	}
	for _, domain := range domains {
		if _, ok := w.Backend.Anchor(domain); ok {
			continue
		}
		r, ok := w.Retailers[domain]
		if !ok {
			return fmt.Errorf("core: no retailer for %s", domain)
		}
		// Retry a few products: the flaky handler may 503 a specific URL.
		var lastErr error
		for _, p := range r.Catalog().Products()[:min(8, r.Catalog().Len())] {
			amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: w.Clock.Now(), IP: addr.String()})
			_, lastErr = w.Backend.Check(backend.CheckRequest{
				URL:       "http://" + domain + "/product/" + p.SKU,
				Highlight: money.Format(amt, amt.Currency.Style()),
				UserAddr:  addr,
				UserID:    "anchor-bot",
			})
			if lastErr == nil {
				break
			}
		}
		if lastErr != nil {
			return fmt.Errorf("core: anchor for %s: %w", domain, lastErr)
		}
	}
	return nil
}

// LoginReport summarizes the Kindle login experiment (Fig. 10).
type LoginReport struct {
	// Domain and Products identify the experiment scope.
	Domain   string
	Products int
	// Accounts lists the logged-in identities compared against anonymous.
	Accounts []string
}

// RunLoginExperiment reproduces Fig. 10: fetch the same ebook products
// from the same vantage point at the same simulated instant, once
// anonymously and once per account, extracting prices with a single
// anchor learned from the anonymous page.
func (w *World) RunLoginExperiment(domain string, products int, accounts []string) (*LoginReport, error) {
	r, ok := w.Retailers[domain]
	if !ok {
		return nil, fmt.Errorf("core: unknown domain %s", domain)
	}
	vp, ok := geo.VantagePointByID("us-nyc")
	if !ok {
		return nil, fmt.Errorf("core: vantage point us-nyc missing")
	}
	// Select fetchable ebooks: the experimenters picked products they
	// could actually reach (transient 503s are deterministic within a
	// simulated day, so a successful probe guarantees the per-account
	// fetches below succeed too).
	probe := browser.New(w.Registry, w.Clock, vp.Addr, vp.Browser)
	var ebooks []shop.Product
	for _, p := range r.Catalog().Products() {
		if p.Category != shop.CatEbooks {
			continue
		}
		if _, err := probe.Get("http://" + domain + "/product/" + p.SKU); err != nil {
			continue
		}
		ebooks = append(ebooks, p)
		if len(ebooks) == products {
			break
		}
	}
	if len(ebooks) == 0 {
		return nil, fmt.Errorf("core: %s sells no (reachable) ebooks", domain)
	}

	// Learn the anchor from the anonymous rendering of the first product.
	anchor, err := w.learnAnchor(r, ebooks[0], vp)
	if err != nil {
		return nil, err
	}

	states := append([]string{""}, accounts...)
	for _, account := range states {
		b := browser.New(w.Registry, w.Clock, vp.Addr, vp.Browser)
		if account != "" {
			if _, err := b.Get("http://" + domain + "/login?user=" + account); err != nil {
				return nil, fmt.Errorf("core: login %s: %w", account, err)
			}
		}
		// One batch append per account state: the series shares a domain,
		// so it lands under a single shard lock.
		obs := make([]store.Observation, 0, len(ebooks))
		for _, p := range ebooks {
			obs = append(obs, w.observeLogin(b, r, p, vp, anchor, account))
		}
		w.Store.AddAll(obs)
	}
	return &LoginReport{Domain: domain, Products: len(ebooks), Accounts: accounts}, nil
}

// observeLogin fetches one product under one account state and returns
// the observation.
func (w *World) observeLogin(b *browser.Browser, r *shop.Retailer, p shop.Product, vp geo.VantagePoint, anchor extract.Parsed, account string) store.Observation {
	o := store.Observation{
		Domain: r.Domain(), SKU: p.SKU,
		URL:  "http://" + r.Domain() + "/product/" + p.SKU,
		Time: w.Clock.Now(), Round: -1, Source: store.SourceLogin,
		Account: account,
	}
	page, err := b.Get(o.URL)
	backend.Measure(&o, vp, page, err, anchor)
	return o
}

// learnAnchor derives an extraction anchor from a product page rendered
// for a vantage point, using the ground-truth display price as the
// highlight (the experimenter's eyes). The anchor comes back parsed, for
// the loop that applies it to every account state's pages.
func (w *World) learnAnchor(r *shop.Retailer, p shop.Product, vp geo.VantagePoint) (extract.Parsed, error) {
	if a, ok := w.Backend.Anchor(r.Domain()); ok {
		return a.Parse(), nil
	}
	visit := shop.Visit{Loc: vp.Location, Time: w.Clock.Now(), IP: vp.Addr.String()}
	page := r.RenderProduct(p, visit)
	doc, err := htmlx.ParseString(page)
	if err != nil {
		return extract.Parsed{}, err
	}
	amt := r.DisplayPrice(p, visit)
	a, err := extract.Derive(doc, money.Format(amt, amt.Currency.Style()), vp.Location.Country.Currency)
	if err != nil {
		return extract.Parsed{}, err
	}
	return a.Parse(), nil
}

// PersonaReport summarizes the affluent-vs-budget experiment: how many
// product prices differed between the two personas at fixed location and
// time. The paper found zero.
type PersonaReport struct {
	// DomainsTested and ProductsCompared give the scope.
	DomainsTested    int
	ProductsCompared int
	// Differing counts products priced differently across personas.
	Differing int
}

// RunPersonaExperiment trains an affluent and a budget persona, then
// compares prices for the first `products` products of each domain at a
// fixed vantage point and instant.
func (w *World) RunPersonaExperiment(domains []string, products int) (*PersonaReport, error) {
	vp, ok := geo.VantagePointByID("us-bos")
	if !ok {
		return nil, fmt.Errorf("core: vantage point us-bos missing")
	}
	// Training corpora: luxury vs discount long-tail sites.
	var luxury, discount []string
	for i, d := range w.Tail {
		if i%2 == 0 && len(luxury) < 3 {
			luxury = append(luxury, d)
		} else if len(discount) < 3 {
			discount = append(discount, d)
		}
	}
	rep := &PersonaReport{}
	for _, domain := range domains {
		r, ok := w.Retailers[domain]
		if !ok {
			return nil, fmt.Errorf("core: unknown domain %s", domain)
		}
		rep.DomainsTested++

		affluent := browser.New(w.Registry, w.Clock, vp.Addr, vp.Browser)
		if err := browser.AffluentPersona(luxury).Train(affluent, domain); err != nil {
			return nil, fmt.Errorf("core: affluent training: %w", err)
		}
		budget := browser.New(w.Registry, w.Clock, vp.Addr, vp.Browser)
		if err := browser.BudgetPersona(discount).Train(budget, domain); err != nil {
			return nil, fmt.Errorf("core: budget training: %w", err)
		}

		ps := r.Catalog().Products()
		if len(ps) > products {
			ps = ps[:products]
		}
		known, _ := w.Backend.Anchor(domain) // none: heuristic layers only
		anchor := known.Parse()
		for _, p := range ps {
			url := "http://" + domain + "/product/" + p.SKU
			pageA, errA := affluent.Get(url)
			pageB, errB := budget.Get(url)
			if errA != nil || errB != nil {
				continue // a flaky 503 is not a persona effect
			}
			rep.ProductsCompared++
			row := func(page, segment string) store.Observation {
				o := store.Observation{
					Domain: domain, SKU: p.SKU, URL: url,
					Time: w.Clock.Now(), Round: -1, Source: store.SourcePersona,
					Segment: segment,
				}
				backend.Measure(&o, vp, page, nil, anchor)
				return o
			}
			a, b := row(pageA, "affluent"), row(pageB, "budget")
			if !a.OK || !b.OK {
				continue // a rendering without a readable price compares nothing
			}
			if a.PriceUnits != b.PriceUnits || a.Currency != b.Currency {
				rep.Differing++
			}
			w.Store.AddAll([]store.Observation{a, b})
		}
	}
	return rep, nil
}

// SegmentFinding is one retailer's verdict from the segment detector.
type SegmentFinding struct {
	// Domain tested.
	Domain string
	// ProductsCompared is how many products were priced under both
	// personas.
	ProductsCompared int
	// Differing counts persona-dependent prices.
	Differing int
	// Flagged is true when the retailer prices by browsing history.
	Flagged bool
}

// RunSegmentDetector sweeps domains for browsing-history price
// discrimination: for each domain it runs the affluent-vs-budget persona
// comparison in isolation and flags retailers where personas see
// different prices. This is the detection side of the paper's future work
// ("attribute the observed prices with the personal information of a
// user", Sec. 6); validate it against a world built with
// SegmentPricingDomain set.
func (w *World) RunSegmentDetector(domains []string, products int) ([]SegmentFinding, error) {
	var out []SegmentFinding
	for _, domain := range domains {
		rep, err := w.RunPersonaExperiment([]string{domain}, products)
		if err != nil {
			return nil, fmt.Errorf("core: segment detector on %s: %w", domain, err)
		}
		out = append(out, SegmentFinding{
			Domain:           domain,
			ProductsCompared: rep.ProductsCompared,
			Differing:        rep.Differing,
			Flagged:          rep.Differing > 0,
		})
	}
	return out, nil
}

// ThirdPartyAudit fetches one product page per crawled domain and reports
// tracker presence fractions (Sec. 4.4).
func (w *World) ThirdPartyAudit() (map[string]float64, error) {
	vp, ok := geo.VantagePointByID("us-nyc")
	if !ok {
		return nil, fmt.Errorf("core: vantage point us-nyc missing")
	}
	pages := map[string]*htmlx.Node{}
	for _, domain := range w.Crawled {
		r := w.Retailers[domain]
		// Render directly: tracker embeds are static per retailer, and a
		// flaky 503 should not distort an audit of page content.
		p := r.Catalog().Products()[0]
		page := r.RenderProduct(p, shop.Visit{Loc: vp.Location, Time: w.Clock.Now(), IP: vp.Addr.String()})
		doc, err := htmlx.ParseString(page)
		if err != nil {
			return nil, fmt.Errorf("core: audit %s: %w", domain, err)
		}
		pages[domain] = doc
	}
	return thirdparty.Presence(pages), nil
}
