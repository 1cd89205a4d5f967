package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/netip"
	"time"

	"sheriff"
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// Input shape constants. Every failEvery-th check (at offset failEvery/2)
// targets a (URL, user, day) the world's failure injection answers with
// 503, and no other check does, so the non-200 share is fixed by design
// rather than sampled.
const (
	failEvery    = 25
	headShare    = 0.45 // popular domains vs long tail, as in the paper's crowd
	tailProducts = 8    // catalog size of every long-tail domain
	hotProducts  = 48
	hotUsers     = 16
)

// twin is a same-seed copy of sheriffd's world: the users' eyes. Its
// clock stays at the shared origin, because sheriffd's never advances.
type twin struct {
	w   *sheriff.World
	vps []geo.VantagePoint
	now time.Time
}

func newTwin(seed int64, longtail int) *twin {
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: seed, LongTail: longtail})
	return &twin{w: w, vps: geo.VantagePoints(), now: w.Clock.Now()}
}

type user struct {
	id      string
	loc     geo.Location
	addr    netip.Addr
	browser geo.BrowserProfile
}

var browsers = []geo.BrowserProfile{
	{OS: "Windows", Browser: "Chrome"},
	{OS: "Windows", Browser: "Firefox"},
	{OS: "Linux", Browser: "Firefox"},
	{OS: "Macintosh", Browser: "Safari"},
	{OS: "Macintosh", Browser: "Chrome"},
}

// makeUsers spreads n crowd users over every country and city, each with
// its own fabric address and a browser fingerprint.
func makeUsers(rng *rand.Rand, n int) ([]user, error) {
	out := make([]user, 0, n)
	perBlock := map[string]int{}
	for i := 0; i < n; i++ {
		c := geo.AllCountries[rng.Intn(len(geo.AllCountries))]
		cities := geo.Cities(c)
		loc := geo.Location{Country: c, City: cities[rng.Intn(len(cities))]}
		block := c.Code + "/" + loc.City
		perBlock[block]++
		addr, err := geo.AddrFor(loc, 10+perBlock[block]%240)
		if err != nil {
			return nil, fmt.Errorf("user address in %s: %w", block, err)
		}
		out = append(out, user{
			id: fmt.Sprintf("u%04d", i), loc: loc, addr: addr,
			browser: browsers[rng.Intn(len(browsers))],
		})
	}
	return out, nil
}

// product is one catalog entry of the twin world.
type product struct {
	domain string
	r      *shop.Retailer
	p      shop.Product
	head   bool // on a popular (failure-injecting) domain
}

func (p product) url() string { return "http://" + p.domain + "/product/" + p.p.SKU }

func (t *twin) products(domains []string, head bool) []product {
	var out []product
	for _, d := range domains {
		r := t.w.Retailers[d]
		for _, p := range r.Catalog().Products() {
			out = append(out, product{domain: d, r: r, p: p, head: head})
		}
	}
	return out
}

// checkInput is one generated check plus what the twin predicts for it.
type checkInput struct {
	req  sheriff.CheckRequest
	prod product
	// fail: the twin's user-side fetch answers 503, so sheriffd must
	// answer non-200.
	fail bool
}

// buildCheck is the human step: read the display price the user sees
// and highlight it. False when the page hides the price from this user.
func (t *twin) buildCheck(p product, u user) (checkInput, bool) {
	visit := shop.Visit{Loc: u.loc, Time: t.now, IP: u.addr.String(), Browser: u.browser}
	if !p.r.PriceDisclosed(p.p, visit) {
		return checkInput{}, false
	}
	amt := p.r.DisplayPrice(p.p, visit)
	return checkInput{
		req: sheriff.CheckRequest{
			URL:       p.url(),
			Highlight: money.Format(amt, amt.Currency.Style()),
			UserAddr:  u.addr,
			UserID:    u.id,
			UserAgent: u.browser.UserAgent(),
		},
		prod: p,
	}, true
}

// userFetchFails asks the twin's fabric whether the user-side page fetch
// of a check is one the failure injection rejects. Only popular domains
// inject failures.
func (t *twin) userFetchFails(in checkInput) (bool, error) {
	if !in.prod.head {
		return false, nil
	}
	status, err := t.fetchStatus(in.req.URL, in.req.UserAddr, in.req.UserAgent)
	return status == http.StatusServiceUnavailable, err
}

// fetchStatus is the status the twin's fabric answers a page fetch with.
func (t *twin) fetchStatus(url string, from netip.Addr, ua string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("User-Agent", ua)
	resp, err := netsim.NewTransport(t.w.Registry, t.w.Clock, from).RoundTrip(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// wantFail reports whether position i of a check sequence is a failing one.
func wantFail(i int) bool { return i%failEvery == failEvery/2 }

// distinctChecks is the crowd-distinct sequence: every check targets a
// product not checked before in the sequence, headShare of them on the
// popular domains. It ends when the popular catalog runs out.
func (t *twin) distinctChecks(rng *rand.Rand, users []user, max int) ([]checkInput, error) {
	head := t.products(t.w.Interesting, true)
	tail := t.products(t.w.Tail, false)
	rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	var out []checkInput
	for len(out) < max {
		fail := wantFail(len(out))
		var p product
		switch {
		case fail || rng.Float64() < headShare:
			if len(head) == 0 {
				return out, nil
			}
			p, head = head[0], head[1:]
		default:
			if len(tail) == 0 {
				return nil, fmt.Errorf("long tail exhausted after %d checks", len(out))
			}
			p, tail = tail[0], tail[1:]
		}
		// Find a user who sees the price and whose fetch outcome is the
		// one this position wants; give up on the product otherwise.
		for try := 0; try < 64; try++ {
			in, ok := t.buildCheck(p, users[rng.Intn(len(users))])
			if !ok {
				continue
			}
			f, err := t.userFetchFails(in)
			if err != nil {
				return nil, err
			}
			if f == fail {
				in.fail = f
				out = append(out, in)
				break
			}
		}
	}
	return out, nil
}

// hotChecks is the crowd-hot shape: a flash crowd of hotUsers users on
// hotProducts popular products. warm holds every (product, user) pair
// once, which fills sheriffd's page cache; seq cycles over the same pairs.
func (t *twin) hotChecks(rng *rand.Rand, users []user, n int) (warm, seq []checkInput, err error) {
	head := t.products(t.w.Interesting, true)
	rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	var ok, failing []checkInput
	for _, p := range head[:hotProducts] {
		for _, u := range users[:hotUsers] {
			in, disclosed := t.buildCheck(p, u)
			if !disclosed {
				continue
			}
			if in.fail, err = t.userFetchFails(in); err != nil {
				return nil, nil, err
			}
			if in.fail {
				failing = append(failing, in)
			} else {
				ok = append(ok, in)
			}
		}
	}
	if len(ok) == 0 || len(failing) == 0 {
		return nil, nil, fmt.Errorf("hot set has %d passing and %d failing pairs; need both", len(ok), len(failing))
	}
	warm = append(append(warm, ok...), failing...)
	rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	seq = make([]checkInput, n)
	for i := range seq {
		if wantFail(i) {
			seq[i] = failing[rng.Intn(len(failing))]
		} else {
			seq[i] = ok[rng.Intn(len(ok))]
		}
	}
	return warm, seq, nil
}

// vpWant is what the twin predicts for one vantage point of a check.
type vpWant struct {
	fetched   bool         // the VP's page fetch answers 200
	disclosed bool         // the page shows the VP a price
	price     money.Amount // the display price the VP sees
}

// expectedPrices is what each vantage point must report for a product:
// whether its fetch fails, and else the twin's display price for a visitor
// at that vantage point.
func (t *twin) expectedPrices(p product) ([]vpWant, error) {
	out := make([]vpWant, len(t.vps))
	for i, vp := range t.vps {
		loc, ok := t.w.GeoDB.Lookup(vp.Addr)
		if !ok {
			loc = vp.Location
		}
		ua := vp.Browser.UserAgent()
		status, err := t.fetchStatus(p.url(), vp.Addr, ua)
		if err != nil {
			return nil, err
		}
		visit := shop.Visit{Loc: loc, Time: t.now, IP: vp.Addr.String(), Browser: vp.Browser}
		out[i] = vpWant{
			fetched:   status == http.StatusOK,
			disclosed: p.r.PriceDisclosed(p.p, visit),
			price:     p.r.DisplayPrice(p.p, visit),
		}
	}
	return out, nil
}

// writeDataset generates the export workload's data dir through the
// store's write API: rows/14 check-shaped batches spread over several
// simulated days before the world's origin, a compaction at 85% (which
// gzips the cold day buckets) and the rest left as a WAL tail.
func (t *twin) writeDataset(dir string, rng *rand.Rand, users []user, rows int) (int, error) {
	const days = 6
	d, _, err := sheriff.OpenDataDir(dir, sheriff.DurableOptions{Fsync: store.FsyncNever, CompactWALBytes: -1})
	if err != nil {
		return 0, err
	}
	head := t.products(t.w.Interesting, true)
	tail := t.products(t.w.Tail, false)
	batches := rows / len(t.vps)
	span := days * 24 * time.Hour
	written := 0
	for b := 0; b < batches; b++ {
		if b == batches*85/100 {
			if err := d.Compact(); err != nil {
				d.Close()
				return 0, err
			}
		}
		p := tail[rng.Intn(len(tail))]
		if rng.Float64() < headShare {
			p = head[rng.Intn(len(head))]
		}
		u := users[rng.Intn(len(users))]
		at := t.now.Add(-span + time.Duration(b)*span/time.Duration(batches))
		obs := make([]sheriff.Observation, len(t.vps))
		for i, vp := range t.vps {
			o := sheriff.Observation{
				Domain: p.domain, SKU: p.p.SKU, URL: p.url(),
				VP: vp.ID, VPLabel: vp.Label,
				Country: vp.Location.Country.Code, City: vp.Location.City,
				Time: at, Round: -1, Source: store.SourceCrowd,
				UserCountry: u.loc.Country.Code,
			}
			if p.head && rng.Float64() < 0.085 {
				o.Err = fmt.Sprintf("backend: GET %s: status 503", o.URL)
			} else {
				amt := p.r.DisplayPrice(p.p, shop.Visit{Loc: vp.Location, Time: at, IP: vp.Addr.String(), Browser: vp.Browser})
				o.PriceUnits, o.Currency, o.OK = amt.Units, amt.Currency.Code, true
			}
			obs[i] = o
		}
		d.AddAll(obs)
		written += len(obs)
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	return written, nil
}
