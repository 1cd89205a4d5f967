// Package crowd simulates the $heriff user base of Sec. 3.2: 340 users in
// 18 countries issuing 1500 price-check requests across ~600 domains over
// the January–May 2013 beta period.
//
// Each simulated user browses a storefront, "sees" the product's price the
// way a human does (the display price their locale is served), highlights
// it, and submits a check to the backend. Domain popularity is skewed:
// well-known retailers absorb most checks (giving Fig. 1 its head), while
// a long tail of obscure shops receives one or two checks each (giving the
// 600-domain spread).
package crowd

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"sheriff/internal/backend"
	"sheriff/internal/geo"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
)

// User is one crowd participant.
type User struct {
	// ID is the stable user tag in the dataset.
	ID string
	// Location is where the user's IP geo-locates.
	Location geo.Location
	// Addr is the user's egress IP.
	Addr netip.Addr
	// Browser is the user's fingerprint.
	Browser geo.BrowserProfile
}

// Options configures a crowd campaign.
type Options struct {
	// Seed drives all sampling.
	Seed int64
	// Users is the crowd size (the paper's 340).
	Users int
	// Requests is the number of checks to issue (the paper's 1500).
	Requests int
	// Span is the simulated campaign duration (the paper's ~4 months).
	Span time.Duration
	// InterestingShare is the fraction of requests aimed at the weighted
	// popular domains; the rest spread across the long tail. Default 0.45.
	InterestingShare float64
}

// Report summarizes a finished campaign.
type Report struct {
	// Requests issued, and how many returned successfully.
	Requests, Succeeded, Failed int
	// Variations is the number of checks whose variation survived the
	// currency filter.
	Variations int
	// DistinctDomains checked at least once.
	DistinctDomains int
	// ActiveUsers issued at least one check.
	ActiveUsers int
	// Countries with at least one active user.
	Countries int
}

// Simulator drives a crowd campaign against a backend.
type Simulator struct {
	rng         *rand.Rand
	backend     *backend.Backend
	clock       *netsim.Clock
	retailers   map[string]*shop.Retailer
	interesting []string // popular domains, most popular first
	tail        []string // obscure domains, round-robin coverage
	users       []User
	opts        Options
}

// New builds a simulator. retailers must contain every domain in
// interesting and tail — the user's "eyes" need the ground-truth display
// price to produce the highlight string.
func New(b *backend.Backend, clk *netsim.Clock, retailers map[string]*shop.Retailer, interesting, tail []string, opts Options) (*Simulator, error) {
	if opts.Users <= 0 {
		opts.Users = 340
	}
	if opts.Requests <= 0 {
		opts.Requests = 1500
	}
	if opts.Span <= 0 {
		opts.Span = 115 * 24 * time.Hour
	}
	if opts.InterestingShare <= 0 || opts.InterestingShare >= 1 {
		opts.InterestingShare = 0.45
	}
	for _, d := range append(append([]string{}, interesting...), tail...) {
		if _, ok := retailers[d]; !ok {
			return nil, fmt.Errorf("crowd: domain %s has no retailer ground truth", d)
		}
	}
	s := &Simulator{
		rng:         rand.New(rand.NewSource(opts.Seed)),
		backend:     b,
		clock:       clk,
		retailers:   retailers,
		interesting: interesting,
		tail:        tail,
		opts:        opts,
	}
	s.users = makeUsers(s.rng, opts.Users)
	return s, nil
}

// browserPool is the distribution of crowd browser fingerprints.
var browserPool = []geo.BrowserProfile{
	{OS: "Windows", Browser: "Chrome"},
	{OS: "Windows", Browser: "Firefox"},
	{OS: "Linux", Browser: "Firefox"},
	{OS: "Macintosh", Browser: "Safari"},
	{OS: "Macintosh", Browser: "Chrome"},
}

// makeUsers generates n crowd users off the given rng, spread over all
// 18 countries and denser in the first few (US and Western Europe
// dominated the real beta); the campaign simulator and the load harness
// share one user model.
func makeUsers(rng *rand.Rand, n int) []User {
	var users []User
	hostByBlock := map[string]int{}
	countries := geo.AllCountries
	for i := 0; i < n; i++ {
		// Rank-weighted country pick: country k gets weight 1/(k+1).
		k := zipfIndex(rng, len(countries))
		c := countries[k]
		cities := geo.Cities(c)
		city := cities[rng.Intn(len(cities))]
		loc := geo.Location{Country: c, City: city}
		blockKey := c.Code + "/" + city
		hostByBlock[blockKey]++
		host := 100 + (hostByBlock[blockKey] % 150)
		addr, err := geo.AddrFor(loc, host)
		if err != nil {
			continue // city table and host range are static; never happens
		}
		users = append(users, User{
			ID:       fmt.Sprintf("u%03d", i+1),
			Location: loc,
			Addr:     addr,
			Browser:  browserPool[rng.Intn(len(browserPool))],
		})
	}
	return users
}

// zipfIndex samples 0..n-1 with weight 1/(i+1) — a discrete Zipf — off
// the given rng.
func zipfIndex(rng *rand.Rand, n int) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

// Users returns the generated crowd.
func (s *Simulator) Users() []User {
	out := make([]User, len(s.users))
	copy(out, s.users)
	return out
}

// Run issues the campaign's checks, advancing the simulated clock evenly
// across the span, and returns the summary report.
func (s *Simulator) Run() (*Report, error) {
	rep := &Report{}
	step := s.opts.Span / time.Duration(s.opts.Requests)
	domainsSeen := map[string]bool{}
	usersSeen := map[string]bool{}
	countriesSeen := map[string]bool{}
	tailCursor := 0

	for i := 0; i < s.opts.Requests; i++ {
		user := s.users[zipfIndex(s.rng, len(s.users))]
		domain := pickDomain(s.rng, s.interesting, s.tail, s.opts.InterestingShare, &tailCursor)
		rep.Requests++
		req, err := buildCheck(s.rng, user, s.retailers[domain], domain, s.clock)
		var res backend.CheckResult
		if err == nil {
			res, err = s.backend.Check(req)
		}
		if err != nil {
			rep.Failed++
		} else {
			rep.Succeeded++
			if res.Varies {
				rep.Variations++
			}
		}
		domainsSeen[domain] = true
		usersSeen[user.ID] = true
		countriesSeen[user.Location.Country.Code] = true
		s.clock.Advance(step)
	}
	rep.DistinctDomains = len(domainsSeen)
	rep.ActiveUsers = len(usersSeen)
	rep.Countries = len(countriesSeen)
	return rep, nil
}
