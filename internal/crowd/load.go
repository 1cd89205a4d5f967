package crowd

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sheriff/internal/backend"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
)

// This file is the crowd-load harness: where crowd.Simulator reproduces
// the paper's beta faithfully (sequential checks, clock stepped between
// each), the load harness asks the scaling question the ROADMAP's
// "millions of users" north star implies — how many concurrent crowd
// checks per second does the backend absorb, and at what latency?
//
// The harness keeps the paper's measurement semantics: checks are issued
// in synchronized rounds, every check in a round sharing one simulated
// instant (so the backend's 14-VP fan-out stays temporally clean and its
// single-flight page cache can dedupe across users), and the clock only
// advances at round barriers with no checks in flight.

// CheckFunc issues one $heriff check. The in-process form is
// Backend.Check; examples/loadgen supplies an HTTP form that POSTs
// /api/v1/checks on a live sheriffd.
type CheckFunc func(backend.CheckRequest) (backend.CheckResult, error)

// LoadOptions configures a load run; zero values take defaults.
type LoadOptions struct {
	// Seed drives user generation and per-user browsing choices.
	Seed int64
	// Users is how many simulated users issue checks concurrently —
	// one goroutine each (default 16).
	Users int
	// Requests is the total number of checks across all users and
	// rounds (default 20 per user).
	Requests int
	// Rounds is how many synchronized waves the requests split into
	// (default 4). All checks within a round run at one simulated
	// instant; the clock advances RoundStep at each barrier.
	Rounds int
	// RoundStep is the simulated time between rounds (default 24h —
	// one crawl day).
	RoundStep time.Duration
	// InterestingShare is the fraction of checks aimed at the weighted
	// popular domains (default 0.45, as in the campaign simulator).
	InterestingShare float64
	// Freeze keeps simulated time untouched at round barriers. Required
	// when driving a remote sheriffd: the harness cannot advance the
	// server's clock, so its local twin clock — used to render the
	// highlights users "see" — must stay aligned at the shared origin.
	Freeze bool
}

// LoadReport is the harness result: throughput and latency of the check
// path under concurrent crowd load.
type LoadReport struct {
	// Requests issued; Succeeded/Failed split them.
	Requests, Succeeded, Failed int
	// Variations counts checks whose variation survived the currency
	// filter.
	Variations int
	// Users is the concurrency level; Rounds the synchronized waves.
	Users, Rounds int
	// DistinctDomains checked at least once.
	DistinctDomains int
	// Elapsed is wall-clock time across all rounds (barriers included)
	// and ChecksPerSec the resulting throughput.
	Elapsed      time.Duration
	ChecksPerSec float64
	// P50/P90/P99/Max summarize per-check wall latency.
	P50, P90, P99, Max time.Duration
}

// String renders the report the way cmd/experiments -load prints it.
func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"load: %d checks by %d concurrent users over %d rounds in %v\n"+
			"      %.1f checks/sec, %d ok / %d failed, %d with variation, %d domains\n"+
			"      latency p50 %v  p90 %v  p99 %v  max %v",
		r.Requests, r.Users, r.Rounds, r.Elapsed.Round(time.Millisecond),
		r.ChecksPerSec, r.Succeeded, r.Failed, r.Variations, r.DistinctDomains,
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
}

// RunLoad drives a concurrent crowd-load run against check. clk is the
// simulated clock of the world the checks land in: the world's own clock
// in-process, or (with opts.Freeze) a same-seed twin of a remote
// sheriffd's world. retailers must cover interesting and tail — the
// users' "eyes" read ground-truth display prices to produce highlights,
// exactly like the campaign simulator.
func RunLoad(check CheckFunc, clk *netsim.Clock, retailers map[string]*shop.Retailer, interesting, tail []string, opts LoadOptions) (*LoadReport, error) {
	if check == nil {
		return nil, fmt.Errorf("crowd: load needs a CheckFunc")
	}
	if clk == nil {
		return nil, fmt.Errorf("crowd: load needs the target world's clock (a same-seed twin for remote targets)")
	}
	if opts.Users <= 0 {
		opts.Users = 16
	}
	if opts.Requests <= 0 {
		opts.Requests = 20 * opts.Users
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 4
	}
	if opts.RoundStep <= 0 {
		opts.RoundStep = 24 * time.Hour
	}
	// 1.0 is legal here (all load on the popular head — the hottest-cache
	// shape); only unset/nonsense values fall back to the campaign default.
	if opts.InterestingShare <= 0 || opts.InterestingShare > 1 {
		opts.InterestingShare = 0.45
	}
	if len(interesting) == 0 && len(tail) == 0 {
		return nil, fmt.Errorf("crowd: load needs at least one domain")
	}
	for _, d := range append(append([]string{}, interesting...), tail...) {
		if _, ok := retailers[d]; !ok {
			return nil, fmt.Errorf("crowd: domain %s has no retailer ground truth", d)
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	users := makeUsers(rng, opts.Users)
	if len(users) == 0 {
		return nil, fmt.Errorf("crowd: no users generated")
	}

	// Spread the request budget over (user, round) cells round-robin, so
	// every round keeps all users busy and the totals come out exact.
	quota := make([][]int, len(users)) // [user][round] -> checks
	for u := range quota {
		quota[u] = make([]int, opts.Rounds)
	}
	for i := 0; i < opts.Requests; i++ {
		quota[i%len(users)][(i/len(users))%opts.Rounds]++
	}

	type userState struct {
		rng        *rand.Rand
		latencies  []time.Duration
		domains    map[string]bool
		succeeded  int
		failed     int
		variations int
	}
	states := make([]*userState, len(users))
	for u := range states {
		states[u] = &userState{
			rng:     rand.New(rand.NewSource(opts.Seed + 7919*int64(u+1))),
			domains: map[string]bool{},
		}
	}

	begin := time.Now()
	for round := 0; round < opts.Rounds; round++ {
		var wg sync.WaitGroup
		for u := range users {
			if quota[u][round] == 0 {
				continue
			}
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				st := states[u]
				tailCursor := u
				for i := 0; i < quota[u][round]; i++ {
					domain := pickDomain(st.rng, interesting, tail, opts.InterestingShare, &tailCursor)
					st.domains[domain] = true
					req, err := buildCheck(st.rng, users[u], retailers[domain], domain, clk)
					if err != nil {
						st.failed++
						continue
					}
					t0 := time.Now()
					res, err := check(req)
					st.latencies = append(st.latencies, time.Since(t0))
					if err != nil {
						st.failed++
						continue
					}
					st.succeeded++
					if res.Varies {
						st.variations++
					}
				}
			}(u)
		}
		// Round barrier: only here, with no checks in flight, may
		// simulated time move — the backend's clock contract.
		wg.Wait()
		if !opts.Freeze && round < opts.Rounds-1 {
			clk.Advance(opts.RoundStep)
		}
	}
	elapsed := time.Since(begin)

	rep := &LoadReport{
		Requests: opts.Requests, Users: len(users), Rounds: opts.Rounds,
		Elapsed: elapsed,
	}
	domains := map[string]bool{}
	var lats []time.Duration
	for _, st := range states {
		rep.Succeeded += st.succeeded
		rep.Failed += st.failed
		rep.Variations += st.variations
		lats = append(lats, st.latencies...)
		for d := range st.domains {
			domains[d] = true
		}
	}
	rep.DistinctDomains = len(domains)
	if elapsed > 0 {
		rep.ChecksPerSec = float64(rep.Requests) / elapsed.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		rep.P50 = lats[n/2]
		rep.P90 = lats[min(n-1, n*90/100)]
		rep.P99 = lats[min(n-1, n*99/100)]
		rep.Max = lats[n-1]
	}
	return rep, nil
}

// pickDomain draws the crowd's traffic shape, for the campaign simulator
// and the load harness alike: a zipf head over the popular domains,
// round-robin-with-jitter over the tail.
func pickDomain(rng *rand.Rand, interesting, tail []string, share float64, tailCursor *int) string {
	if rng.Float64() < share && len(interesting) > 0 {
		return interesting[zipfIndex(rng, len(interesting))]
	}
	if len(tail) > 0 {
		d := tail[*tailCursor%len(tail)]
		*tailCursor += 1 + rng.Intn(2)
		return d
	}
	return interesting[zipfIndex(rng, len(interesting))]
}

// buildCheck performs the human step of one check — browse to a product
// with a visible price, read the display price the user's own locale and
// browser are served, highlight it — and returns the request the user's
// extension would submit. A mostly-hidden catalog eventually yields a
// hidden price and so a failed check, as a frustrated user's bogus
// highlight would.
func buildCheck(rng *rand.Rand, user User, r *shop.Retailer, domain string, clk *netsim.Clock) (backend.CheckRequest, error) {
	ps := r.Catalog().Products()
	if len(ps) == 0 {
		return backend.CheckRequest{}, fmt.Errorf("crowd: %s has an empty catalog", domain)
	}
	p := ps[rng.Intn(len(ps))]
	visit := shop.Visit{
		Loc: user.Location, Time: clk.Now(), IP: user.Addr.String(),
		Browser: user.Browser,
	}
	for tries := 0; !r.PriceDisclosed(p, visit) && tries < 8; tries++ {
		p = ps[rng.Intn(len(ps))]
	}
	amt := r.DisplayPrice(p, visit)
	return backend.CheckRequest{
		URL:       "http://" + domain + "/product/" + p.SKU,
		Highlight: money.Format(amt, amt.Currency.Style()),
		UserAddr:  user.Addr,
		UserID:    user.ID,
		UserAgent: user.Browser.UserAgent(),
	}, nil
}
