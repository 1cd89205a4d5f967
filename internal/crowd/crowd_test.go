package crowd

import (
	"testing"
	"time"

	"sheriff/internal/backend"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// crowdWorld wires a small fabric with 3 interesting + 6 tail domains.
type crowdWorld struct {
	sim *Simulator
	st  *store.Store
	clk *netsim.Clock
}

func newCrowdWorld(t *testing.T, opts Options) *crowdWorld {
	t.Helper()
	market := fx.NewMarket(1)
	geodb := geo.NewDB()
	reg := netsim.NewRegistry()
	clk := netsim.NewClock(time.Date(2013, 1, 10, 0, 0, 0, 0, time.UTC))
	st := store.New()

	retailers := map[string]*shop.Retailer{}
	var interesting, tail []string

	mk := func(cfg shop.Config) {
		r := shop.New(cfg, market)
		retailers[cfg.Domain] = r
		reg.Register(cfg.Domain, shop.NewServer(r, geodb))
	}
	for i, cfg := range []shop.Config{
		{Domain: "big1.example.com", Label: "Big 1", Seed: 41,
			Categories: []shop.Category{shop.CatClothing}, ProductCount: 15,
			PriceLo: 20, PriceHi: 200, Template: "classic", Localize: true,
			VariedFraction: 1, CountryFactor: map[string]float64{"FI": 1.3, "DE": 1.1, "GB": 1.1}},
		{Domain: "big2.example.com", Label: "Big 2", Seed: 42,
			Categories: []shop.Category{shop.CatBooks}, ProductCount: 15,
			PriceLo: 5, PriceHi: 60, Template: "modern", Localize: true,
			VariedFraction: 1, CountryFactor: map[string]float64{"FI": 1.2}},
		{Domain: "big3.example.com", Label: "Big 3", Seed: 43,
			Categories: []shop.Category{shop.CatShoes}, ProductCount: 15,
			PriceLo: 30, PriceHi: 150, Template: "table", Localize: false,
			VariedFraction: 0},
	} {
		mk(cfg)
		interesting = append(interesting, cfg.Domain)
		_ = i
	}
	for _, cfg := range shop.LongTailConfigs(44, 6) {
		mk(cfg)
		tail = append(tail, cfg.Domain)
	}

	b := backend.New(reg, clk, market, geo.VantagePoints(), st)
	sim, err := New(b, clk, retailers, interesting, tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &crowdWorld{sim: sim, st: st, clk: clk}
}

func TestUsersSpreadAcrossCountries(t *testing.T) {
	w := newCrowdWorld(t, Options{Seed: 7, Users: 340, Requests: 10, Span: time.Hour})
	users := w.sim.Users()
	if len(users) != 340 {
		t.Fatalf("users = %d", len(users))
	}
	countries := map[string]int{}
	for _, u := range users {
		countries[u.Location.Country.Code]++
		if !u.Addr.IsValid() {
			t.Fatalf("user %s has invalid addr", u.ID)
		}
	}
	if len(countries) < 12 {
		t.Fatalf("crowd spans %d countries, want most of 18", len(countries))
	}
	if countries["US"] < countries["AU"] {
		t.Fatal("country weighting inverted: US should dominate AU")
	}
}

func TestRunCampaign(t *testing.T) {
	w := newCrowdWorld(t, Options{Seed: 8, Users: 40, Requests: 60, Span: 30 * 24 * time.Hour})
	start := w.clk.Now()
	rep, err := w.sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 60 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if rep.Failed > 0 {
		t.Fatalf("failed checks = %d (fabric is loss-free)", rep.Failed)
	}
	if rep.Variations == 0 {
		t.Fatal("no variations found despite varying retailers")
	}
	if rep.DistinctDomains < 5 {
		t.Fatalf("distinct domains = %d", rep.DistinctDomains)
	}
	if got := w.clk.Now().Sub(start); got != 30*24*time.Hour {
		t.Fatalf("campaign advanced clock by %v", got)
	}
	// 14 observations per check.
	if w.st.Len() != 60*14 {
		t.Fatalf("observations = %d, want %d", w.st.Len(), 60*14)
	}
}

func TestCampaignSkewTowardPopularDomains(t *testing.T) {
	w := newCrowdWorld(t, Options{Seed: 9, Users: 40, Requests: 120, Span: time.Hour * 100, InterestingShare: 0.5})
	if _, err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	perDomain := map[string]int{}
	for _, o := range w.st.Filter(store.Query{Round: -1}) {
		perDomain[o.Domain]++
	}
	if perDomain["big1.example.com"] <= perDomain["www.bluemart000.com"] {
		t.Fatalf("popularity skew missing: big1=%d tail=%d",
			perDomain["big1.example.com"]/14, perDomain["www.bluemart000.com"]/14)
	}
}

func TestTailCoverage(t *testing.T) {
	w := newCrowdWorld(t, Options{Seed: 10, Users: 20, Requests: 40, Span: time.Hour, InterestingShare: 0.3})
	if _, err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	tailSeen := 0
	for _, d := range w.st.Domains() {
		if len(d) > 4 && d[:4] == "www." {
			tailSeen++
		}
	}
	if tailSeen < 4 {
		t.Fatalf("tail domains seen = %d of 6", tailSeen)
	}
}

func TestVariationOnlyOnVaryingDomains(t *testing.T) {
	w := newCrowdWorld(t, Options{Seed: 11, Users: 20, Requests: 80, Span: time.Hour * 10, InterestingShare: 0.9})
	if _, err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Recompute variation per check group off the store: big3 (flat) and
	// the long tail must never show real variation.
	market := fx.NewMarket(1)
	for key, obs := range w.st.Groups(store.SourceCrowd) {
		if key.Domain == "big1.example.com" || key.Domain == "big2.example.com" {
			continue
		}
		var quotes []fx.Quote
		for _, o := range obs {
			if !o.OK {
				continue
			}
			if a, ok := o.Amount(); ok {
				quotes = append(quotes, fx.Quote{Amount: a, Day: o.Time})
			}
		}
		if _, real := market.RealVariation(quotes); real {
			t.Fatalf("flat domain %s shows real variation", key.Domain)
		}
	}
}

func TestNewValidatesGroundTruth(t *testing.T) {
	market := fx.NewMarket(1)
	reg := netsim.NewRegistry()
	clk := netsim.NewClock(time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC))
	b := backend.New(reg, clk, market, geo.VantagePoints(), store.New())
	_, err := New(b, clk, map[string]*shop.Retailer{}, []string{"ghost.example.com"}, nil, Options{})
	if err == nil {
		t.Fatal("missing ground truth accepted")
	}
}
