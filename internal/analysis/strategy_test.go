package analysis_test

import (
	"testing"
	"time"

	"sheriff/internal/aggregate"
	"sheriff/internal/analysis"
	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/money"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// The detector is judged the way sheriffd serves it: through the
// incremental engine's fold (aggregate.Engine.StrategyReport) over the
// store, not a batch recomputation.

var (
	market = fx.NewMarket(1)
	t0     = time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC)
)

// detect returns the served strategy verdict for a domain of st.
func detect(st *store.Store, domain string) analysis.StrategyReport {
	return aggregate.NewReader(st, market, aggregate.Options{}).StrategyReport(domain)
}

// Real vantage-point IDs: the detector's controls come from the fleet's
// structure (same-fingerprint pairs across locations, the Barcelona trio
// at one location, USD consensus groups), so synthetic data must use them.
//
//	Windows/Chrome:  us-bos us-chi us-lin us-nyc br-sao es-win
//	Linux/Firefox:   be-lie fi-tam de-ber es-lin uk-lon
//	Macintosh/Safari: es-mac us-la
//	Windows/Firefox: us-alb

// crawlObs emits one OK crawl observation.
func crawlObs(st *store.Store, domain, sku, vp string, round int, at time.Time, units int64, cur string) {
	st.AddAll([]store.Observation{{
		Domain: domain, SKU: sku, VP: vp, VPLabel: vp,
		PriceUnits: units, Currency: cur,
		Time: at, Round: round, Source: store.SourceCrawl, OK: true,
	}})
}

// crawlFail emits one failed-extraction crawl observation.
func crawlFail(st *store.Store, domain, sku, vp string, round int, at time.Time) {
	st.AddAll([]store.Observation{{
		Domain: domain, SKU: sku, VP: vp, VPLabel: vp,
		Time: at, Round: round, Source: store.SourceCrawl,
		OK: false, Err: "extract: no price found",
	}})
}

// eurUnits converts USD minor units into the EUR display units a localized
// storefront would show on the given day.
func eurUnits(t *testing.T, usdUnits int64, at time.Time) int64 {
	t.Helper()
	eur, ok := money.ByCode("EUR")
	if !ok {
		t.Fatal("no EUR")
	}
	return market.ConvertRetail(money.FromMinor(usdUnits, money.USD), eur, at).Units
}

func roundTime(r int) time.Time { return t0.Add(time.Duration(r) * 24 * time.Hour) }

func TestDetectGeoPricing(t *testing.T) {
	st := store.New()
	// Brazil persistently 30% dearer than the US at the same fingerprint
	// (us-bos/us-chi/br-sao are all Windows/Chrome); prices in USD.
	for p := 0; p < 5; p++ {
		sku := "G-" + string(rune('A'+p))
		for r := 0; r < 5; r++ {
			at := roundTime(r)
			crawlObs(st, "geo.test", sku, "us-bos", r, at, 10000, "USD")
			crawlObs(st, "geo.test", sku, "us-chi", r, at, 10000, "USD")
			crawlObs(st, "geo.test", sku, "br-sao", r, at, 13000, "USD")
		}
	}
	rep := detect(st, "geo.test")
	if !rep.Flagged(shop.FamilyGeo) {
		t.Fatalf("geo not flagged: %s", rep)
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyFingerprint, shop.FamilyDisclosure, shop.FamilyTemporal} {
		if rep.Flagged(f) {
			t.Errorf("%s falsely flagged: %s", f, rep)
		}
	}
}

func TestDetectFingerprintPricing(t *testing.T) {
	st := store.New()
	// Pure fingerprint shop: Mac/Safari pays 1.07×, Windows/Chrome 1.03×,
	// identical at every location. The Barcelona trio exposes it.
	for p := 0; p < 5; p++ {
		sku := "F-" + string(rune('A'+p))
		for r := 0; r < 5; r++ {
			at := roundTime(r)
			for _, vp := range []string{"us-bos", "us-chi", "us-nyc"} { // Win/Chrome
				crawlObs(st, "fp.test", sku, vp, r, at, 10300, "USD")
			}
			crawlObs(st, "fp.test", sku, "us-la", r, at, 10700, "USD")  // Mac/Safari
			crawlObs(st, "fp.test", sku, "us-alb", r, at, 10000, "USD") // Win/FF
			crawlObs(st, "fp.test", sku, "es-lin", r, at, eurUnits(t, 10000, at), "EUR")
			crawlObs(st, "fp.test", sku, "es-mac", r, at, eurUnits(t, 10700, at), "EUR")
			crawlObs(st, "fp.test", sku, "es-win", r, at, eurUnits(t, 10300, at), "EUR")
		}
	}
	rep := detect(st, "fp.test")
	if !rep.Flagged(shop.FamilyFingerprint) {
		t.Fatalf("fingerprint not flagged: %s", rep)
	}
	if rep.Flagged(shop.FamilyGeo) {
		t.Errorf("geo falsely flagged on a fingerprint-only shop: %s", rep)
	}
	if rep.Flagged(shop.FamilyTemporal) {
		t.Errorf("temporal falsely flagged: %s", rep)
	}
}

func TestDetectSelectiveDisclosure(t *testing.T) {
	st := store.New()
	for p := 0; p < 6; p++ {
		sku := "D-" + string(rune('A'+p))
		hidden := p < 4 // 4 of 6 products withheld from one vantage point
		for r := 0; r < 6; r++ {
			at := roundTime(r)
			if hidden {
				crawlFail(st, "disc.test", sku, "us-bos", r, at)
			} else {
				crawlObs(st, "disc.test", sku, "us-bos", r, at, 10000, "USD")
			}
			crawlObs(st, "disc.test", sku, "us-chi", r, at, 10000, "USD")
			crawlObs(st, "disc.test", sku, "us-nyc", r, at, 10000, "USD")
		}
	}
	rep := detect(st, "disc.test")
	if !rep.Flagged(shop.FamilyDisclosure) {
		t.Fatalf("disclosure not flagged: %s", rep)
	}
	if rep.Flagged(shop.FamilyGeo) || rep.Flagged(shop.FamilyFingerprint) || rep.Flagged(shop.FamilyTemporal) {
		t.Errorf("spurious families: %s", rep)
	}
}

func TestDetectTemporalPricing(t *testing.T) {
	st := store.New()
	// Weekend markup: uniform across locations within every round, moving
	// between rounds.
	units := []int64{10000, 10000, 11200, 11200, 10000, 10000, 11200}
	for p := 0; p < 5; p++ {
		sku := "T-" + string(rune('A'+p))
		for r := 0; r < len(units); r++ {
			at := roundTime(r)
			for _, vp := range []string{"us-bos", "us-chi", "us-nyc", "us-lin"} {
				crawlObs(st, "temp.test", sku, vp, r, at, units[r], "USD")
			}
		}
	}
	rep := detect(st, "temp.test")
	if !rep.Flagged(shop.FamilyTemporal) {
		t.Fatalf("temporal not flagged: %s", rep)
	}
	if rep.Flagged(shop.FamilyGeo) {
		t.Errorf("synchronized rounds read temporal pricing as geo: %s", rep)
	}
}

func TestABChurnNotFlaggedAsGeo(t *testing.T) {
	st := store.New()
	// Same-fingerprint locations disagree within rounds, but the dearer
	// side flips round to round — A/B bucket churn, not geo policy.
	for p := 0; p < 5; p++ {
		sku := "AB-" + string(rune('A'+p))
		for r := 0; r < 6; r++ {
			at := roundTime(r)
			hi, lo := int64(10500), int64(10000)
			if (p+r)%2 == 0 {
				hi, lo = lo, hi
			}
			crawlObs(st, "ab.test", sku, "us-bos", r, at, hi, "USD")
			crawlObs(st, "ab.test", sku, "br-sao", r, at, lo, "USD")
		}
	}
	rep := detect(st, "ab.test")
	if rep.Flagged(shop.FamilyGeo) {
		t.Fatalf("A/B churn flagged as geo: %s", rep)
	}
}

func TestDetectNothingOnCleanShop(t *testing.T) {
	st := store.New()
	for p := 0; p < 4; p++ {
		sku := "C-" + string(rune('A'+p))
		for r := 0; r < 5; r++ {
			at := roundTime(r)
			for _, vp := range []string{"us-bos", "us-chi", "br-sao", "us-la"} {
				crawlObs(st, "clean.test", sku, vp, r, at, 9900, "USD")
			}
		}
	}
	rep := detect(st, "clean.test")
	for _, f := range analysis.DetectableFamilies {
		if rep.Flagged(f) {
			t.Errorf("%s flagged on a uniform shop: %s", f, rep)
		}
	}
}

// TestEvidenceFlagRuleEdges pins the flag rule's thresholds: at least 3
// affected products and an affected share of at least 0.08 of a nonzero
// eligible count.
func TestEvidenceFlagRuleEdges(t *testing.T) {
	d := analysis.NewDetector(market)
	for _, c := range []struct {
		affected, eligible int
		want               bool
	}{
		{2, 10, false},
		{3, 10, true},
		{79, 1000, false},
		{80, 1000, true},
		{3, 38, false}, // 0.0789
		{3, 37, true},  // 0.0811
		{0, 0, false},
		{3, 0, false},
	} {
		e := d.Evidence(shop.FamilyGeo, c.affected, c.eligible)
		if e.Flagged != c.want || e.Affected != c.affected || e.Eligible != c.eligible {
			t.Errorf("Evidence(%d, %d) = %+v, want flagged %v", c.affected, c.eligible, e, c.want)
		}
	}
}

// TestDisclosureFailRoundsEdge pins the disclosure rule's 3-round edge:
// a vantage point that shows no price in 3 rounds and never a price,
// while another reads one in at least 3 rounds, is withholding; 2
// rounds of either are not enough.
func TestDisclosureFailRoundsEdge(t *testing.T) {
	d := analysis.NewDetector(market)
	for _, c := range []struct {
		okRounds, failRounds int
		eligible, affected   bool
	}{
		{3, 3, true, true},
		{3, 2, true, false},
		{2, 2, false, false},
		{4, 3, true, true},
	} {
		var obs []store.Observation
		for r := 0; r < max(c.okRounds, c.failRounds); r++ {
			at := roundTime(r)
			if r < c.okRounds {
				obs = append(obs, store.Observation{
					Domain: "edge.test", SKU: "E-1", VP: "us-chi", Time: at, Round: r,
					Source: store.SourceCrawl, OK: true, PriceUnits: 10000, Currency: "USD",
				})
			}
			if r < c.failRounds {
				obs = append(obs, store.Observation{
					Domain: "edge.test", SKU: "E-1", VP: "us-bos", Time: at, Round: r,
					Source: store.SourceCrawl, Err: extract.ErrNoPrice.Error(),
				})
			}
		}
		got := d.NewProductState(obs).Verdict().Disclosure
		if got.Eligible != c.eligible || got.Affected != c.affected {
			t.Errorf("%d ok rounds, %d failed rounds: %+v, want eligible %v affected %v",
				c.okRounds, c.failRounds, got, c.eligible, c.affected)
		}
	}
}

// TestMarketRepricingNotTemporal is the differential test for the
// weekday/temporal detector against a moving base price: a domain whose
// every vantage point sees the identical competitive repricing path —
// pure market dynamics, no discrimination — must NOT flag temporal (or
// anything else but competitive), while the weekday domain beside it
// still must. Before the market subsystem, ANY cross-round consensus
// movement was attributed to the temporal family; this pins the
// separation.
func TestMarketRepricingNotTemporal(t *testing.T) {
	st := store.New()
	vps := []string{"us-bos", "us-chi", "us-nyc", "us-lin"}

	// market.test: held levels, 2 days each, >=4.5% reprices — the
	// leader-follower signature, identical at every vantage point.
	levels := []int64{50000, 55000, 50000, 47500, 52500, 50000, 55000}
	for p := 0; p < 5; p++ {
		sku := "M-" + string(rune('A'+p))
		for r := 0; r < 14; r++ {
			at := roundTime(r)
			for _, vp := range vps {
				crawlObs(st, "market.test", sku, vp, r, at, levels[r/2], "USD")
			}
		}
	}
	// weekday.test: the same cadence, moved by the calendar instead.
	for p := 0; p < 5; p++ {
		sku := "W-" + string(rune('A'+p))
		for r := 0; r < 14; r++ {
			at := roundTime(r)
			u := int64(50000)
			switch at.UTC().Weekday().String() {
			case "Saturday", "Sunday":
				u = 56000
			}
			for _, vp := range vps {
				crawlObs(st, "weekday.test", sku, vp, r, at, u, "USD")
			}
		}
	}

	mkt := detect(st, "market.test")
	if !mkt.Flagged(shop.FamilyCompetitive) {
		t.Fatalf("competitive repricing not flagged: %s", mkt)
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyTemporal, shop.FamilyGeo,
		shop.FamilyFingerprint, shop.FamilyDisclosure, shop.FamilyDemand} {
		if mkt.Flagged(f) {
			t.Errorf("market repricing falsely flagged %s: %s", f, mkt)
		}
	}

	wd := detect(st, "weekday.test")
	if !wd.Flagged(shop.FamilyTemporal) {
		t.Fatalf("weekday pricing lost its temporal flag: %s", wd)
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyCompetitive, shop.FamilyDemand} {
		if wd.Flagged(f) {
			t.Errorf("weekday pricing falsely flagged %s: %s", f, wd)
		}
	}
}

// TestDemandRepricingNotTemporal: the scarcity-pricing signature (daily
// climbs, restock drops) seen identically everywhere flags demand and
// nothing else.
func TestDemandRepricingNotTemporal(t *testing.T) {
	st := store.New()
	vps := []string{"us-bos", "us-chi", "us-nyc", "us-lin"}
	for p := 0; p < 5; p++ {
		sku := "D-" + string(rune('A'+p))
		cur := int64(50000)
		for r := 0; r < 14; r++ {
			if r > 0 {
				if r%5 == 0 {
					cur = 50000
				} else {
					cur += 1500
				}
			}
			at := roundTime(r)
			for _, vp := range vps {
				crawlObs(st, "demand.test", sku, vp, r, at, cur, "USD")
			}
		}
	}
	rep := detect(st, "demand.test")
	if !rep.Flagged(shop.FamilyDemand) {
		t.Fatalf("demand repricing not flagged: %s", rep)
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyTemporal, shop.FamilyGeo,
		shop.FamilyFingerprint, shop.FamilyDisclosure, shop.FamilyCompetitive} {
		if rep.Flagged(f) {
			t.Errorf("demand repricing falsely flagged %s: %s", f, rep)
		}
	}
}

// TestShortMarketSeriesStaysTemporal pins backwards compatibility: below
// minMarketRounds the classifier never claims a market shape, so a
// 7-round crawl (the historical default) reports moving consensus as
// temporal, exactly as before the market subsystem existed.
func TestShortMarketSeriesStaysTemporal(t *testing.T) {
	st := store.New()
	levels := []int64{50000, 50000, 55000, 55000, 47500, 47500, 52500}
	for p := 0; p < 5; p++ {
		sku := "S-" + string(rune('A'+p))
		for r := 0; r < 7; r++ {
			at := roundTime(r)
			for _, vp := range []string{"us-bos", "us-chi", "us-nyc", "us-lin"} {
				crawlObs(st, "short.test", sku, vp, r, at, levels[r], "USD")
			}
		}
	}
	rep := detect(st, "short.test")
	if !rep.Flagged(shop.FamilyTemporal) {
		t.Fatalf("short moving series not reported temporal: %s", rep)
	}
	if rep.Flagged(shop.FamilyCompetitive) || rep.Flagged(shop.FamilyDemand) {
		t.Errorf("7-round series claimed a market shape: %s", rep)
	}
	// And the market families were not even eligible: the series is too
	// short to judge.
	if ev := rep.Evidence[shop.FamilyCompetitive]; ev.Eligible != 0 {
		t.Errorf("competitive eligible on a 7-round series: %+v", ev)
	}
}
