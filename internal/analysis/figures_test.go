package analysis

import (
	"math"
	"testing"
	"time"

	"sheriff/internal/fx"
	"sheriff/internal/store"
)

var (
	market = fx.NewMarket(1)
	t0     = time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC)
)

// addCheck writes a synthetic crowd check (one obs per listed VP/price).
func addCheck(st *store.Store, domain, sku string, at time.Time, pricesUSD map[string]int64) {
	for vp, units := range pricesUSD {
		st.AddAll([]store.Observation{{
			Domain: domain, SKU: sku, VP: vp, VPLabel: vp,
			Country: "US", City: "Boston",
			PriceUnits: units, Currency: "USD",
			Time: at, Round: -1, Source: store.SourceCrowd, OK: true,
		}})
	}
}

// addCrawlRound writes one crawl round for a product. vpPrices maps VP id
// to (country, units).
type vpPrice struct {
	country string
	city    string
	units   int64
	cur     string
}

func addCrawlRound(st *store.Store, domain, sku string, round int, at time.Time, prices map[string]vpPrice) {
	for vp, p := range prices {
		cur := p.cur
		if cur == "" {
			cur = "USD"
		}
		st.AddAll([]store.Observation{{
			Domain: domain, SKU: sku, VP: vp, VPLabel: vp,
			Country: p.country, City: p.city,
			PriceUnits: p.units, Currency: cur,
			Time: at, Round: round, Source: store.SourceCrawl, OK: true,
		}})
	}
}

func TestFig1RanksByVariationCount(t *testing.T) {
	st := store.New()
	// varies.com: 3 checks, all varying. flat.com: 2 checks, none varying.
	for i := 0; i < 3; i++ {
		addCheck(st, "varies.com", "V-1", t0.Add(time.Duration(i)*time.Hour),
			map[string]int64{"a": 10000, "b": 13000})
	}
	for i := 0; i < 2; i++ {
		addCheck(st, "flat.com", "F-1", t0.Add(time.Duration(i)*time.Hour),
			map[string]int64{"a": 5000, "b": 5000})
	}
	addCheck(st, "once.com", "O-1", t0, map[string]int64{"a": 1000, "b": 1200})

	fig := Fig1(st, market)
	if len(fig) != 2 {
		t.Fatalf("Fig1 rows = %d, want 2 (flat.com excluded)", len(fig))
	}
	if fig[0].Domain != "varies.com" || fig[0].WithVariation != 3 {
		t.Fatalf("row 0 = %+v", fig[0])
	}
	if fig[1].Domain != "once.com" || fig[1].WithVariation != 1 {
		t.Fatalf("row 1 = %+v", fig[1])
	}
}

func TestFig2RatioMagnitude(t *testing.T) {
	st := store.New()
	addCheck(st, "shop.com", "S-1", t0, map[string]int64{"a": 10000, "b": 12000})
	addCheck(st, "shop.com", "S-2", t0.Add(time.Hour), map[string]int64{"a": 10000, "b": 14000})
	fig := Fig2(st, market)
	if len(fig) != 1 {
		t.Fatalf("rows = %d", len(fig))
	}
	b := fig[0].Box
	if b.N != 2 {
		t.Fatalf("N = %d", b.N)
	}
	// Conservative ratios are slightly below nominal 1.2/1.4 (same-currency
	// USD quotes have zero spread, so they equal the nominal here).
	if math.Abs(b.Min-1.2) > 0.01 || math.Abs(b.Max-1.4) > 0.01 {
		t.Fatalf("box = %+v", b)
	}
}

func TestFig3PersistenceRejectsABNoise(t *testing.T) {
	st := store.New()
	// Product P: varies every one of 5 rounds (persistent).
	// Product Q: varies in only 1 of 5 rounds (A/B-style flicker).
	// Product R: never varies.
	for round := 0; round < 5; round++ {
		at := t0.AddDate(0, 0, round)
		addCrawlRound(st, "d.com", "P", round, at, map[string]vpPrice{
			"us-bos": {country: "US", units: 10000},
			"fi-tam": {country: "FI", units: 13000},
		})
		q := int64(10000)
		if round == 2 {
			q = 11000
		}
		addCrawlRound(st, "d.com", "Q", round, at, map[string]vpPrice{
			"us-bos": {country: "US", units: 10000},
			"fi-tam": {country: "FI", units: q},
		})
		addCrawlRound(st, "d.com", "R", round, at, map[string]vpPrice{
			"us-bos": {country: "US", units: 9000},
			"fi-tam": {country: "FI", units: 9000},
		})
	}
	fig := Fig3(st, market)
	if len(fig) != 1 {
		t.Fatalf("rows = %d", len(fig))
	}
	de := fig[0]
	if de.Products != 3 || de.Varied != 1 {
		t.Fatalf("extent row = %+v (persistence filter broken)", de)
	}
	if math.Abs(de.Extent-1.0/3.0) > 1e-9 {
		t.Fatalf("extent = %v", de.Extent)
	}
}

func TestFig4OnlyPersistentProducts(t *testing.T) {
	st := store.New()
	for round := 0; round < 4; round++ {
		at := t0.AddDate(0, 0, round)
		addCrawlRound(st, "d.com", "P", round, at, map[string]vpPrice{
			"us-bos": {country: "US", units: 10000},
			"fi-tam": {country: "FI", units: 12500},
		})
		addCrawlRound(st, "d.com", "R", round, at, map[string]vpPrice{
			"us-bos": {country: "US", units: 9000},
			"fi-tam": {country: "FI", units: 9000},
		})
	}
	fig := Fig4(st, market)
	if len(fig) != 1 {
		t.Fatalf("rows = %d", len(fig))
	}
	if fig[0].Box.N != 1 {
		t.Fatalf("N = %d, want 1 (only persistent product P)", fig[0].Box.N)
	}
	if math.Abs(fig[0].Box.Median-1.25) > 0.01 {
		t.Fatalf("median = %v", fig[0].Box.Median)
	}
}

func TestFig5EnvelopeBands(t *testing.T) {
	st := store.New()
	at := t0
	// Cheap product with huge ratio, expensive product with small ratio.
	addCrawlRound(st, "d.com", "CHEAP", 0, at, map[string]vpPrice{
		"us-bos": {country: "US", units: 1000}, // $10
		"fi-tam": {country: "FI", units: 2800}, // $28 -> x2.8
	})
	addCrawlRound(st, "d.com", "DEAR", 0, at, map[string]vpPrice{
		"us-bos": {country: "US", units: 500000}, // $5000
		"fi-tam": {country: "FI", units: 650000}, // x1.3
	})
	points := Fig5(st, market)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].SKU != "CHEAP" || points[0].MaxRatio < 2.7 {
		t.Fatalf("point 0 = %+v", points[0])
	}
	env := EnvelopeOf(points)
	if env[0].MaxRatio < 2.7 || env[0].N != 1 {
		t.Fatalf("cheap band = %+v", env[0])
	}
	if env[2].MaxRatio > 1.35 || env[2].N != 1 {
		t.Fatalf("expensive band = %+v", env[2])
	}
}

func TestFig7LocationRatios(t *testing.T) {
	st := store.New()
	for round := 0; round < 3; round++ {
		at := t0.AddDate(0, 0, round)
		addCrawlRound(st, "d.com", "P", round, at, map[string]vpPrice{
			"us-bos": {country: "US", city: "Boston", units: 10000},
			"us-chi": {country: "US", city: "Chicago", units: 10000},
			"fi-tam": {country: "FI", city: "Tampere", units: 12000},
		})
	}
	fig := Fig7(st, market)
	var bos, fi BoxStats
	for _, lb := range fig {
		switch lb.VP {
		case "us-bos":
			bos = lb.Box
		case "fi-tam":
			fi = lb.Box
		}
	}
	if bos.N != 3 || math.Abs(bos.Median-1.0) > 1e-9 {
		t.Fatalf("Boston box = %+v", bos)
	}
	if fi.N != 3 || math.Abs(fi.Median-1.2) > 1e-9 {
		t.Fatalf("Finland box = %+v", fi)
	}
	if len(fig) != 14 {
		t.Fatalf("locations = %d, want all 14 VPs listed", len(fig))
	}
}

func TestFig9FinlandPremium(t *testing.T) {
	st := store.New()
	addCrawlRound(st, "premium.com", "P", 0, t0, map[string]vpPrice{
		"us-bos": {country: "US", units: 10000},
		"fi-tam": {country: "FI", units: 13000},
	})
	addCrawlRound(st, "exception.com", "Q", 0, t0, map[string]vpPrice{
		"us-bos": {country: "US", units: 13000},
		"fi-tam": {country: "FI", units: 10000},
	})
	fig := Fig9(st, market)
	if len(fig) != 2 {
		t.Fatalf("rows = %d", len(fig))
	}
	// Sorted ascending by median: the exception (ratio 1.0) comes first.
	if fig[0].Domain != "exception.com" || math.Abs(fig[0].Box.Median-1.0) > 1e-9 {
		t.Fatalf("row 0 = %+v", fig[0])
	}
	if fig[1].Domain != "premium.com" || math.Abs(fig[1].Box.Median-1.3) > 1e-9 {
		t.Fatalf("row 1 = %+v", fig[1])
	}
}

func TestFig10SeriesAndDiffering(t *testing.T) {
	st := store.New()
	skus := []string{"E-1", "E-2", "E-3"}
	prices := map[string][]int64{
		"":      {1000, 2000, 3000},
		"userA": {1000, 2200, 2900},
		"userB": {1000, 2000, 3000},
	}
	for acc, series := range prices {
		for i, sku := range skus {
			st.AddAll([]store.Observation{{
				Domain: "amazon.sim", SKU: sku, VP: "us-bos", VPLabel: "USA - Boston",
				Country: "US", PriceUnits: series[i], Currency: "USD",
				Time: t0, Round: -1, Source: store.SourceLogin,
				Account: acc, OK: true,
			}})
		}
	}
	fig := Fig10(st, market)
	if len(fig.SKUs) != 3 || len(fig.Accounts) != 3 {
		t.Fatalf("series shape: %+v", fig)
	}
	if got := fig.Differing("userA", 0.02); got != 2 {
		t.Fatalf("userA differing = %d, want 2", got)
	}
	if got := fig.Differing("userB", 0.02); got != 0 {
		t.Fatalf("userB differing = %d, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	st := store.New()
	addCheck(st, "a.com", "A-1", t0, map[string]int64{"x": 100, "y": 110})
	addCheck(st, "a.com", "A-1", t0.Add(time.Hour), map[string]int64{"x": 100, "y": 110})
	for round := 0; round < 7; round++ {
		addCrawlRound(st, "b.com", "B-1", round, t0.AddDate(0, 0, round), map[string]vpPrice{
			"us-bos": {country: "US", units: 1000},
			"fi-tam": {country: "FI", units: 1100},
		})
	}
	s := Summarize(st, 340, 18, 600)
	if s.CrowdRequests != 2 {
		t.Fatalf("requests = %d", s.CrowdRequests)
	}
	if s.CrawledDomains != 1 || s.CrawledProducts != 1 || s.CrawlRounds != 7 {
		t.Fatalf("crawl summary = %+v", s)
	}
	if s.ExtractedPrices != 14 {
		t.Fatalf("extracted = %d", s.ExtractedPrices)
	}
	if s.CrowdUsers != 340 || s.CrowdCountries != 18 || s.CrowdDomains != 600 {
		t.Fatalf("crowd pass-through = %+v", s)
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable("Demo", [2]string{"domain", "count"}, [][2]string{
		{"a.com", "5"}, {"longer-domain.com", "2"},
	})
	if !containsAll(out, "== Demo ==", "a.com", "longer-domain.com", "count") {
		t.Fatalf("render:\n%s", out)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestCompareCampaigns(t *testing.T) {
	st := store.New()
	// confirmed.com: crowd-flagged and crawl-confirmed.
	addCheck(st, "confirmed.com", "C-1", t0, map[string]int64{"a": 10000, "b": 12500})
	for round := 0; round < 3; round++ {
		addCrawlRound(st, "confirmed.com", "C-1", round, t0.AddDate(0, 0, round), map[string]vpPrice{
			"us-bos": {country: "US", units: 10000},
			"fi-tam": {country: "FI", units: 12500},
		})
	}
	// refuted.com: crowd saw variation once, crawl shows none.
	addCheck(st, "refuted.com", "R-1", t0, map[string]int64{"a": 5000, "b": 5600})
	for round := 0; round < 3; round++ {
		addCrawlRound(st, "refuted.com", "R-1", round, t0.AddDate(0, 0, round), map[string]vpPrice{
			"us-bos": {country: "US", units: 5000},
			"fi-tam": {country: "FI", units: 5000},
		})
	}
	// crowdonly.com: flagged but never crawled.
	addCheck(st, "crowdonly.com", "O-1", t0, map[string]int64{"a": 2000, "b": 2400})

	agg := CompareCampaigns(st, market)
	if len(agg.CrowdFlagged) != 3 {
		t.Fatalf("flagged = %v", agg.CrowdFlagged)
	}
	if len(agg.CrawlConfirmed) != 1 || agg.CrawlConfirmed[0] != "confirmed.com" {
		t.Fatalf("confirmed = %v", agg.CrawlConfirmed)
	}
	if len(agg.CrawlRefuted) != 1 || agg.CrawlRefuted[0] != "refuted.com" {
		t.Fatalf("refuted = %v", agg.CrawlRefuted)
	}
	if len(agg.NotCrawled) != 1 || agg.NotCrawled[0] != "crowdonly.com" {
		t.Fatalf("not crawled = %v", agg.NotCrawled)
	}
	if rate := agg.ConfirmationRate(); rate != 0.5 {
		t.Fatalf("confirmation rate = %v", rate)
	}
	// Crowd and crawl medians for confirmed.com are both 1.25: delta ~0.
	if agg.MedianRatioDelta > 0.01 {
		t.Fatalf("ratio delta = %v", agg.MedianRatioDelta)
	}
}

func TestConfirmationRateEmpty(t *testing.T) {
	if rate := (CampaignAgreement{}).ConfirmationRate(); rate != 1 {
		t.Fatalf("empty rate = %v", rate)
	}
}
