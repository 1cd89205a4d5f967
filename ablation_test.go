// Ablations for the design choices DESIGN.md §4 calls out: each test
// disables one of the paper's methodological defences and shows the
// failure mode it was guarding against.
package sheriff_test

import (
	"testing"
	"time"

	"sheriff/internal/analysis"
	"sheriff/internal/crawler"
	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// ablationWorld wires one custom retailer onto a fresh fabric with a
// crowd-learned anchor, without any of the preset retailers.
type ablationWorld struct {
	reg    *netsim.Registry
	clk    *netsim.Clock
	market *fx.Market
	st     *store.Store
	r      *shop.Retailer
	anchor extract.Anchor
}

func newAblationWorld(t *testing.T, cfg shop.Config) *ablationWorld {
	t.Helper()
	market := fx.NewMarket(1)
	if cfg.Domain == "" {
		cfg.Domain = "ablate.example.com"
	}
	if cfg.Label == "" {
		cfg.Label = "Ablation target"
	}
	if len(cfg.Categories) == 0 {
		cfg.Categories = []shop.Category{shop.CatClothing}
	}
	if cfg.ProductCount == 0 {
		cfg.ProductCount = 20
	}
	if cfg.PriceLo == 0 {
		cfg.PriceLo, cfg.PriceHi = 20, 200
	}
	r := shop.New(cfg, market)
	reg := netsim.NewRegistry()
	reg.Register(r.Domain(), shop.NewServer(r, geo.NewDB()))
	clk := netsim.NewClock(time.Date(2013, 3, 1, 9, 0, 0, 0, time.UTC))

	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	p := r.Catalog().Products()[0]
	v := shop.Visit{Loc: loc, Time: clk.Now(), IP: "10.0.1.88"}
	doc, err := htmlx.ParseString(r.RenderProduct(p, v))
	if err != nil {
		t.Fatal(err)
	}
	amt := r.DisplayPrice(p, v)
	anchor, err := extract.Derive(doc, money.Format(amt, amt.Currency.Style()), money.USD)
	if err != nil {
		t.Fatal(err)
	}
	return &ablationWorld{reg: reg, clk: clk, market: market, st: store.New(), r: r, anchor: anchor}
}

func (aw *ablationWorld) crawl(t *testing.T, rounds int, unsync bool) {
	t.Helper()
	c := crawler.New(aw.reg, aw.clk, geo.VantagePoints(), aw.st,
		map[string]extract.Anchor{aw.r.Domain(): aw.anchor})
	if _, err := c.Run(crawler.Plan{
		Domains: []string{aw.r.Domain()}, MaxProducts: 20,
		Rounds: rounds, Unsynchronized: unsync,
	}); err != nil {
		t.Fatal(err)
	}
}

// rawVariationGroups counts (product, round) groups whose variation
// survives the currency filter — per-round variation, before the
// persistence defence.
func (aw *ablationWorld) rawVariationGroups() (varied, total int) {
	for _, obs := range aw.st.Groups(store.SourceCrawl) {
		byRound := map[int][]store.Observation{}
		for _, o := range obs {
			byRound[o.Round] = append(byRound[o.Round], o)
		}
		for _, group := range byRound {
			total++
			if _, real := analysis.GroupRatio(aw.market, group); real {
				varied++
			}
		}
	}
	return varied, total
}

// TestExtractionAccuracyAblation (DESIGN.md ablation 1): anchor-based
// extraction recovers the true price across all template families and
// locales; the naive first-price scan is defeated by the decoys.
func TestExtractionAccuracyAblation(t *testing.T) {
	market := fx.NewMarket(1)
	day := time.Date(2013, 3, 5, 12, 0, 0, 0, time.UTC)
	locUS, _ := geo.LocationOf("US", "Boston")
	locDE, _ := geo.LocationOf("DE", "Berlin")

	var anchorRight, naiveRight, totalChecks int
	for ti, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		r := shop.New(shop.Config{
			Domain: "acc.example.com", Label: "Accuracy", Seed: int64(900 + ti),
			Categories: []shop.Category{shop.CatClothing}, ProductCount: 10,
			PriceLo: 15, PriceHi: 400, Template: tmpl, Localize: true,
			VariedFraction: 1, CountryFactor: map[string]float64{"DE": 1.15},
		}, market)
		for _, p := range r.Catalog().Products() {
			vUS := shop.Visit{Loc: locUS, Time: day, IP: "10.0.1.3"}
			vDE := shop.Visit{Loc: locDE, Time: day, IP: "10.2.0.3"}
			docUS, err := htmlx.ParseString(r.RenderProduct(p, vUS))
			if err != nil {
				t.Fatal(err)
			}
			truthUS := r.DisplayPrice(p, vUS)
			anchor, err := extract.Derive(docUS, money.Format(truthUS, truthUS.Currency.Style()), money.USD)
			if err != nil {
				t.Fatalf("%s: derive: %v", tmpl, err)
			}
			// Score both extractors on the *German* rendering.
			docDE, err := htmlx.ParseString(r.RenderProduct(p, vDE))
			if err != nil {
				t.Fatal(err)
			}
			truthDE := r.DisplayPrice(p, vDE)
			totalChecks++
			if got, err := anchor.Extract(docDE, money.EUR); err == nil && got.Units == truthDE.Units {
				anchorRight++
			}
			if got, err := extract.NaiveFirst(docDE, money.EUR); err == nil && got.Units == truthDE.Units {
				naiveRight++
			}
		}
	}
	anchorAcc := float64(anchorRight) / float64(totalChecks)
	naiveAcc := float64(naiveRight) / float64(totalChecks)
	t.Logf("extraction accuracy over %d cross-locale checks: anchor %.2f, naive %.2f",
		totalChecks, anchorAcc, naiveAcc)
	if anchorAcc < 0.99 {
		t.Errorf("anchor accuracy %.2f, want ~1.0", anchorAcc)
	}
	if naiveAcc > 0.3 {
		t.Errorf("naive accuracy %.2f — decoys should defeat it (paper Sec. 2.2)", naiveAcc)
	}
}

// TestSynchronizationAblation (DESIGN.md ablation 2): a retailer with
// intra-day price drift but NO location pricing shows no variation under
// synchronized fan-out and plenty under staggered fetches.
func TestSynchronizationAblation(t *testing.T) {
	sync := newAblationWorld(t, shop.Config{
		Seed: 901, VariedFraction: 0.0001, DriftAmplitude: 0.05, Localize: false,
	})
	sync.crawl(t, 2, false)
	syncVaried, syncTotal := sync.rawVariationGroups()

	unsync := newAblationWorld(t, shop.Config{
		Seed: 901, VariedFraction: 0.0001, DriftAmplitude: 0.05, Localize: false,
	})
	unsync.crawl(t, 2, true)
	unsyncVaried, unsyncTotal := unsync.rawVariationGroups()

	t.Logf("synchronized: %d/%d groups vary; unsynchronized: %d/%d",
		syncVaried, syncTotal, unsyncVaried, unsyncTotal)
	if syncVaried != 0 {
		t.Errorf("synchronized fan-out produced %d false variations", syncVaried)
	}
	if unsyncVaried < unsyncTotal/2 {
		t.Errorf("unsynchronized fan-out produced only %d/%d false variations; drift should dominate",
			unsyncVaried, unsyncTotal)
	}
}

// TestCurrencyFilterAblation (DESIGN.md ablation 3): a currency-localizing
// retailer with identical USD prices everywhere looks like a discriminator
// to the nominal ratio and is fully cleared by the worst-case-rate filter.
func TestCurrencyFilterAblation(t *testing.T) {
	aw := newAblationWorld(t, shop.Config{
		Seed: 902, VariedFraction: 0.0001, Localize: true,
	})
	aw.crawl(t, 2, false)

	nominalFPs, filteredFPs, total := 0, 0, 0
	for _, obs := range aw.st.Groups(store.SourceCrawl) {
		byRound := map[int][]store.Observation{}
		for _, o := range obs {
			byRound[o.Round] = append(byRound[o.Round], o)
		}
		for _, group := range byRound {
			var quotes []fx.Quote
			for _, o := range group {
				if !o.OK {
					continue
				}
				if a, ok := o.Amount(); ok {
					quotes = append(quotes, fx.Quote{Amount: a, Day: o.Time})
				}
			}
			if len(quotes) < 2 {
				continue
			}
			total++
			if aw.market.NominalRatio(quotes) > 1.001 {
				nominalFPs++
			}
			if _, real := aw.market.RealVariation(quotes); real {
				filteredFPs++
			}
		}
	}
	t.Logf("currency noise: %d/%d groups nominally vary, %d survive the filter",
		nominalFPs, total, filteredFPs)
	if nominalFPs == 0 {
		t.Error("expected nominal currency-translation noise, found none")
	}
	if filteredFPs != 0 {
		t.Errorf("currency filter let %d false positives through", filteredFPs)
	}
}

// TestABRepetitionAblation (DESIGN.md ablation 4): an A/B-testing retailer
// with no geo pricing fools a single-round crawl but is rejected once
// measurements repeat across days.
func TestABRepetitionAblation(t *testing.T) {
	oneShot := newAblationWorld(t, shop.Config{
		Seed: 903, VariedFraction: 0.0001, Localize: false,
		ABFraction: 1.0, ABAmplitude: 0.05,
	})
	oneShot.crawl(t, 1, false)
	oneRoundExtent := extentOf(oneShot)

	repeated := newAblationWorld(t, shop.Config{
		Seed: 903, VariedFraction: 0.0001, Localize: false,
		ABFraction: 1.0, ABAmplitude: 0.05,
	})
	repeated.crawl(t, 7, false)
	repeatedExtent := extentOf(repeated)

	t.Logf("A/B-only retailer: 1-round extent %.2f, 7-round extent %.2f",
		oneRoundExtent, repeatedExtent)
	if oneRoundExtent < 0.5 {
		t.Errorf("single-round crawl should be fooled by A/B noise (extent %.2f)", oneRoundExtent)
	}
	if repeatedExtent > 0.15 {
		t.Errorf("repetition failed to reject A/B noise (extent %.2f)", repeatedExtent)
	}
}

func extentOf(aw *ablationWorld) float64 {
	rows := analysis.Fig3(aw.st, aw.market)
	for _, de := range rows {
		if de.Domain == aw.r.Domain() {
			return de.Extent
		}
	}
	return 0
}
