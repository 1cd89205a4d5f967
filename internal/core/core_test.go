package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"sheriff/internal/analysis"
	"sheriff/internal/store"
)

// smallWorld is a reduced-scale world shared by the integration tests
// (built once: world construction registers ~640 handlers).
func smallWorld(t *testing.T) *World {
	t.Helper()
	return NewWorld(WorldOptions{Seed: 7, LongTail: 24})
}

func TestNewWorldShape(t *testing.T) {
	w := smallWorld(t)
	if len(w.Crawled) != 21 {
		t.Fatalf("crawled = %d, want 21", len(w.Crawled))
	}
	if len(w.Interesting) != 30 {
		t.Fatalf("interesting = %d, want 30", len(w.Interesting))
	}
	if w.DomainCount() != 54 {
		t.Fatalf("domains = %d", w.DomainCount())
	}
	for _, d := range append(append([]string{}, w.Interesting...), w.Tail...) {
		if _, ok := w.Registry.Lookup(d); !ok {
			t.Fatalf("domain %s not registered", d)
		}
		if _, ok := w.Retailers[d]; !ok {
			t.Fatalf("domain %s has no retailer", d)
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	a := NewWorld(WorldOptions{Seed: 9, LongTail: 4})
	b := NewWorld(WorldOptions{Seed: 9, LongTail: 4})
	for domain, ra := range a.Retailers {
		rb := b.Retailers[domain]
		pa, pb := ra.Catalog().Products(), rb.Catalog().Products()
		if len(pa) != len(pb) {
			t.Fatalf("%s: catalog size differs", domain)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: product %d differs", domain, i)
			}
		}
	}
}

// endToEnd runs a scaled-down version of the paper's full pipeline once
// and shares the result across assertions (the heavyweight fixture
// pattern: build once, assert many).
type endToEndResult struct {
	world *World
}

var e2e *endToEndResult

func runEndToEnd(t *testing.T) *endToEndResult {
	t.Helper()
	if e2e != nil {
		return e2e
	}
	w := NewWorld(WorldOptions{Seed: 3, LongTail: 24})

	// Crowd beta at reduced scale.
	if _, err := w.RunCrowd(CrowdOptions{Users: 60, Requests: 150, Span: 20 * 24 * time.Hour}); err != nil {
		t.Fatalf("crowd: %v", err)
	}
	// Anchor top-up so every crawled domain has an extraction anchor.
	if err := w.EnsureAnchors(w.Crawled); err != nil {
		t.Fatalf("anchors: %v", err)
	}
	// Systematic crawl at reduced scale: all 21 domains, 12 products,
	// 3 daily rounds.
	if _, err := w.RunCrawl(CrawlOptions{MaxProducts: 12, Rounds: 3}); err != nil {
		t.Fatalf("crawl: %v", err)
	}
	// Login experiment.
	if _, err := w.RunLoginExperiment("www.amazon.com", 12, []string{"userA", "userB", "userC"}); err != nil {
		t.Fatalf("login: %v", err)
	}
	e2e = &endToEndResult{world: w}
	return e2e
}

func TestEndToEndCrawlVolume(t *testing.T) {
	w := runEndToEnd(t).world
	crawlObs := w.Store.Filter(store.Query{Source: store.SourceCrawl, Round: -1})
	want := 21 * 12 * 14 * 3
	if len(crawlObs) != want {
		t.Fatalf("crawl observations = %d, want %d", len(crawlObs), want)
	}
	ok := 0
	for _, o := range crawlObs {
		if o.OK {
			ok++
		}
	}
	frac := float64(ok) / float64(len(crawlObs))
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("extraction success = %.3f, want ~0.915 (failure injection)", frac)
	}
}

func TestEndToEndFig1CrowdHead(t *testing.T) {
	w := runEndToEnd(t).world
	fig1 := w.Fig1()
	if len(fig1) < 5 {
		t.Fatalf("Fig1 rows = %d, want several varying domains", len(fig1))
	}
	// Descending order, and every row has at least one variation.
	for i := 1; i < len(fig1); i++ {
		if fig1[i].WithVariation > fig1[i-1].WithVariation {
			t.Fatal("Fig1 not sorted descending")
		}
	}
	// No long-tail domain may appear: they never vary.
	for _, dc := range fig1 {
		for _, tail := range w.Tail {
			if dc.Domain == tail {
				t.Fatalf("long-tail domain %s shows variation", tail)
			}
		}
	}
}

func TestEndToEndFig3Extent(t *testing.T) {
	w := runEndToEnd(t).world
	fig3 := w.Fig3()
	if len(fig3) != 21 {
		t.Fatalf("Fig3 rows = %d, want 21", len(fig3))
	}
	extent := map[string]float64{}
	for _, de := range fig3 {
		extent[de.Domain] = de.Extent
	}
	// Fully-varying retailers near 1.0; partially-varying ones clearly lower.
	if extent["www.digitalrev.com"] < 0.9 {
		t.Errorf("digitalrev extent = %v, want ~1.0", extent["www.digitalrev.com"])
	}
	if extent["store.killah.com"] < 0.9 {
		t.Errorf("killah extent = %v, want ~1.0", extent["store.killah.com"])
	}
	if extent["www.rightstart.com"] > 0.6 {
		t.Errorf("rightstart extent = %v, want low (VariedFraction 0.2)", extent["www.rightstart.com"])
	}
	// Majority near complete, like the paper reports.
	high := 0
	for _, de := range fig3 {
		if de.Extent >= 0.8 {
			high++
		}
	}
	if high < 10 {
		t.Errorf("only %d of 21 retailers have extent >= 0.8", high)
	}
}

func TestEndToEndFig4Magnitude(t *testing.T) {
	w := runEndToEnd(t).world
	fig4 := w.Fig4()
	if len(fig4) < 18 {
		t.Fatalf("Fig4 rows = %d", len(fig4))
	}
	inBand := 0
	for _, db := range fig4 {
		if db.Box.Median >= 1.05 && db.Box.Median <= 1.35 {
			inBand++
		}
		if db.Box.Median > 2.2 {
			t.Errorf("%s: implausible median ratio %v", db.Domain, db.Box.Median)
		}
	}
	// "The magnitude of price variations for most e-retailers is between
	// 10%-30%".
	if inBand < len(fig4)/2 {
		t.Errorf("only %d of %d medians in the 1.05-1.35 band", inBand, len(fig4))
	}
}

func TestEndToEndFig5Envelope(t *testing.T) {
	w := runEndToEnd(t).world
	points := w.Fig5()
	if len(points) < 100 {
		t.Fatalf("Fig5 points = %d", len(points))
	}
	env := analysis.EnvelopeOf(points)
	cheap, mid, dear := env[0], env[1], env[2]
	// Cheap products reach the highest ratios; expensive stay under ~1.5.
	if cheap.N > 0 && mid.N > 0 && cheap.MaxRatio <= mid.MaxRatio-0.5 {
		t.Errorf("cheap band max %.2f not above mid band %.2f", cheap.MaxRatio, mid.MaxRatio)
	}
	if cheap.MaxRatio > 3.2 {
		t.Errorf("cheap band max %.2f exceeds the paper's x3 envelope", cheap.MaxRatio)
	}
	if dear.N > 0 && dear.MaxRatio >= 1.5 {
		t.Errorf("expensive band max %.2f, paper says < 1.5", dear.MaxRatio)
	}
}

func TestEndToEndFig6Strategies(t *testing.T) {
	w := runEndToEnd(t).world
	// digitalrev: purely multiplicative at every non-baseline location.
	for _, s := range w.Fig6("www.digitalrev.com") {
		if s.Fit.Kind == analysis.StrategyAdditive {
			t.Errorf("digitalrev %s classified additive", s.Label)
		}
		if s.VP == "fi-tam" {
			if s.Fit.Kind != analysis.StrategyMultiplicative || s.Fit.Factor < 1.2 || s.Fit.Factor > 1.36 {
				t.Errorf("digitalrev Finland fit = %+v, want multiplicative ~1.28", s.Fit)
			}
		}
	}
	// energie.it: the UK pays an additive surcharge.
	var ukFound bool
	for _, s := range w.Fig6("www.energie.it") {
		if s.VP == "uk-lon" {
			ukFound = true
			if s.Fit.Kind != analysis.StrategyAdditive {
				t.Errorf("energie UK fit = %+v, want additive", s.Fit)
			} else if s.Fit.Surcharge < 4 || s.Fit.Surcharge > 12 {
				t.Errorf("energie UK surcharge = %v, want ~8", s.Fit.Surcharge)
			}
		}
	}
	if !ukFound {
		t.Error("no UK series for energie.it")
	}
}

func TestEndToEndFig7LocationOrdering(t *testing.T) {
	w := runEndToEnd(t).world
	fig7 := w.Fig7()
	med := map[string]float64{}
	for _, lb := range fig7 {
		if lb.Box.N > 0 {
			med[lb.VP] = lb.Box.Median
		}
	}
	// Finland is the dearest location; US locations among the cheapest.
	if med["fi-tam"] <= med["us-bos"] {
		t.Errorf("Finland median %v not above Boston %v", med["fi-tam"], med["us-bos"])
	}
	if med["fi-tam"] <= med["br-sao"] {
		t.Errorf("Finland median %v not above Brazil %v", med["fi-tam"], med["br-sao"])
	}
	// Europe sits between the US and Finland.
	if med["de-ber"] < med["us-chi"] {
		t.Errorf("Germany median %v below Chicago %v", med["de-ber"], med["us-chi"])
	}
	// The three Spanish browser configs see the same prices: browser
	// choice is not a pricing signal at these retailers.
	if d := med["es-lin"] - med["es-mac"]; d > 0.01 || d < -0.01 {
		t.Errorf("Spain FF %v vs Safari %v differ", med["es-lin"], med["es-mac"])
	}
}

func TestEndToEndFig8Grids(t *testing.T) {
	w := runEndToEnd(t).world
	// homedepot city grid: NY dearer than Chicago; Boston ≈ LA.
	grid := w.Fig8("www.homedepot.com", "city")
	if len(grid.Locations) != 6 {
		t.Fatalf("homedepot grid locations = %v", grid.Locations)
	}
	if cell, ok := grid.Cell("New York", "Chicago"); !ok || cell.Relation != analysis.RelRowDearer {
		t.Errorf("NY/Chicago relation = %v", cell.Relation)
	}
	if cell, ok := grid.Cell("Boston", "Los Angeles"); !ok || cell.Relation != analysis.RelSimilar {
		t.Errorf("Boston/LA relation = %v", cell.Relation)
	}

	// amazon country grid: uniform inside the US means the grid is
	// per-country; Finland dearer than the US.
	agrid := w.Fig8("www.amazon.com", "country")
	if cell, ok := agrid.Cell("FI", "US"); !ok || cell.Relation != analysis.RelRowDearer {
		t.Errorf("amazon FI/US relation = %v", cell.Relation)
	}
	// And the US cities really are uniform: city-level grid of amazon is
	// all-similar.
	usgrid := w.Fig8("www.amazon.com", "city")
	for i, row := range usgrid.Locations {
		for j, col := range usgrid.Locations {
			if i == j {
				continue
			}
			if cell, ok := usgrid.Cell(row, col); ok && cell.Relation != analysis.RelSimilar {
				t.Errorf("amazon %s/%s = %v, want similar", row, col, cell.Relation)
			}
		}
	}
}

func TestEndToEndFig9FinlandExceptions(t *testing.T) {
	w := runEndToEnd(t).world
	fig9 := w.Fig9()
	med := map[string]analysis.BoxStats{}
	for _, db := range fig9 {
		med[db.Domain] = db.Box
	}
	// The exceptions: Finland reaches the minimum (ratio 1) at mauijim
	// and tuscanyleather.
	for _, exc := range []string{"www.mauijim.com", "www.tuscanyleather.it"} {
		b, ok := med[exc]
		if !ok || b.N == 0 {
			t.Errorf("%s missing from Fig9", exc)
			continue
		}
		if b.Min > 1.02 {
			t.Errorf("%s: Finland min ratio %v, expected ~1.0 (exception)", exc, b.Min)
		}
	}
	// Everyone else: Finland never the cheapest.
	for domain, b := range med {
		if domain == "www.mauijim.com" || domain == "www.tuscanyleather.it" {
			continue
		}
		if b.N > 0 && b.Median < 0.999 {
			t.Errorf("%s: Finland median %v below 1", domain, b.Median)
		}
	}
}

func TestEndToEndFig10Login(t *testing.T) {
	w := runEndToEnd(t).world
	fig10 := w.Fig10()
	if len(fig10.SKUs) != 12 {
		t.Fatalf("login products = %d", len(fig10.SKUs))
	}
	if len(fig10.Accounts) != 4 {
		t.Fatalf("accounts = %v", fig10.Accounts)
	}
	totalDiff := 0
	for _, acc := range []string{"userA", "userB", "userC"} {
		totalDiff += fig10.Differing(acc, 0.001)
	}
	if totalDiff == 0 {
		t.Fatal("no login price variation observed (Fig. 10 expects some)")
	}
}

func TestEndToEndPersonaExperiment(t *testing.T) {
	w := runEndToEnd(t).world
	rep, err := w.RunPersonaExperiment([]string{"www.amazon.com", "www.hotels.com"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProductsCompared == 0 {
		t.Fatal("no products compared")
	}
	if rep.Differing != 0 {
		t.Fatalf("personas changed %d prices; the paper found none", rep.Differing)
	}
}

func TestEndToEndThirdPartyAudit(t *testing.T) {
	w := runEndToEnd(t).world
	presence, err := w.ThirdPartyAudit()
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"ga": 0.95, "doubleclick": 0.65, "facebook": 0.80,
		"pinterest": 0.45, "twitter": 0.40,
	}
	for key, want := range checks {
		got := presence[key]
		if got < want-0.06 || got > want+0.06 {
			t.Errorf("%s presence = %.2f, want %.2f±0.06", key, got, want)
		}
	}
}

func TestEndToEndReportRenders(t *testing.T) {
	w := runEndToEnd(t).world
	text := w.Report(nil, nil)
	for _, want := range []string{
		"Fig. 1", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
		"Fig. 8", "Fig. 9", "Fig. 10",
		"www.digitalrev.com", "Tampere",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestEnsureAnchorsIdempotent(t *testing.T) {
	w := runEndToEnd(t).world
	before := w.Backend.Checks()
	if err := w.EnsureAnchors(w.Crawled); err != nil {
		t.Fatal(err)
	}
	if w.Backend.Checks() != before {
		t.Fatal("EnsureAnchors re-checked domains that already had anchors")
	}
}

func TestRunLoginExperimentErrors(t *testing.T) {
	w := smallWorld(t)
	if _, err := w.RunLoginExperiment("ghost.example.com", 5, []string{"a"}); err == nil {
		t.Error("unknown domain accepted")
	}
	// A domain with no ebooks.
	if _, err := w.RunLoginExperiment("www.homedepot.com", 5, []string{"a"}); err == nil {
		t.Error("ebook-less domain accepted")
	}
}

func TestSegmentDetectorFlagsPlantedRetailer(t *testing.T) {
	w := NewWorld(WorldOptions{
		Seed: 17, LongTail: 10,
		SegmentPricingDomain: "www.hotels.com",
	})
	findings, err := w.RunSegmentDetector(
		[]string{"www.hotels.com", "www.amazon.com", "www.digitalrev.com"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	byDomain := map[string]SegmentFinding{}
	for _, f := range findings {
		byDomain[f.Domain] = f
	}
	if !byDomain["www.hotels.com"].Flagged {
		t.Error("planted segment pricer not flagged")
	}
	if byDomain["www.amazon.com"].Flagged || byDomain["www.digitalrev.com"].Flagged {
		t.Error("innocent retailer flagged")
	}
}

func TestSegmentDetectorCleanWorld(t *testing.T) {
	w := runEndToEnd(t).world
	findings, err := w.RunSegmentDetector([]string{"www.guess.eu"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if findings[0].Flagged {
		t.Error("clean world flagged a retailer")
	}
}

// oracleFlakyHash01 is the failure injector's hash as it stood before it
// wrote its key fields into the hash one by one: fmt joins the key and
// hash/fnv sums it.
func oracleFlakyHash01(seed int64, host, path, ip, day string) float64 {
	key := fmt.Sprintf("%s|%s|%s|%s", host, path, ip, day)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(key))
	v := h.Sum64()
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return float64(v>>11) / float64(1<<53)
}

// TestFlakyHashMatchesOracle pins the injected failures: the same
// (URL, client, day) keys must fail as before, under any seed, so every
// dataset and error rate stays what it was.
func TestFlakyHashMatchesOracle(t *testing.T) {
	hosts := []string{"www.digitalrev.com", "www.amazon.com", ""}
	paths := []string{"/product/WWW-00001", "/category/photography", "/", "", "/a|b"}
	ips := []string{"10.0.1.50", "10.13.2.200", ""}
	days := []string{"2013-02-01", "2013-02-02", ""}
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		f := &flakyHandler{seed: seed}
		for _, host := range hosts {
			for _, path := range paths {
				for _, ip := range ips {
					for _, day := range days {
						got, want := f.hash01(host, path, ip, day), oracleFlakyHash01(seed, host, path, ip, day)
						if got != want {
							t.Fatalf("seed %d %q %q %q %q: hash01 %v, oracle %v", seed, host, path, ip, day, got, want)
						}
					}
				}
			}
		}
	}
	f := &flakyHandler{seed: 1}
	if allocs := testing.AllocsPerRun(100, func() {
		f.hash01("www.digitalrev.com", "/product/WWW-00001", "10.0.1.50", "2013-02-01")
	}); allocs != 0 {
		t.Fatalf("hash01 allocates %.1f times, want 0", allocs)
	}
}
