// Tests of the public facade: everything a downstream user touches goes
// through package sheriff, so this file doubles as executable
// documentation of the public API.
package sheriff_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sheriff"
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/shop"
)

func TestPublicAPIWorldAndCheck(t *testing.T) {
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 42, LongTail: 6})
	if len(w.Crawled) != 21 {
		t.Fatalf("crawled = %d", len(w.Crawled))
	}
	if got := len(sheriff.VantagePoints()); got != 14 {
		t.Fatalf("vantage points = %d", got)
	}

	// A check through the public facade.
	r := w.Retailers["www.digitalrev.com"]
	p := r.Catalog().Products()[0]
	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := geo.AddrFor(loc, 61)
	if err != nil {
		t.Fatal(err)
	}
	amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: w.Clock.Now(), IP: addr.String()})
	res, err := w.Backend.Check(sheriff.CheckRequest{
		URL:       "http://www.digitalrev.com/product/" + p.SKU,
		Highlight: money.Format(amt, amt.Currency.Style()),
		UserAddr:  addr,
		UserID:    "api-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Varies {
		t.Fatalf("digitalrev should vary: %+v", res)
	}
	if len(res.Prices) != 14 {
		t.Fatalf("prices = %d", len(res.Prices))
	}
}

func TestPublicAPIPipelineAndFigures(t *testing.T) {
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 8, LongTail: 6})
	crowdRep, err := w.RunCrowd(sheriff.CrowdOptions{Users: 20, Requests: 40, Span: 5 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	domains := []string{"www.digitalrev.com", "www.energie.it", "www.homedepot.com"}
	if err := w.EnsureAnchors(domains); err != nil {
		t.Fatal(err)
	}
	crawlRep, err := w.RunCrawl(sheriff.CrawlOptions{Domains: domains, MaxProducts: 6, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if crawlRep.Extracted == 0 {
		t.Fatal("nothing extracted")
	}

	// Figure accessors return data through re-exported types.
	var _ []sheriff.DomainCount = w.Fig1()
	var _ []sheriff.DomainExtent = w.Fig3()
	var _ []sheriff.DomainBox = w.Fig4()
	points := w.Fig5()
	var _ []sheriff.Fig5EnvelopeBand = toBands(sheriff.EnvelopeOf(points))
	var _ []sheriff.LocationBox = w.Fig7()
	grid := w.Fig8("www.homedepot.com", "city")
	if len(grid.Locations) == 0 {
		t.Fatal("empty grid")
	}
	report := w.Report(crowdRep)
	if !strings.Contains(report, "Fig. 3") {
		t.Fatal("report incomplete")
	}

	// Dataset persistence through the facade.
	var buf bytes.Buffer
	if err := w.Store.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sheriff.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != w.Store.Len() {
		t.Fatalf("dataset round trip: %d != %d", back.Len(), w.Store.Len())
	}
}

// toBands exists to type-check EnvelopeOf's result against the alias.
func toBands(in []sheriff.Fig5EnvelopeBand) []sheriff.Fig5EnvelopeBand { return in }

func TestPublicAPISegmentDetector(t *testing.T) {
	w := sheriff.NewWorld(sheriff.WorldOptions{
		Seed: 9, LongTail: 6, SegmentPricingDomain: "www.guess.eu",
	})
	findings, err := w.RunSegmentDetector([]string{"www.guess.eu"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !findings[0].Flagged {
		t.Fatal("segment pricer not flagged through public API")
	}
}
