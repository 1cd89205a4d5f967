package aggregate_test

import (
	"fmt"
	"testing"
	"time"

	"sheriff/internal/aggregate"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/store"
)

// crowdRows builds n/14 crowd checks: one product priced from every
// vantage point at one instant, spread over 300 domains.
func crowdRows(n int) []store.Observation {
	vps := geo.VantagePoints()
	out := make([]store.Observation, 0, n)
	for k := 0; len(out) < n; k++ {
		domain := fmt.Sprintf("www.crowd%03d.example", k%300)
		sku := fmt.Sprintf("C-%d", k/300%50)
		at := day.Add(time.Duration(k) * time.Minute)
		for i, vp := range vps {
			out = append(out, store.Observation{
				Domain: domain, SKU: sku, VP: vp.ID, Country: vp.Location.Country.Code,
				PriceUnits: int64(1000 + 7*(k%13) + i%2), Currency: "USD", Time: at,
				Round: -1, Source: store.SourceCrowd, OK: true,
			})
		}
	}
	return out
}

// crawlRows builds the crawl campaign's shape: in every round, every
// product of every domain fetched from every vantage point, one
// product-round after another. Domains alternate geo pricing, a moving
// consensus and flat prices; a few fetches fail to extract.
func crawlRows(domains, products, rounds int) []store.Observation {
	vps := geo.VantagePoints()
	var out []store.Observation
	for r := 0; r < rounds; r++ {
		at := day.Add(time.Duration(r) * 24 * time.Hour)
		for d := 0; d < domains; d++ {
			domain := fmt.Sprintf("www.crawl%02d.example", d)
			for p := 0; p < products; p++ {
				for i, vp := range vps {
					o := store.Observation{
						Domain: domain, SKU: fmt.Sprintf("P-%d", p), VP: vp.ID,
						Country: vp.Location.Country.Code, Time: at,
						Round: r, Source: store.SourceCrawl,
					}
					units := int64(2000 + 100*p)
					switch d % 3 {
					case 0:
						units += int64(i%4) * 150
					case 1:
						units += int64(r%5) * 90
					}
					if (d+p+r+i)%31 == 0 {
						o.Err = "extract: no price found"
					} else {
						o.PriceUnits, o.Currency, o.OK = units, "USD", true
					}
					out = append(out, o)
				}
			}
		}
	}
	return out
}

// BenchmarkEngineRebuild measures the open-time rebuild (NewReader) over
// a crowd-only and a crawl-only store of about 100K rows each: the crowd
// rebuild is the counter and ratio fold, the crawl rebuild adds one
// detector judgement per product-round.
func BenchmarkEngineRebuild(b *testing.B) {
	market := fx.NewMarket(7)
	for _, c := range []struct {
		name string
		rows []store.Observation
	}{
		{"crowd", crowdRows(100_000)},
		{"crawl", crawlRows(17, 20, 21)},
	} {
		st := store.New()
		st.AddAll(c.rows)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if eng := aggregate.NewReader(st, market, aggregate.Options{}); eng.Stats().ObservationsFolded != uint64(len(c.rows)) {
					b.Fatal("rebuild folded the wrong row count")
				}
			}
		})
	}
}
