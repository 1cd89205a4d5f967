// Benchmark harness: one benchmark per paper table/figure (regenerating
// the exact rows/series the paper reports, against a fixed campaign
// dataset) plus micro-benchmarks for every pipeline stage and the
// ablation baselines called out in DESIGN.md §4.
//
// Run with: go test -bench=. -benchmem
package sheriff_test

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sheriff"
	"sheriff/internal/analysis"
	"sheriff/internal/api"
	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/reference"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// fixture is the shared benchmark dataset: a reduced-scale but complete
// run of both campaigns plus the login experiment. Built once.
type fixture struct {
	world *sheriff.World
	page  string      // a representative product page
	doc   *htmlx.Node // parsed form of page
	anch  extract.Anchor
	truth money.Amount
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func benchFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 12})
		if _, err := w.RunCrowd(sheriff.CrowdOptions{Users: 40, Requests: 120, Span: 12 * 24 * time.Hour}); err != nil {
			panic(err)
		}
		if err := w.EnsureAnchors(w.Crawled); err != nil {
			panic(err)
		}
		if _, err := w.RunCrawl(sheriff.CrawlOptions{MaxProducts: 8, Rounds: 3}); err != nil {
			panic(err)
		}
		if _, err := w.RunLoginExperiment("www.amazon.com", 10, []string{"userA", "userB", "userC"}); err != nil {
			panic(err)
		}

		// A representative page + anchor for the extraction benches.
		r := w.Retailers["www.digitalrev.com"]
		p := r.Catalog().Products()[0]
		loc, err := geo.LocationOf("US", "Boston")
		if err != nil {
			panic(err)
		}
		visit := shop.Visit{Loc: loc, Time: w.Clock.Now(), IP: "10.0.1.200"}
		page := r.RenderProduct(p, visit)
		doc, err := htmlx.ParseString(page)
		if err != nil {
			panic(err)
		}
		truth := r.DisplayPrice(p, visit)
		anch, err := extract.Derive(doc, money.Format(truth, truth.Currency.Style()), money.USD)
		if err != nil {
			panic(err)
		}
		fix = &fixture{world: w, page: page, doc: doc, anch: anch, truth: truth}
	})
	return fix
}

// --- Figure/table benchmarks (one per paper exhibit) ---

// BenchmarkFig1CrowdRequestCounts regenerates Fig. 1: domains ranked by
// crowd requests with price differences.
func BenchmarkFig1CrowdRequestCounts(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := f.world.Fig1(); len(rows) == 0 {
			b.Fatal("empty Fig1")
		}
	}
}

// BenchmarkFig2CrowdRatioBoxplots regenerates Fig. 2.
func BenchmarkFig2CrowdRatioBoxplots(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := f.world.Fig2(); len(rows) == 0 {
			b.Fatal("empty Fig2")
		}
	}
}

// BenchmarkFig3CrawlExtent regenerates Fig. 3 (includes the persistence
// and A/B-rejection machinery).
func BenchmarkFig3CrawlExtent(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := f.world.Fig3(); len(rows) != 21 {
			b.Fatalf("Fig3 rows = %d", len(rows))
		}
	}
}

// BenchmarkFig4CrawlRatioBoxplots regenerates Fig. 4.
func BenchmarkFig4CrawlRatioBoxplots(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := f.world.Fig4(); len(rows) == 0 {
			b.Fatal("empty Fig4")
		}
	}
}

// BenchmarkFig5RatioVsPrice regenerates the Fig. 5 scatter and its
// price-band envelope.
func BenchmarkFig5RatioVsPrice(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := f.world.Fig5()
		if len(points) == 0 {
			b.Fatal("empty Fig5")
		}
		sheriff.EnvelopeOf(points)
	}
}

// BenchmarkFig6StrategyProfiles regenerates both Fig. 6 panels (per-VP
// series plus multiplicative/additive model fits).
func BenchmarkFig6StrategyProfiles(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := f.world.Fig6("www.digitalrev.com"); len(s) == 0 {
			b.Fatal("empty Fig6a")
		}
		if s := f.world.Fig6("www.energie.it"); len(s) == 0 {
			b.Fatal("empty Fig6b")
		}
	}
}

// BenchmarkFig7LocationBoxplots regenerates Fig. 7.
func BenchmarkFig7LocationBoxplots(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := f.world.Fig7(); len(rows) != 14 {
			b.Fatalf("Fig7 rows = %d", len(rows))
		}
	}
}

// BenchmarkFig8PairwiseGrids regenerates all three Fig. 8 grids.
func BenchmarkFig8PairwiseGrids(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := f.world.Fig8("www.homedepot.com", "city"); len(g.Locations) == 0 {
			b.Fatal("empty homedepot grid")
		}
		f.world.Fig8("www.amazon.com", "country")
		f.world.Fig8("store.killah.com", "country")
	}
}

// BenchmarkFig9FinlandPremium regenerates Fig. 9.
func BenchmarkFig9FinlandPremium(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := f.world.Fig9(); len(rows) == 0 {
			b.Fatal("empty Fig9")
		}
	}
}

// BenchmarkFig10LoginExperiment regenerates the Fig. 10 series from the
// login-experiment observations.
func BenchmarkFig10LoginExperiment(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := f.world.Fig10()
		if len(ls.SKUs) == 0 {
			b.Fatal("empty Fig10")
		}
	}
}

// BenchmarkDatasetSummary regenerates the Sec. 3.2/4.1 dataset summary.
func BenchmarkDatasetSummary(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sheriff.Summarize(f.world.Store, 340, 18, 600)
		if s.CrawledDomains != 21 {
			b.Fatalf("summary: %+v", s)
		}
	}
}

// BenchmarkThirdPartyPresence regenerates the Sec. 4.4 tracker table.
func BenchmarkThirdPartyPresence(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := f.world.ThirdPartyAudit()
		if err != nil || p["ga"] == 0 {
			b.Fatalf("audit: %v %v", p, err)
		}
	}
}

// BenchmarkPersonaExperiment runs the Sec. 4.4 persona comparison
// (train two personas, compare product prices) per iteration.
func BenchmarkPersonaExperiment(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := f.world.RunPersonaExperiment([]string{"www.digitalrev.com"}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Differing != 0 {
			b.Fatal("persona effect appeared")
		}
	}
}

// BenchmarkCurrencyFilter measures the Sec. 2.2 worst-case-rate filter on
// a 14-quote group (one per vantage point).
func BenchmarkCurrencyFilter(b *testing.B) {
	market := fx.NewMarket(1)
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	currencies := []money.Currency{
		money.USD, money.EUR, money.GBP, money.BRL, money.USD, money.EUR,
		money.USD, money.EUR, money.USD, money.USD, money.GBP, money.EUR,
		money.USD, money.BRL,
	}
	quotes := make([]fx.Quote, len(currencies))
	for i, c := range currencies {
		quotes[i] = fx.Quote{Amount: money.FromMinor(int64(10000+i*137), c), Day: day}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		market.RealVariation(quotes)
	}
}

// --- Pipeline micro-benchmarks ---

// BenchmarkCrowdCheck measures one complete $heriff check: user-side
// fetch, anchor derivation, synchronized 14-VP fan-out, extraction,
// currency filter, storage.
func BenchmarkCrowdCheck(b *testing.B) {
	f := benchFixture(b)
	r := f.world.Retailers["www.digitalrev.com"]
	ps := r.Catalog().Products()
	loc, _ := geo.LocationOf("US", "Boston")
	addr, _ := geo.AddrFor(loc, 201)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: f.world.Clock.Now(), IP: addr.String()})
		_, err := f.world.Backend.Check(sheriff.CheckRequest{
			URL:       "http://www.digitalrev.com/product/" + p.SKU,
			Highlight: money.Format(amt, amt.Currency.Style()),
			UserAddr:  addr,
			UserID:    "bench",
		})
		// The world injects deterministic transient 503s (8.5% of URLs per
		// day); a check bouncing off one is modeled reality, not a bench
		// failure.
		if err != nil && !strings.Contains(err.Error(), "status 503") {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRender measures storefront page generation.
func BenchmarkPageRender(b *testing.B) {
	f := benchFixture(b)
	r := f.world.Retailers["www.digitalrev.com"]
	p := r.Catalog().Products()[0]
	loc, _ := geo.LocationOf("DE", "Berlin")
	v := shop.Visit{Loc: loc, Time: f.world.Clock.Now(), IP: "10.2.0.9"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if page := r.RenderProduct(p, v); len(page) == 0 {
			b.Fatal("empty page")
		}
	}
}

// BenchmarkPageParse measures HTML parsing of a product page.
func BenchmarkPageParse(b *testing.B) {
	f := benchFixture(b)
	b.SetBytes(int64(len(f.page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htmlx.ParseString(f.page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnchorDerive measures highlight-to-anchor derivation.
func BenchmarkAnchorDerive(b *testing.B) {
	f := benchFixture(b)
	highlight := money.Format(f.truth, f.truth.Currency.Style())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.Derive(f.doc, highlight, money.USD); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExtractionAnchor measures anchor-based extraction — the
// paper's approach (DESIGN.md ablation 1, fast path).
func BenchmarkAblationExtractionAnchor(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amt, err := f.anch.Extract(f.doc, money.USD)
		if err != nil || amt.Units != f.truth.Units {
			b.Fatalf("extract: %v %v", amt, err)
		}
	}
}

// BenchmarkAblationExtractionNaive measures the first-price-on-page
// strawman (DESIGN.md ablation 1, baseline).
func BenchmarkAblationExtractionNaive(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.NaiveFirst(f.doc, money.USD); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriceParse measures localized price parsing.
func BenchmarkPriceParse(b *testing.B) {
	inputs := []string{"$1,234.56", "1.234,56 €", "R$ 59,90", "£9.99", "1 234,56 zł"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := money.Parse(inputs[i%len(inputs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeoLookup measures GeoIP resolution.
func BenchmarkGeoLookup(b *testing.B) {
	db := geo.NewDB()
	vps := geo.VantagePoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Lookup(vps[i%len(vps)].Addr); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// --- Observation store benchmarks ---

// benchObservations synthesizes a campaign-shaped dataset: crawl rows
// over domains × SKUs × vantage points × rounds, with a crowd slice
// (~1% of rows, as in the paper's 1.5K checks vs 188K crawl prices) that
// partially overlaps the crawled product space.
func benchObservations(n int) []store.Observation {
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	out := make([]store.Observation, n)
	for i := range out {
		domain := fmt.Sprintf("shop%02d.example.com", i%40)
		src := store.SourceCrawl
		round := i % 7
		sku := fmt.Sprintf("P-%d", (i/40)%80)
		if i%97 == 0 {
			src, round = store.SourceCrowd, -1
			if i%5 != 0 {
				sku = fmt.Sprintf("C-%d", (i/40)%200)
			}
		}
		out[i] = store.Observation{
			Domain: domain, SKU: sku,
			VP: fmt.Sprintf("vp-%d", i%14), PriceUnits: int64(1000 + i%5000),
			Currency: "USD", Time: day.AddDate(0, 0, round),
			Round: round, Source: src, OK: i%11 != 0,
		}
	}
	return out
}

var storeBenchSizes = []struct {
	name string
	n    int
}{
	{"10K", 10_000},
	{"100K", 100_000},
	{"1M", 1_000_000},
}

// BenchmarkStoreAdd measures serial single-observation ingest, index
// maintenance included.
func BenchmarkStoreAdd(b *testing.B) {
	for _, size := range storeBenchSizes {
		obs := benchObservations(size.n)
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := store.New()
				for _, o := range obs {
					st.AddAll([]store.Observation{o})
				}
			}
		})
	}
}

// BenchmarkStoreAddAll measures batch ingest in fan-out-sized batches
// (14 observations, one product check), the backend/crawler write shape.
func BenchmarkStoreAddAll(b *testing.B) {
	for _, size := range storeBenchSizes {
		obs := benchObservations(size.n)
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := store.New()
				for j := 0; j < len(obs); j += 14 {
					end := j + 14
					if end > len(obs) {
						end = len(obs)
					}
					st.AddAll(obs[j:end])
				}
			}
		})
	}
}

// BenchmarkStoreFilterDomain measures a domain-scoped query on the
// sharded, indexed engine (O(result) posting-list walk).
func BenchmarkStoreFilterDomain(b *testing.B) {
	for _, size := range storeBenchSizes {
		obs := benchObservations(size.n)
		st := store.New()
		st.AddAll(obs)
		q := store.Query{Domain: "shop02.example.com", Round: 3, OnlyOK: true}
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rows := st.Filter(q); len(rows) == 0 {
					b.Fatal("empty filter")
				}
			}
		})
	}
}

// BenchmarkStoreGroupsStream measures the zero-materialization streaming
// path the figures actually run on.
func BenchmarkStoreGroupsStream(b *testing.B) {
	for _, size := range storeBenchSizes {
		st := store.New()
		st.AddAll(benchObservations(size.n))
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				groups := 0
				for _, g := range st.Groups(store.SourceCrawl) {
					groups += len(g)
				}
				if groups == 0 {
					b.Fatal("empty stream")
				}
			}
		})
	}
}

// BenchmarkStoreConcurrentMixed measures the fan-out contention case the
// sharding exists for: parallel writers on distinct domains racing
// domain-scoped readers.
func BenchmarkStoreConcurrentMixed(b *testing.B) {
	obs := benchObservations(100_000)
	st := store.New()
	st.AddAll(obs)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%4 == 0 {
				st.AddAll(obs[i%1000*14 : i%1000*14+14])
			} else {
				st.Filter(store.Query{Domain: obs[i%len(obs)].Domain, Round: 3, OnlyOK: true})
			}
			i++
		}
	})
}

// BenchmarkStoreAppendAndQuery measures observation ingest plus a domain
// query on a growing store.
func BenchmarkStoreAppendAndQuery(b *testing.B) {
	st := store.New()
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.AddAll([]store.Observation{{
			Domain: "bench.example.com", SKU: "B-1", VP: "us-bos",
			PriceUnits: int64(i), Currency: "USD", Time: day,
			Round: i % 7, Source: store.SourceCrawl, OK: true,
		}})
		if i%1024 == 0 {
			st.Filter(store.Query{Domain: "bench.example.com", Round: i % 7, OnlyOK: true})
		}
	}
}

// BenchmarkDurableAddAll measures the durable write path in the backend's
// fan-out shape (14-observation single-domain batches): WAL framing, the
// shard log append, and — under fsync=always — the per-batch fsync that
// bounds crash loss to zero. Sub-benchmark names are stable strings with
// no numeric tail, so the CI allocs/op gate pairs them across machines
// (see cmd/benchjson: a GOMAXPROCS suffix is stripped only when uniform).
func BenchmarkDurableAddAll(b *testing.B) {
	batch := benchObservations(100_000)[:14]
	for i := range batch {
		batch[i].Domain = "durable.example.com"
	}
	for _, policy := range []store.FsyncPolicy{store.FsyncNever, store.FsyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			d, _, err := store.OpenDurable(b.TempDir(), store.DurableOptions{
				Fsync: policy, CompactWALBytes: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.AddAll(batch)
			}
			b.StopTimer()
			if d.Len() != 14*b.N {
				b.Fatalf("Len = %d, want %d", d.Len(), 14*b.N)
			}
		})
	}
}

// BenchmarkRecovery measures opening a 50K-observation data directory in
// its extreme states: the whole dataset in the WAL tail (a kill -9
// right after heavy writes), the dataset compacted into time-bucketed
// snapshot segments — benchObservations spans 7 simulated days, so the
// default 24h bucket yields 7 buckets with the 6 cold ones gzipped, and
// recovery pays the decompression — and the same dataset compacted flat
// into one uncompressed bucket for contrast. Sub-benchmark names are
// stable; the size lives here in the comment, not in the name.
func BenchmarkRecovery(b *testing.B) {
	const rows = 50_000
	prep := func(b *testing.B, opts store.DurableOptions, compact bool) string {
		b.Helper()
		dir := b.TempDir()
		opts.Fsync = store.FsyncNever
		opts.CompactWALBytes = -1
		d, _, err := store.OpenDurable(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		obs := benchObservations(rows)
		for j := 0; j < len(obs); j += 14 {
			end := j + 14
			if end > len(obs) {
				end = len(obs)
			}
			d.AddAll(obs[j:end])
		}
		if compact {
			if err := d.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, mode := range []struct {
		name    string
		opts    store.DurableOptions
		compact bool
	}{
		{"wal-replay", store.DurableOptions{}, false},
		{"snapshot-load", store.DurableOptions{}, true},
		// A width whose epoch-aligned boundaries bracket the whole
		// dataset, so the flat contrast really is one bucket.
		{"snapshot-load-flat", store.DurableOptions{BucketDuration: 1000 * 24 * time.Hour}, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dir := prep(b, mode.opts, mode.compact)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, rep, err := store.OpenReadOnly(dir)
				if err != nil {
					b.Fatal(err)
				}
				if st.Len() != rows || rep.Rows() != rows {
					b.Fatalf("recovered %d rows, want %d", st.Len(), rows)
				}
			}
		})
	}
}

// BenchmarkStoreScanTimeWindow measures a time-bounded ScanRange — the
// v1 observations path with since/until — where the only filter is the
// time window, so the store answers from bucket selection (one of the
// dataset's 7 daily buckets scanned, 6 skipped) instead of walking the
// full sequence range.
func BenchmarkStoreScanTimeWindow(b *testing.B) {
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, size := range storeBenchSizes {
		st := store.New()
		st.AddAll(benchObservations(size.n))
		q := store.Query{Round: -1, Since: day.AddDate(0, 0, 2), Until: day.AddDate(0, 0, 3)}
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows := 0
				for _, o := range st.ScanRange(q, 0, st.Watermark()) {
					_ = o
					rows++
				}
				if rows == 0 {
					b.Fatal("empty window")
				}
			}
		})
	}
}

// BenchmarkStrategyFit measures the Fig. 6 model-fitting kernel.
func BenchmarkStrategyFit(b *testing.B) {
	pts := make([]analysis.RatioPoint, 100)
	for i := range pts {
		p := 10.0 * float64(i+1)
		pts[i] = analysis.RatioPoint{MinUSD: p, Ratio: 1.05 + 8/p}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fit := analysis.FitStrategy(pts); fit.Kind != analysis.StrategyAdditive {
			b.Fatalf("fit = %+v", fit)
		}
	}
}

// --- Campaign-engine benchmarks (parallel matrix + concurrent checks) ---

// benchMatrix runs a reduced scenario-matrix sweep, one world per
// GOMAXPROCS worker: the parallel campaign engine's end-to-end cost
// (world build, anchor learning, synchronized crawl, detection) per
// scenario world.
func benchMatrix(b *testing.B) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := sheriff.RunScenarioMatrix(sheriff.MatrixOptions{
			Seed: 1, Products: 4, Rounds: 2,
			Scenarios: []string{"control", "geo-mult", "fingerprint", "weekday"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Outcomes) != 4 {
			b.Fatalf("outcomes = %d", len(rep.Outcomes))
		}
	}
}

// BenchmarkScenarioMatrixSequential is the GOMAXPROCS=1 baseline: one
// world at a time, and the Go runtime on one proc.
func BenchmarkScenarioMatrixSequential(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchMatrix(b)
}

// BenchmarkScenarioMatrixParallel runs the same sweep at the binary's
// GOMAXPROCS (the -N suffix of its name), as the matrix ships; on
// multicore hardware the isolated worlds overlap and wall time drops
// toward 1/N of the sequential run.
func BenchmarkScenarioMatrixParallel(b *testing.B) { benchMatrix(b) }

// BenchmarkCrowdCheckConcurrent hammers Backend.Check from GOMAXPROCS
// goroutines at one simulated instant — the crowd-load shape. The
// single-flight page cache collapses repeated (product × vantage point)
// fetches across the concurrent users.
func BenchmarkCrowdCheckConcurrent(b *testing.B) {
	f := benchFixture(b)
	r := f.world.Retailers["www.digitalrev.com"]
	ps := r.Catalog().Products()
	loc, _ := geo.LocationOf("US", "Boston")
	b.ResetTimer()
	var next int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(atomic.AddInt64(&next, 1))
			addr, _ := geo.AddrFor(loc, 100+i%100)
			p := ps[i%len(ps)]
			amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: f.world.Clock.Now(), IP: addr.String()})
			_, err := f.world.Backend.Check(sheriff.CheckRequest{
				URL:       "http://www.digitalrev.com/product/" + p.SKU,
				Highlight: money.Format(amt, amt.Currency.Style()),
				UserAddr:  addr,
				UserID:    "bench-concurrent",
			})
			if err != nil && !strings.Contains(err.Error(), "status 503") {
				b.Fatal(err)
			}
		}
	})
}

// --- v1 HTTP API benchmarks (PR 5) ---

// apiBenchServer builds a dedicated world behind the full v1 stack
// (middleware included) over real TCP. Dedicated — API checks mutate
// the store, and the shared fixture's dataset must stay fixed for the
// figure benchmarks.
func apiBenchServer(b *testing.B, preload int) (*sheriff.World, *httptest.Server) {
	b.Helper()
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6})
	if preload > 0 {
		w.Store.AddAll(benchObservations(preload))
	}
	srv := httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{
		Logger: log.New(io.Discard, "", 0),
	}))
	b.Cleanup(srv.Close)
	return w, srv
}

// BenchmarkAPICheckHTTP measures one crowd check end to end over the
// wire: middleware stack, JSON decode, the backend's synchronized 14-VP
// fan-out (page-cache-deduped across iterations), JSON encode.
func BenchmarkAPICheckHTTP(b *testing.B) {
	w, srv := apiBenchServer(b, 0)
	r := w.Retailers["www.digitalrev.com"]
	p := r.Catalog().Products()[0]
	loc, _ := geo.LocationOf("US", "Boston")
	addr, _ := geo.AddrFor(loc, 61)
	amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: w.Clock.Now(), IP: addr.String()})
	payload := fmt.Sprintf(
		`{"url":"http://www.digitalrev.com/product/%s","highlight":"%s","user_addr":"%s","user_id":"bench"}`,
		p.SKU, money.Format(amt, amt.Currency.Style()), addr)
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/api/v1/checks", "application/json", strings.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkObservationsStream measures the NDJSON export of a
// 100K-observation dataset: store iterators straight onto the socket,
// decoder-side bytes discarded.
func BenchmarkObservationsStream(b *testing.B) {
	_, srv := apiBenchServer(b, 100_000)
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/observations", nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("empty stream")
		}
	}
}

// --- Incremental analysis engine benchmarks (PR 6) ---

// denseObservations builds n rows concentrated on a handful of heavy
// domains (200 SKUs x 14 VPs x rotating rounds) — the shape where a
// full per-domain recompute is expensive and the aggregate fold's
// O(delta) advantage is unambiguous.
func denseObservations(n, domains int) []store.Observation {
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	out := make([]store.Observation, n)
	for i := range out {
		round := (i / (domains * 200 * 14)) % 7
		out[i] = store.Observation{
			Domain: fmt.Sprintf("dense%02d.example.com", i%domains),
			SKU:    fmt.Sprintf("P-%d", (i/domains)%200),
			VP:     fmt.Sprintf("vp-%d", (i/(domains*200))%14),
			// Price varies by VP so groups carry real variation work.
			PriceUnits: int64(1000 + (i/(domains*200))%14*150 + i%7),
			Currency:   "USD", Time: day.AddDate(0, 0, round),
			Round: round, Source: store.SourceCrawl, OK: i%13 != 0,
		}
	}
	return out
}

// incrementalBenchWorld preloads a store+engine pair with rows rows.
func incrementalBenchWorld(b *testing.B, rows int) (*store.Store, *sheriff.AnalysisEngine, *fx.Market) {
	b.Helper()
	market := fx.NewMarket(1)
	st := store.New()
	eng := sheriff.NewAnalysisEngine(st, market, sheriff.AnalysisOptions{})
	st.AddAll(denseObservations(rows, 5))
	return st, eng, market
}

// reportDelta is the per-iteration write the report benchmarks pay: a
// small batch landing on the reported domain, so neither path can serve
// a stale answer.
func reportDelta(i int) []store.Observation {
	day := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	return []store.Observation{{
		Domain: "dense00.example.com", SKU: fmt.Sprintf("P-%d", i%200),
		VP: "vp-0", PriceUnits: int64(1500 + i%97), Currency: "USD",
		Time: day, Round: i % 7, Source: store.SourceCrawl, OK: true,
	}}
}

// BenchmarkDomainReportIncremental measures report freshness on the
// write path served off the aggregates: per iteration one delta batch
// lands on the domain (folded by the engine's store observer — that cost
// is inside the loop, deliberately) and the report is assembled from
// fold state. Work is O(delta + products of the domain), independent of
// how many rows the domain has accumulated.
func BenchmarkDomainReportIncremental(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"100K", 100_000}, {"300K", 300_000}} {
		b.Run(size.name, func(b *testing.B) {
			st, eng, _ := incrementalBenchWorld(b, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.AddAll(reportDelta(i))
				rep := api.ReportFromEngine(eng, "dense00.example.com")
				if rep.Observations == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}

// BenchmarkDomainReportFull is the batch reference path
// (reference.FullDomainReport, linked by no binary) under the
// identical write pattern: every report recomputes counters, ratios and
// the strategy verdict from the domain's raw rows — O(rows of the
// domain) per call, growing with the dataset.
func BenchmarkDomainReportFull(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"100K", 100_000}, {"300K", 300_000}} {
		b.Run(size.name, func(b *testing.B) {
			st, _, market := incrementalBenchWorld(b, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.AddAll(reportDelta(i))
				rep := reference.FullDomainReport(st, market, "dense00.example.com")
				if rep.Observations == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}

// BenchmarkDetectIncrementalVsFull holds the two strategy-verdict paths
// against each other on the same 100K-row store: the engine answers from
// its per-family tallies, the full path re-judges every product group.
func BenchmarkDetectIncrementalVsFull(b *testing.B) {
	st, eng, market := incrementalBenchWorld(b, 100_000)
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep := eng.StrategyReport("dense00.example.com")
			if len(rep.Evidence) == 0 {
				b.Fatal("empty verdict")
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep := reference.DetectStrategies(st, market, "dense00.example.com")
			if len(rep.Evidence) == 0 {
				b.Fatal("empty verdict")
			}
		}
	})
}
