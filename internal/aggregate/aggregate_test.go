package aggregate_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sheriff/internal/aggregate"
	"sheriff/internal/events"
	"sheriff/internal/fx"
	"sheriff/internal/reference"
	"sheriff/internal/store"
)

var day = time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC)

// obs builds one crawl observation; units <= 0 marks a failed extraction.
func obs(domain, sku, vp string, units int64, currency string, t time.Time) store.Observation {
	return store.Observation{
		Domain: domain, SKU: sku, VP: vp, Country: "US", City: "New York",
		PriceUnits: units, Currency: currency, Time: t,
		Round: -1, Source: store.SourceCrowd, OK: units > 0,
	}
}

// fixture populates a store with a spread of domains, products,
// currencies and failure rows — enough shape to exercise every fold
// branch without a full world.
func fixture(st store.Backend) { fixtureAt(st, day) }

// fixtureAt is fixture with the observation times anchored at `when`, so
// multi-day datasets (the retention tests) reuse the same shape.
func fixtureAt(st store.Backend, when time.Time) {
	var batch []store.Observation
	for d := 0; d < 5; d++ {
		domain := fmt.Sprintf("shop-%d.example", d)
		for p := 0; p < 8; p++ {
			sku := fmt.Sprintf("SKU-%d", p)
			base := int64(1000 + 100*p)
			batch = append(batch,
				obs(domain, sku, "us-nyc", base, "USD", when),
				obs(domain, sku, "uk-lon", base+int64(d*p)*37, "USD", when.Add(time.Hour)),
				obs(domain, sku, "de-ber", base*2, "EUR", when.Add(2*time.Hour)),
				obs(domain, sku, "br-sao", 0, "", when.Add(3*time.Hour)), // failed extraction
			)
		}
	}
	st.AddAll(batch)
}

// TestSummaryMatchesFullReport is the unit-level equivalence check: the
// aggregate-backed summary must equal the DomainReport the full
// recompute path produces — same counters, same ratios byte for byte,
// same family order. (The root-package differential test does this over
// the full scenario matrix; this one keeps the contract cheap to check.)
func TestSummaryMatchesFullReport(t *testing.T) {
	market := fx.NewMarket(7)
	st := store.New()
	eng := aggregate.New(st, market, aggregate.Options{})
	fixture(st)

	for d := 0; d < 5; d++ {
		domain := fmt.Sprintf("shop-%d.example", d)
		want := reference.FullDomainReport(st, market, domain)
		sum, ok := eng.DomainSummary(domain)
		if !ok {
			t.Fatalf("DomainSummary(%q): domain missing from aggregates", domain)
		}
		got := *sum
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("%s:\n aggregate %+v\n full      %+v", domain, got, want)
		}
	}
}

// TestUnknownDomain pins the absent-domain behaviour: no summary, and a
// StrategyReport with the same all-zero evidence the full detector
// returns for a domain it has never seen.
func TestUnknownDomain(t *testing.T) {
	market := fx.NewMarket(7)
	st := store.New()
	eng := aggregate.New(st, market, aggregate.Options{})

	if _, ok := eng.DomainSummary("never.example"); ok {
		t.Fatal("DomainSummary on an empty engine returned ok")
	}
	got := eng.StrategyReport("never.example")
	want := reference.DetectStrategies(st, market, "never.example")
	if fmt.Sprintf("%+v", got.Evidence) != fmt.Sprintf("%+v", want.Evidence) {
		t.Errorf("StrategyReport evidence:\n aggregate %+v\n full      %+v", got.Evidence, want.Evidence)
	}
}

// TestReportCache checks the hit/rebuild accounting: repeated reads are
// cache hits, a write to the domain invalidates exactly that domain.
func TestReportCache(t *testing.T) {
	market := fx.NewMarket(7)
	st := store.New()
	eng := aggregate.New(st, market, aggregate.Options{})
	fixture(st)

	for i := 0; i < 3; i++ {
		if _, ok := eng.DomainSummary("shop-0.example"); !ok {
			t.Fatal("summary missing")
		}
	}
	s := eng.Stats()
	if s.ReportRebuilds != 1 || s.ReportHits != 2 {
		t.Fatalf("after 3 reads: rebuilds=%d hits=%d, want 1/2", s.ReportRebuilds, s.ReportHits)
	}

	// A write to shop-0 invalidates its cache; shop-1 stays cached.
	if _, ok := eng.DomainSummary("shop-1.example"); !ok {
		t.Fatal("summary missing")
	}
	st.AddAll([]store.Observation{obs("shop-0.example", "SKU-0", "fi-tam", 999, "USD", day)})
	if _, ok := eng.DomainSummary("shop-0.example"); !ok {
		t.Fatal("summary missing")
	}
	if _, ok := eng.DomainSummary("shop-1.example"); !ok {
		t.Fatal("summary missing")
	}
	s = eng.Stats()
	if s.ReportRebuilds != 3 { // shop-0 twice, shop-1 once
		t.Fatalf("rebuilds=%d, want 3", s.ReportRebuilds)
	}
	if s.ReportHits != 3 { // shop-0 twice, shop-1 once
		t.Fatalf("hits=%d, want 3", s.ReportHits)
	}
}

// TestFoldedCounter checks ObservationsFolded tracks the store: rebuild
// rows plus every observed write, under both construction orders.
func TestFoldedCounter(t *testing.T) {
	market := fx.NewMarket(7)
	st := store.New()
	fixture(st) // pre-populate: these rows arrive via rebuild
	eng := aggregate.New(st, market, aggregate.Options{})
	st.AddAll([]store.Observation{obs("late.example", "SKU-0", "us-nyc", 500, "USD", day)})

	if got, want := eng.Stats().ObservationsFolded, uint64(st.Len()); got != want {
		t.Fatalf("ObservationsFolded=%d, want store length %d", got, want)
	}
}

// TestVariationEventExactlyOnce: the folded ratio is monotone, so the
// threshold crossing fires one event per product group no matter how
// many later rows widen the spread — and a rebuild from the same data
// reproduces exactly the same event count.
func TestVariationEventExactlyOnce(t *testing.T) {
	market := fx.NewMarket(7)
	st := store.New()
	eng := aggregate.New(st, market, aggregate.Options{})

	// Same product, ever-wider spread: one crossing, then two widenings.
	st.AddAll([]store.Observation{obs("vary.example", "SKU-0", "us-nyc", 1000, "USD", day)})
	st.AddAll([]store.Observation{obs("vary.example", "SKU-0", "uk-lon", 2000, "USD", day)})
	st.AddAll([]store.Observation{obs("vary.example", "SKU-0", "de-ber", 4000, "USD", day)})
	st.AddAll([]store.Observation{obs("vary.example", "SKU-0", "fi-tam", 8000, "USD", day)})

	log := eng.Events()
	var got []events.Event
	for _, e := range log.After(0, 0) {
		if e.Type == events.TypeVariation {
			got = append(got, e)
		}
	}
	if len(got) != 1 {
		t.Fatalf("variation events = %d, want exactly 1: %+v", len(got), got)
	}
	if got[0].Domain != "vary.example" || got[0].SKU != "SKU-0" || got[0].Ratio <= 1 {
		t.Fatalf("bad event %+v", got[0])
	}

	// Rebuilding from the same store (the crash-recovery path) yields the
	// same single crossing — the crash_smoke invariant.
	fresh := aggregate.NewReader(st, market, aggregate.Options{})
	var rebuilt int
	for _, e := range fresh.Events().After(0, 0) {
		if e.Type == events.TypeVariation {
			rebuilt++
		}
	}
	if rebuilt != 1 {
		t.Fatalf("rebuilt variation events = %d, want 1", rebuilt)
	}
}

// TestConcurrentFoldAndRead hammers the engine the way sheriffd does:
// concurrent AddAll writers across colliding domains, report and
// strategy readers, and a live event tail — the race detector (CI runs
// -race) and the final equivalence check are the assertions.
func TestConcurrentFoldAndRead(t *testing.T) {
	market := fx.NewMarket(7)
	st := store.New()
	eng := aggregate.New(st, market, aggregate.Options{})

	const writers, batches = 8, 40
	domains := []string{"a.example", "b.example", "c.example"}

	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	// Readers: hammer summaries and strategy reports while folds run.
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, d := range domains {
					if sum, ok := eng.DomainSummary(d); ok && sum.Observations == 0 {
						t.Error("published summary with zero observations")
						return
					}
					eng.StrategyReport(d)
				}
			}
		}()
	}

	// Tail: follow the event log concurrently.
	tailDone := make(chan uint64)
	go func() {
		log := eng.Events()
		sig, cancel := log.Subscribe()
		defer cancel()
		var cur uint64
		for {
			for _, e := range log.After(cur, 0) {
				cur = e.Seq
			}
			select {
			case <-sig:
			case <-log.Done():
				for _, e := range log.After(cur, 0) {
					cur = e.Seq
				}
				tailDone <- cur
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for b := 0; b < batches; b++ {
				domain := domains[(w+b)%len(domains)]
				sku := fmt.Sprintf("SKU-%d", b%5)
				units := int64(1000 + 100*w + 977*b)
				batch := []store.Observation{
					obs(domain, sku, fmt.Sprintf("vp-%d", w), units, "USD", day.Add(time.Duration(b)*time.Minute)),
					{Domain: domain, SKU: sku, VP: "us-nyc", Country: "US", City: "New York",
						PriceUnits: units + 50, Currency: "USD", Time: day.Add(time.Duration(b) * time.Minute),
						Round: b % 7, Source: store.SourceCrawl, OK: true},
				}
				st.AddAll(batch)
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	eng.Close()
	tailSeq := <-tailDone

	if tailSeq != eng.Events().Len() {
		t.Fatalf("tail drained to seq %d, log holds %d", tailSeq, eng.Events().Len())
	}
	if got, want := eng.Stats().ObservationsFolded, uint64(st.Len()); got != want {
		t.Fatalf("ObservationsFolded=%d, want %d", got, want)
	}
	// Folds run in sequence order whatever the writer interleaving, so a
	// follower fed the same log in chunks must emit the same event log,
	// byte for byte.
	if eng.Events().Len() == 0 {
		t.Fatal("no events to compare")
	}
	fst := store.New()
	feng := aggregate.New(fst, market, aggregate.Options{})
	for seqs, batch := range store.Chunks(st.ScanRange(store.Query{Round: -1}, 0, st.Watermark())) {
		if err := fst.ApplyAt(seqs, batch); err != nil {
			t.Fatal(err)
		}
	}
	got, err := json.Marshal(eng.Events().After(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(feng.Events().After(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event logs differ under concurrent writers:\n primary  %.400s\n follower %.400s", got, want)
	}
	// Quiesced aggregates must equal full recomputation — the concurrency
	// convergence contract.
	for _, d := range domains {
		want := reference.FullDomainReport(st, market, d)
		sum, ok := eng.DomainSummary(d)
		if !ok {
			t.Fatalf("domain %s missing", d)
		}
		if sum.Observations != want.Observations || sum.OKPrices != want.OKPrices ||
			sum.Variation.MaxRatio != want.Variation.MaxRatio ||
			sum.Variation.Varied != want.Variation.Varied {
			t.Errorf("%s diverged:\n aggregate %+v\n full      %+v", d, sum, want)
		}
		gotRep := eng.StrategyReport(d)
		wantRep := reference.DetectStrategies(st, market, d)
		if fmt.Sprintf("%+v", gotRep.Evidence) != fmt.Sprintf("%+v", wantRep.Evidence) {
			t.Errorf("%s strategy diverged:\n aggregate %+v\n full      %+v", d, gotRep.Evidence, wantRep.Evidence)
		}
	}
}

// reopened folds an engine over what a data dir holds on disk, under
// the epoch its manifest records — the view of a process restarted on
// the directory.
func reopened(t *testing.T, dir string, market *fx.Market) *aggregate.Engine {
	t.Helper()
	st, rep, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	return aggregate.NewReader(st, market, aggregate.Options{Log: events.NewLog(rep.PrunedRows)})
}

// assertLikeReopen holds the live engine against an engine over the
// reopened dir: same per-domain summaries, same strategy verdicts, same
// folded counter, and the same event log under the same nonzero epoch.
func assertLikeReopen(t *testing.T, step string, eng *aggregate.Engine, d *store.Durable, dir string, market *fx.Market) {
	t.Helper()
	if folded := eng.Stats().ObservationsFolded; folded != uint64(d.Len()) {
		t.Fatalf("%s: folded %d != surviving rows %d", step, folded, d.Len())
	}
	fresh := reopened(t, dir, market)
	for i := 0; i < 5; i++ {
		domain := fmt.Sprintf("shop-%d.example", i)
		got, okGot := eng.DomainSummary(domain)
		want, okWant := fresh.DomainSummary(domain)
		if okGot != okWant {
			t.Fatalf("%s: %s: live ok=%v, reopened ok=%v", step, domain, okGot, okWant)
		}
		if okGot && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s: live summary diverges from the reopened fold:\n got %+v\nwant %+v",
				step, domain, got, want)
		}
		if gr, wr := eng.StrategyReport(domain), fresh.StrategyReport(domain); !reflect.DeepEqual(gr, wr) {
			t.Errorf("%s: %s: live strategy report diverges:\n got %+v\nwant %+v", step, domain, gr, wr)
		}
	}
	live, want := eng.Events(), fresh.Events()
	if live.Epoch() == 0 || live.Epoch() != want.Epoch() {
		t.Fatalf("%s: live epoch %d, reopened epoch %d (want equal and nonzero)", step, live.Epoch(), want.Epoch())
	}
	if live.Len() == 0 {
		t.Fatalf("%s: the fixture fired no events", step)
	}
	if got, wantB := eventBytes(t, eng), eventBytes(t, fresh); !bytes.Equal(got, wantB) {
		t.Errorf("%s: live event log diverges from the reopened one:\n got %s\nwant %s", step, got, wantB)
	}
}

// TestPruneRestartsLikeReopen is the retention counterpart of the
// equivalence test above: after a durable checkpoint prunes whole time
// buckets (firing the engine's Restart through the prune hook), the live
// engine must be indistinguishable from one folded over the reopened
// directory — aggregates, verdicts and the event log, under the same
// epoch — after the first prune and again after a later day's writes
// and a second prune. The pre-prune log is sealed, so its tails end, and
// a prune after Close leaves the fresh log sealed too.
func TestPruneRestartsLikeReopen(t *testing.T) {
	market := fx.NewMarket(7)
	dir := t.TempDir()
	d, _, err := store.OpenDurable(dir, store.DurableOptions{
		Fsync:           store.FsyncNever,
		CompactWALBytes: -1,
		BucketDuration:  24 * time.Hour,
		// The newest rows land 3h into the newest day; minus 24h cuts
		// inside the day before, so every older day is pruned.
		RetainAge: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	eng := aggregate.New(d, market, aggregate.Options{})
	d.SetPruneHook(eng.Restart)
	first := eng.Events()

	for k := 0; k < 3; k++ {
		fixtureAt(d, day.AddDate(0, 0, k))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().PrunedRows; got == 0 {
		t.Fatal("checkpoint pruned nothing; the test exercises no restart")
	}
	select {
	case <-first.Done():
	default:
		t.Fatal("the pre-prune event log is still open after the prune")
	}
	assertLikeReopen(t, "first prune", eng, d, dir, market)
	epoch := eng.Events().Epoch()

	fixtureAt(d, day.AddDate(0, 0, 3))
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Events().Epoch(); got <= epoch {
		t.Fatalf("second prune left the epoch at %d (was %d)", got, epoch)
	}
	assertLikeReopen(t, "second prune", eng, d, dir, market)

	// A prune after Close (a server drain) keeps the log sealed.
	eng.Close()
	sealed := eng.Events()
	fixtureAt(d, day.AddDate(0, 0, 4))
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if eng.Events() == sealed {
		t.Fatal("the third prune did not restart the engine")
	}
	select {
	case <-eng.Events().Done():
	default:
		t.Fatal("a prune after Close installed an open event log")
	}
}

// TestReadersDuringPrune runs reports, verdicts, stats and an event
// reader against an engine while writes roll the dataset over five days
// and retention prunes behind them, so the race detector sees Restart
// interleaved with every read path; the quiesced engine must still
// equal the reopened one.
func TestReadersDuringPrune(t *testing.T) {
	market := fx.NewMarket(7)
	dir := t.TempDir()
	d, _, err := store.OpenDurable(dir, store.DurableOptions{
		Fsync: store.FsyncNever, CompactWALBytes: -1, RetainAge: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	eng := aggregate.New(d, market, aggregate.Options{})
	d.SetPruneHook(eng.Restart)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				domain := fmt.Sprintf("shop-%d.example", (r+i)%5)
				eng.DomainSummary(domain)
				eng.StrategyReport(domain)
				eng.Stats()
				log := eng.Events()
				log.After(log.Len()/2, 0)
			}
		}(r)
	}
	for k := 0; k < 5; k++ {
		fixtureAt(d, day.AddDate(0, 0, k))
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	assertLikeReopen(t, "after five days", eng, d, dir, market)
}
