package aggregate_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sheriff/internal/aggregate"
	"sheriff/internal/api"
	"sheriff/internal/core"
	"sheriff/internal/crowd"
	"sheriff/internal/fx"
	"sheriff/internal/reference"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// scenarioRun is one live world's sequence-ordered log, the market it
// was priced in, and the event log its live engine folded.
type scenarioRun struct {
	log     []store.Observation
	market  *fx.Market
	domains []string
	events  []byte
}

var (
	scenarioOnce sync.Once
	scenario     scenarioRun
	scenarioErr  error
)

// scenarioLog runs one world holding every scenario retailer through a
// two-week crawl with a crowd load running alongside, so crawl
// product-rounds of concurrent products interleave with crowd checks of
// the same domains. Built once per test binary.
func scenarioLog(t *testing.T) scenarioRun {
	t.Helper()
	scenarioOnce.Do(func() {
		w := core.NewWorld(core.WorldOptions{Seed: 5, Configs: shop.ScenarioConfigs(5)})
		if scenarioErr = w.EnsureAnchors(w.Crawled); scenarioErr != nil {
			return
		}
		var wg sync.WaitGroup
		var loadErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, loadErr = w.RunLoad(crowd.LoadOptions{Users: 4, Requests: 120, Rounds: 3})
		}()
		_, scenarioErr = w.RunCrawl(core.CrawlOptions{MaxProducts: 8, Rounds: 14})
		wg.Wait()
		if scenarioErr == nil {
			scenarioErr = loadErr
		}
		if scenarioErr != nil {
			return
		}
		var events []byte
		events, scenarioErr = json.Marshal(w.Analysis.Events().After(0, 0))
		scenario = scenarioRun{
			log:     w.Store.Filter(store.Query{Round: -1}),
			market:  w.Market,
			domains: w.Crawled,
			events:  events,
		}
	})
	if scenarioErr != nil {
		t.Fatal(scenarioErr)
	}
	return scenario
}

// productRounds cuts a log into its product-rounds, every other row on
// its own: the finest cut that keeps product-rounds whole.
func productRounds(log []store.Observation) [][]store.Observation {
	var out [][]store.Observation
	start := 0
	for i := 1; i <= len(log); i++ {
		if i == len(log) || !store.SameProductRound(&log[i-1], &log[i]) {
			out = append(out, log[start:i])
			start = i
		}
	}
	return out
}

// randomChunks regroups product-rounds into random runs of 1–60 of them.
func randomChunks(rounds [][]store.Observation, seed int64) [][]store.Observation {
	rng := rand.New(rand.NewSource(seed))
	var out [][]store.Observation
	for i := 0; i < len(rounds); {
		n := 1 + rng.Intn(60)
		if i+n > len(rounds) {
			n = len(rounds) - i
		}
		var chunk []store.Observation
		for _, r := range rounds[i : i+n] {
			chunk = append(chunk, r...)
		}
		out = append(out, chunk)
		i += n
	}
	return out
}

// foldBatches folds batches, in order, into a fresh engine.
func foldBatches(market *fx.Market, batches [][]store.Observation) (*aggregate.Engine, *store.Store) {
	st := store.New()
	eng := aggregate.New(st, market, aggregate.Options{})
	for _, b := range batches {
		st.AddAll(b)
	}
	return eng, st
}

// eventBytes marshals an engine's whole event log.
func eventBytes(t *testing.T, eng *aggregate.Engine) []byte {
	t.Helper()
	b, err := json.Marshal(eng.Events().After(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRebatchingIsNoop is the "set noop" property of the event history:
// re-cutting the same sequence-ordered log into batches — any cut that
// keeps product-rounds whole — and folding it through any path
// reproduces the live engine's event log byte for byte.
func TestRebatchingIsNoop(t *testing.T) {
	run := scenarioLog(t)
	rounds := productRounds(run.log)
	if len(rounds) == len(run.log) {
		t.Fatal("log holds no multi-row product-round")
	}

	check := func(name string, eng *aggregate.Engine) {
		t.Helper()
		if got := eventBytes(t, eng); !bytes.Equal(got, run.events) {
			t.Errorf("%s: events differ from the live fold's\n live %.400s\n got  %.400s", name, run.events, got)
		}
	}

	eng, primary := foldBatches(run.market, [][]store.Observation{run.log})
	check("one AddAll", eng)
	eng, _ = foldBatches(run.market, rounds)
	check("one AddAll per product-round", eng)
	for seed := int64(1); seed <= 5; seed++ {
		eng, _ = foldBatches(run.market, randomChunks(rounds, seed))
		check("random chunking", eng)
	}
	check("rebuild", aggregate.NewReader(primary, run.market, aggregate.Options{}))

	follower := store.New()
	feng := aggregate.New(follower, run.market, aggregate.Options{})
	for seqs, batch := range store.Chunks(primary.ScanRange(store.Query{Round: -1}, 0, primary.Watermark())) {
		if err := follower.ApplyAt(seqs, batch); err != nil {
			t.Fatal(err)
		}
	}
	check("Chunks/ApplyAt follower", feng)

	// The property must not hold vacuously: the log flips verdicts.
	if flips := bytes.Count(run.events, []byte(`"type":"strategy"`)); flips < 10 {
		t.Fatalf("live log holds %d strategy flips; the property needs flips to compare", flips)
	}
}

// assertDetectorVerdicts holds an engine's final strategy verdicts to
// the full detector's on the store it folded.
func assertDetectorVerdicts(t *testing.T, name string, eng *aggregate.Engine, st *store.Store, run scenarioRun) {
	t.Helper()
	for _, d := range run.domains {
		got := eng.StrategyReport(d)
		want := reference.DetectStrategies(st, run.market, d)
		if !reflect.DeepEqual(got.Evidence, want.Evidence) {
			t.Errorf("%s: %s verdict diverged\n engine %+v\n full   %+v", name, d, got.Evidence, want.Evidence)
		}
		if got, want := api.ReportFromEngine(eng, d), reference.FullDomainReport(st, run.market, d); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s report diverged\n engine %+v\n full   %+v", name, d, got, want)
		}
	}
}

// TestSplitProductRoundFoldsExactly: a product-round appended as two
// AddAll calls is judged at the split, but the second half rebuilds the
// product's detector state from the store, so the final verdicts are the
// full detector's.
func TestSplitProductRoundFoldsExactly(t *testing.T) {
	run := scenarioLog(t)
	var batches [][]store.Observation
	for _, r := range productRounds(run.log) {
		if len(r) > 1 {
			k := len(r) / 2
			batches = append(batches, r[:k], r[k:])
			continue
		}
		batches = append(batches, r)
	}
	eng, st := foldBatches(run.market, batches)
	assertDetectorVerdicts(t, "split product-rounds", eng, st, run)
}

// TestOutOfOrderRoundsFoldExactly: product-rounds written in shuffled
// order reach each product's rounds out of order, and the rebuilt
// detector state still ends at the full detector's verdicts.
func TestOutOfOrderRoundsFoldExactly(t *testing.T) {
	run := scenarioLog(t)
	rounds := productRounds(run.log)
	rng := rand.New(rand.NewSource(9))
	rng.Shuffle(len(rounds), func(i, j int) { rounds[i], rounds[j] = rounds[j], rounds[i] })
	eng, st := foldBatches(run.market, rounds)
	assertDetectorVerdicts(t, "shuffled product-rounds", eng, st, run)
}
