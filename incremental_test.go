// Differential proof of the incremental analysis engine: across every
// scenario-matrix world, on both store engines, and after durable crash
// recovery, the aggregate-backed domain report must be BYTE-IDENTICAL to
// the full-recompute reference, and the engine's strategy verdict must
// equal reference.DetectStrategies — equivalence is the contract, not
// approximation.
package sheriff_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"sheriff"
	"sheriff/internal/aggregate"
	"sheriff/internal/api"
	"sheriff/internal/reference"
	"sheriff/internal/store"
)

// reportBytes marshals a report for the byte-level comparison.
func reportBytes(t *testing.T, rep api.DomainReport) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertEquivalent holds one engine against the full-recompute reference
// for one domain: report DeepEqual + JSON bytes, strategy verdict equal.
func assertEquivalent(t *testing.T, label string, eng *aggregate.Engine, st sheriff.StoreReader, market *sheriff.Market, domain string) {
	t.Helper()
	want := reference.FullDomainReport(st, market, domain)
	got := api.ReportFromEngine(eng, domain)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: report diverged\n aggregate %+v\n full      %+v", label, got, want)
	}
	if gb, wb := reportBytes(t, got), reportBytes(t, want); string(gb) != string(wb) {
		t.Errorf("%s: report bytes diverged\n aggregate %s\n full      %s", label, gb, wb)
	}
	gotRep := eng.StrategyReport(domain)
	wantRep := reference.DetectStrategies(st, market, domain)
	if !reflect.DeepEqual(gotRep.Evidence, wantRep.Evidence) {
		t.Errorf("%s: strategy verdict diverged\n aggregate %+v\n full      %+v",
			label, gotRep.Evidence, wantRep.Evidence)
	}
}

// eventBytes marshals an engine's whole event log: the byte-level form
// of "the same events", which restarts and re-batching must preserve.
func eventBytes(t *testing.T, log *sheriff.EventLog) []byte {
	t.Helper()
	b, err := json.Marshal(log.After(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIncrementalEquivalenceScenarioMatrix sweeps all scenario worlds.
// Each runs its crawl on a durable backend (the live write path folds
// through the WAL'd store), then the same dataset is checked three ways:
// the live durable-backed engine, a fresh in-memory store fed the whole
// log as one AddAll, and a read-only crash recovery of the data
// directory. All three must also emit byte-identical event logs: events
// are a function of the sequence-ordered log, not of its batching.
func TestIncrementalEquivalenceScenarioMatrix(t *testing.T) {
	cfgs := sheriff.ScenarioConfigs(5)
	if len(cfgs) == 0 {
		t.Fatal("no scenario configs")
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.Label, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			d, _, err := sheriff.OpenDataDir(dir, sheriff.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			w := sheriff.NewWorld(sheriff.WorldOptions{
				Seed:    5,
				Configs: []sheriff.ShopConfig{cfg},
				Store:   d,
			})
			if err := w.EnsureAnchors(w.Crawled); err != nil {
				t.Fatal(err)
			}
			// Market-dynamics worlds need the full two-week series before
			// the consensus classifier judges them; everything else keeps
			// the historical 7-round crawl.
			marketTruth := map[string]sheriff.StrategyFamily{
				"leader-follower": sheriff.FamilyCompetitive,
				"contrarian":      sheriff.FamilyCompetitive,
				"periodic-sale":   sheriff.FamilyCompetitive,
				"demand":          sheriff.FamilyDemand,
				"competitive-geo": sheriff.FamilyCompetitive,
				"demand-geo":      sheriff.FamilyDemand,
			}
			rounds := 7
			if _, ok := marketTruth[cfg.Label]; ok {
				rounds = 14
			}
			if _, err := w.RunCrawl(sheriff.CrawlOptions{MaxProducts: 8, Rounds: rounds}); err != nil {
				t.Fatal(err)
			}
			domain := cfg.Domain

			// 1. Live durable engine: folded write by write through the WAL.
			assertEquivalent(t, "durable live", w.Analysis, w.Store, w.Market, domain)

			// Market worlds must flag their family through the aggregate
			// path — otherwise the equivalence above holds vacuously on a
			// verdict that never fired.
			if fam, ok := marketTruth[cfg.Label]; ok {
				if !w.Analysis.StrategyReport(domain).Flagged(fam) {
					t.Errorf("aggregate path did not flag %s on %s", fam, cfg.Label)
				}
			}

			// 2. Memory engine folding the same rows as one batch.
			mem := sheriff.NewStore()
			memEng := sheriff.NewAnalysisEngine(mem, w.Market, sheriff.AnalysisOptions{})
			mem.AddAll(w.Store.Filter(sheriff.Query{Round: -1}))
			assertEquivalent(t, "memory", memEng, mem, w.Market, domain)
			live := eventBytes(t, w.Analysis.Events())
			if got := eventBytes(t, memEng.Events()); string(got) != string(live) {
				t.Errorf("one-batch copy events differ from the live fold's\n live %.600s\n copy %.600s", live, got)
			}

			// 3. Crash recovery: reopen the data dir without closing the
			// live owner (kill -9 semantics) and rebuild aggregates on it.
			recovered, _, err := sheriff.OpenDataDirReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			if recovered.Len() != w.Store.Len() {
				t.Fatalf("recovery lost rows: %d, want %d", recovered.Len(), w.Store.Len())
			}
			recEng := sheriff.NewAnalysisReader(recovered, w.Market, sheriff.AnalysisOptions{})
			assertEquivalent(t, "crash recovery", recEng, recovered, w.Market, domain)

			if got := eventBytes(t, recEng.Events()); string(got) != string(live) {
				t.Errorf("crash-recovered events differ from the live fold's\n live      %.600s\n recovered %.600s", live, got)
			}

			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIncrementalFoldMatchesStore pins the fold accounting end to end on
// a paper-shaped world (crowd + crawl + long tail): every store row is
// folded exactly once and every crawled domain's report stays equivalent.
func TestIncrementalFoldMatchesStore(t *testing.T) {
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 3, LongTail: 6})
	if err := w.EnsureAnchors(w.Crawled[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunCrawl(sheriff.CrawlOptions{Domains: w.Crawled[:3], MaxProducts: 5, Rounds: 3}); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Analysis.Stats().ObservationsFolded, uint64(w.Store.Len()); got != want {
		t.Fatalf("ObservationsFolded=%d, want store length %d", got, want)
	}
	for _, domain := range w.Crawled[:3] {
		assertEquivalent(t, domain, w.Analysis, w.Store, w.Market, domain)
	}
	// Source splits must agree with the store's own counters.
	sum, ok := w.Analysis.DomainSummary(w.Crawled[0])
	if !ok {
		t.Fatal("summary missing")
	}
	if total, okN := w.Store.LenSource(store.SourceCrawl); total > 0 {
		var aggTotal, aggOK int
		for _, d := range w.Crawled[:3] {
			s, ok := w.Analysis.DomainSummary(d)
			if !ok {
				t.Fatalf("summary missing for %s", d)
			}
			aggTotal += s.BySource[store.SourceCrawl].Total
			aggOK += s.BySource[store.SourceCrawl].OK
		}
		if aggTotal != total || aggOK != okN {
			t.Fatalf("crawl source split: aggregates %d/%d, store %d/%d", aggTotal, aggOK, total, okN)
		}
	}
	_ = sum
}
