package core

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sheriff/internal/crowd"
	"sheriff/internal/geo"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// TestScenarioMatrixSubset runs a representative slice of the matrix at
// reduced scale: one scenario per detectable family plus the control and
// the kitchen-sink combination. The full sweep runs in cmd/experiments
// -scenarios; this keeps the CI cost bounded while still proving every
// detector end to end against a live crawl.
func TestScenarioMatrixSubset(t *testing.T) {
	rep, err := RunScenarioMatrix(MatrixOptions{
		Seed:     1,
		Products: 8,
		Scenarios: []string{
			"control", "geo-mult", "fingerprint", "disclosure", "weekday", "everything",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 6 {
		t.Fatalf("outcomes = %d, want 6", len(rep.Outcomes))
	}
	for _, o := range rep.Outcomes {
		if o.Extracted == 0 && o.Scenario != "disclosure" {
			t.Errorf("%s: no prices extracted", o.Scenario)
		}
		for f, truth := range o.Truth {
			if o.Detected[f] != truth {
				t.Errorf("%s: family %s truth=%v detected=%v", o.Scenario, f, truth, o.Detected[f])
			}
		}
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyGeo, shop.FamilyFingerprint,
		shop.FamilyDisclosure, shop.FamilyTemporal} {
		s := rep.Scores[f]
		if s.Precision() < 1 || s.Recall() < 1 {
			t.Errorf("%s: precision %.2f recall %.2f (%+v)", f, s.Precision(), s.Recall(), s)
		}
	}
	// The rendered report names every scenario it ran.
	text := rep.String()
	for _, name := range []string{"control", "everything", "precision"} {
		if !strings.Contains(text, name) {
			t.Errorf("report missing %q:\n%s", name, text)
		}
	}
}

// TestScenarioMatrixMarketDynamics proves the market-dynamics worlds end
// to end: every pure-dynamics scenario flags exactly its own family —
// and, critically, none of the discrimination families. A synchronized
// price move seen identically by every vantage point is dynamics, not
// discrimination; before the consensus classifier, each of these worlds
// would have flagged temporal.
func TestScenarioMatrixMarketDynamics(t *testing.T) {
	rep, err := RunScenarioMatrix(MatrixOptions{
		Seed:     1,
		Products: 8,
		Scenarios: []string{
			"leader-follower", "contrarian", "periodic-sale", "demand", "weekday",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		for f, truth := range o.Truth {
			if o.Detected[f] != truth {
				t.Errorf("%s: family %s truth=%v detected=%v", o.Scenario, f, truth, o.Detected[f])
			}
		}
		// The load-bearing separation: market worlds never read as
		// temporal (or any discrimination family), and the weekday world
		// sharing the sweep still does.
		if o.Scenario == "weekday" {
			if !o.Detected[shop.FamilyTemporal] {
				t.Errorf("weekday world lost its temporal flag")
			}
			continue
		}
		for _, f := range []shop.StrategyFamily{shop.FamilyTemporal, shop.FamilyGeo,
			shop.FamilyFingerprint, shop.FamilyDisclosure} {
			if o.Detected[f] {
				t.Errorf("%s: pure market dynamics flagged %s", o.Scenario, f)
			}
		}
	}
	for f, s := range rep.Scores {
		if s.Precision() < 1 || s.Recall() < 1 {
			t.Errorf("%s: precision %.2f recall %.2f (%+v)", f, s.Precision(), s.Recall(), s)
		}
	}
}

// TestScenarioMatrixMixedConfound pins DetectStrategies on the worlds
// where market repricing and geo discrimination run simultaneously: the
// detector must attribute both, confuse neither, and hold per-family
// precision/recall at 1.00 across the tested seeds.
func TestScenarioMatrixMixedConfound(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		rep, err := RunScenarioMatrix(MatrixOptions{
			Seed:     seed,
			Products: 8,
			Scenarios: []string{
				"competitive-geo", "demand-geo", "geo-mult", "control",
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range rep.Outcomes {
			for f, truth := range o.Truth {
				if o.Detected[f] != truth {
					t.Errorf("seed %d %s: family %s truth=%v detected=%v",
						seed, o.Scenario, f, truth, o.Detected[f])
				}
			}
		}
		for f, s := range rep.Scores {
			if s.Precision() < 1 || s.Recall() < 1 {
				t.Errorf("seed %d %s: precision %.2f recall %.2f (%+v)",
					seed, f, s.Precision(), s.Recall(), s)
			}
		}
	}
}

// TestMarketWorldUnderCrowdLoad runs the concurrent crowd-load harness
// against worlds whose base prices move underneath it (leader-follower
// and demand repricing). Two same-seed runs must leave identical
// observation sets behind — goroutine interleaving may vary insertion
// order, never content, because the market model is a pure function of
// (seed, sku, day) with no mutable state to race on. The test also
// proves the harness exercised the live repricing path: the same product
// reads back different prices on different simulated days.
func TestMarketWorldUnderCrowdLoad(t *testing.T) {
	var cfgs []shop.Config
	for _, cfg := range shop.ScenarioConfigs(11) {
		if cfg.Label == "leader-follower" || cfg.Label == "demand" {
			cfgs = append(cfgs, cfg)
		}
	}
	if len(cfgs) != 2 {
		t.Fatalf("market scenario presets missing: got %d of 2", len(cfgs))
	}

	// Sort on the full serialized row: any weaker key admits ties between
	// rows differing only in untested fields, and an unstable sort would
	// then order them by insertion — which concurrency legitimately varies.
	key := func(o store.Observation) string { return fmt.Sprintf("%+v", o) }
	run := func() (*crowd.LoadReport, []store.Observation) {
		w := NewWorld(WorldOptions{Seed: 11, Configs: cfgs})
		rep, err := w.RunLoad(crowd.LoadOptions{
			Users: 6, Requests: 72, Rounds: 4, RoundStep: 24 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		obs := w.Store.Filter(store.Query{Round: -1})
		sort.Slice(obs, func(i, j int) bool { return key(obs[i]) < key(obs[j]) })
		return rep, obs
	}

	repA, obsA := run()
	_, obsB := run()
	if repA.Succeeded == 0 {
		t.Fatalf("no check succeeded under load: %+v", repA)
	}
	if !reflect.DeepEqual(obsA, obsB) {
		t.Fatal("same-seed load runs diverged: dynamic repricing is not deterministic under concurrency")
	}

	// Live repricing: at least one (domain, sku, currency) group must show
	// distinct prices on distinct simulated days.
	type group struct{ domain, sku, currency string }
	days := map[group]map[int64]bool{}
	units := map[group]map[int64]bool{}
	for _, o := range obsA {
		if o.PriceUnits <= 0 {
			continue
		}
		g := group{o.Domain, o.SKU, o.Currency}
		if days[g] == nil {
			days[g], units[g] = map[int64]bool{}, map[int64]bool{}
		}
		days[g][o.Time.UTC().Unix()/86400] = true
		units[g][o.PriceUnits] = true
	}
	moved := false
	for g := range days {
		if len(days[g]) >= 2 && len(units[g]) >= 2 {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("no product repriced across load rounds: market dynamics inert under the harness")
	}
}

// TestScenarioWorldIsolated checks the Configs world shape: exactly the
// given retailers, no extras, no tail, no failure injection.
func TestScenarioWorldIsolated(t *testing.T) {
	cfg := shop.ScenarioConfigs(1)[0]
	w := NewWorld(WorldOptions{Seed: 1, Configs: []shop.Config{cfg}})
	if len(w.Crawled) != 1 || w.Crawled[0] != cfg.Domain {
		t.Fatalf("Crawled = %v", w.Crawled)
	}
	if len(w.Tail) != 0 {
		t.Fatalf("scenario world grew a long tail: %d domains", len(w.Tail))
	}
	if w.DomainCount() != 1 {
		t.Fatalf("DomainCount = %d", w.DomainCount())
	}
	if _, ok := w.Retailers[cfg.Domain]; !ok {
		t.Fatal("scenario retailer missing")
	}
}

// TestScenarioMatrixUnknownScenario errors rather than silently sweeping
// nothing.
func TestScenarioMatrixUnknownScenario(t *testing.T) {
	if _, err := RunScenarioMatrix(MatrixOptions{Seed: 1, Scenarios: []string{"nope"}}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestConfigsWorldInjectsNoFailures: a world built from Configs answers
// every product page with 200 from all 14 vantage points on every
// simulated day, so detector scoring sees only the behaviour under test.
// Paper worlds fail ~8.5% of fetches (TestEndToEndCrawlVolume).
func TestConfigsWorldInjectsNoFailures(t *testing.T) {
	w := NewWorld(WorldOptions{Seed: 3, Configs: shop.ScenarioConfigs(3)[:2]})
	vps := geo.VantagePoints()
	if len(vps) != 14 {
		t.Fatalf("%d vantage points, want 14", len(vps))
	}
	fetches := 0
	for day := 0; day < 5; day++ {
		for _, d := range w.Crawled {
			for _, p := range w.Retailers[d].Catalog().Products()[:6] {
				for _, vp := range vps {
					tr := netsim.NewTransport(w.Registry, w.Clock, vp.Addr)
					_, status, err := tr.Get("http://"+d+"/product/"+p.SKU, vp.Browser.UserAgent())
					if err != nil {
						t.Fatal(err)
					}
					if status != http.StatusOK {
						t.Fatalf("day %d %s/%s from %s: status %d", day, d, p.SKU, vp.ID, status)
					}
					fetches++
				}
			}
		}
		w.Clock.Advance(24 * time.Hour)
	}
	if fetches != 5*2*6*14 {
		t.Fatalf("%d fetches, want %d", fetches, 5*2*6*14)
	}
}
