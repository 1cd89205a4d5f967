package analysis_test

import (
	"sort"
	"testing"

	"sheriff/internal/analysis"
	"sheriff/internal/core"
	"sheriff/internal/reference"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// TestProductStateMatchesProduct: absorbing a product's rounds in
// ascending order and asking for the Verdict after each one equals
// reference.Product over the same rounds — on every product of every scenario
// retailer, so every family's signature is exercised.
func TestProductStateMatchesProduct(t *testing.T) {
	w := core.NewWorld(core.WorldOptions{Seed: 5, Configs: shop.ScenarioConfigs(5)})
	if err := w.EnsureAnchors(w.Crawled); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunCrawl(core.CrawlOptions{MaxProducts: 4, Rounds: 14}); err != nil {
		t.Fatal(err)
	}
	det := analysis.NewDetector(w.Market)
	affected := map[shop.StrategyFamily]int{}
	for _, rows := range w.Store.Groups(store.SourceCrawl) {
		byRound := map[int][]store.Observation{}
		for _, o := range rows {
			byRound[o.Round] = append(byRound[o.Round], o)
		}
		rounds := make([]int, 0, len(byRound))
		for r := range byRound {
			rounds = append(rounds, r)
		}
		sort.Ints(rounds)

		state := det.NewProductState(nil)
		var prefix []store.Observation
		for _, r := range rounds {
			if !state.Absorb(byRound[r]) {
				t.Fatalf("round %d does not follow the absorbed rounds", r)
			}
			prefix = append(prefix, byRound[r]...)
			if got, want := state.Verdict(), reference.Product(det, prefix); got != want {
				t.Fatalf("%s/%s after round %d: state %+v, Product %+v", rows[0].Domain, rows[0].SKU, r, got, want)
			}
		}
		v := state.Verdict()
		if state.Absorb(byRound[rounds[len(rounds)-1]]) || state.Verdict() != v {
			t.Fatal("Absorb accepted an already absorbed round")
		}
		for _, f := range analysis.DetectableFamilies {
			if v.Of(f).Affected {
				affected[f]++
			}
		}
	}
	for _, f := range analysis.DetectableFamilies {
		if affected[f] == 0 {
			t.Errorf("no product shows %s; the comparison is vacuous for it", f)
		}
	}
}
