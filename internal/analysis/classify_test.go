package analysis

import (
	"math"
	"testing"

	"sheriff/internal/store"
)

func TestFitStrategyMultiplicative(t *testing.T) {
	var pts []RatioPoint
	for p := 10.0; p <= 1000; p *= 1.5 {
		pts = append(pts, RatioPoint{MinUSD: p, Ratio: 1.25})
	}
	fit := FitStrategy(pts)
	if fit.Kind != StrategyMultiplicative {
		t.Fatalf("kind = %s", fit.Kind)
	}
	if math.Abs(fit.Factor-1.25) > 0.01 {
		t.Fatalf("factor = %v", fit.Factor)
	}
}

func TestFitStrategyAdditive(t *testing.T) {
	var pts []RatioPoint
	for p := 10.0; p <= 500; p *= 1.3 {
		pts = append(pts, RatioPoint{MinUSD: p, Ratio: 1.05 + 8/p})
	}
	fit := FitStrategy(pts)
	if fit.Kind != StrategyAdditive {
		t.Fatalf("kind = %s (factor %v surcharge %v)", fit.Kind, fit.Factor, fit.Surcharge)
	}
	if math.Abs(fit.Surcharge-8) > 1 {
		t.Fatalf("surcharge = %v", fit.Surcharge)
	}
	if math.Abs(fit.Factor-1.05) > 0.02 {
		t.Fatalf("factor = %v", fit.Factor)
	}
}

func TestFitStrategyNone(t *testing.T) {
	var pts []RatioPoint
	for p := 10.0; p <= 500; p *= 1.3 {
		pts = append(pts, RatioPoint{MinUSD: p, Ratio: 1.004})
	}
	if fit := FitStrategy(pts); fit.Kind != StrategyNone {
		t.Fatalf("kind = %s", fit.Kind)
	}
	if fit := FitStrategy(nil); fit.Kind != StrategyNone || fit.Factor != 1 {
		t.Fatalf("empty fit = %+v", fit)
	}
}

func TestFig6BuildsSeriesPerVP(t *testing.T) {
	st := store.New()
	// 12 products, multiplicative FI at 1.28, UK at 1.12, US baseline.
	for i := 0; i < 12; i++ {
		base := int64(1000 * (i + 1))
		addCrawlRound(st, "photo.com", skuN(i), 0, t0, map[string]vpPrice{
			"us-nyc": {country: "US", units: base},
			"uk-lon": {country: "GB", units: base * 112 / 100},
			"fi-tam": {country: "FI", units: base * 128 / 100},
		})
	}
	series := Fig6(st, market, "photo.com")
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	byVP := map[string]VPSeries{}
	for _, s := range series {
		byVP[s.VP] = s
	}
	if fit := byVP["fi-tam"].Fit; fit.Kind != StrategyMultiplicative || math.Abs(fit.Factor-1.28) > 0.01 {
		t.Fatalf("FI fit = %+v", fit)
	}
	if fit := byVP["us-nyc"].Fit; fit.Kind != StrategyNone {
		t.Fatalf("US fit = %+v", fit)
	}
	// Points sorted by price.
	pts := byVP["fi-tam"].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].MinUSD < pts[i-1].MinUSD {
			t.Fatal("points not sorted")
		}
	}
}

func TestFig6AdditiveLocationDetected(t *testing.T) {
	st := store.New()
	// UK pays a flat $8 on top of a 1.05 multiplier; US is the baseline.
	for i := 0; i < 14; i++ {
		baseF := 12.0 * math.Pow(1.45, float64(i)) // $12 .. ~$2000
		base := int64(baseF * 100)
		uk := int64((baseF*1.05 + 8) * 100)
		addCrawlRound(st, "clothes.com", skuN(i), 0, t0, map[string]vpPrice{
			"us-nyc": {country: "US", units: base},
			"uk-lon": {country: "GB", units: uk},
		})
	}
	series := Fig6(st, market, "clothes.com")
	byVP := map[string]VPSeries{}
	for _, s := range series {
		byVP[s.VP] = s
	}
	fit := byVP["uk-lon"].Fit
	if fit.Kind != StrategyAdditive {
		t.Fatalf("UK fit = %+v", fit)
	}
	if math.Abs(fit.Surcharge-8) > 1.5 {
		t.Fatalf("surcharge = %v", fit.Surcharge)
	}
}

func skuN(i int) string {
	return string(rune('A'+i%26)) + "-PRODUCT"
}

func TestClassifyPairRelations(t *testing.T) {
	similar := [][2]float64{{1.0, 1.0}, {1.1, 1.105}, {1.2, 1.2}}
	if got := classifyPair(similar); got != RelSimilar {
		t.Fatalf("similar = %s", got)
	}
	rowD := [][2]float64{{1.0, 1.1}, {1.0, 1.08}, {1.02, 1.15}}
	if got := classifyPair(rowD); got != RelRowDearer {
		t.Fatalf("rowD = %s", got)
	}
	colD := [][2]float64{{1.1, 1.0}, {1.08, 1.0}, {1.15, 1.02}}
	if got := classifyPair(colD); got != RelColDearer {
		t.Fatalf("colD = %s", got)
	}
	mixed := [][2]float64{{1.0, 1.2}, {1.2, 1.0}, {1.0, 1.15}, {1.18, 1.0}}
	if got := classifyPair(mixed); got != RelMixed {
		t.Fatalf("mixed = %s", got)
	}
	if got := classifyPair(nil); got != RelSimilar {
		t.Fatalf("empty = %s", got)
	}
}

func TestFig8CityGrid(t *testing.T) {
	st := store.New()
	// NYC consistently above Chicago; Boston ≈ LA; Lincoln mixed.
	lincolnUp := false
	for i := 0; i < 10; i++ {
		base := int64(2000 + 500*i)
		lin := base
		if lincolnUp {
			lin = base * 106 / 100
		} else {
			lin = base * 96 / 100
		}
		lincolnUp = !lincolnUp
		addCrawlRound(st, "home.com", skuN(i), 0, t0, map[string]vpPrice{
			"us-chi": {country: "US", city: "Chicago", units: base},
			"us-nyc": {country: "US", city: "New York", units: base * 109 / 100},
			"us-bos": {country: "US", city: "Boston", units: base * 102 / 100},
			"us-la":  {country: "US", city: "Los Angeles", units: base * 102 / 100},
			"us-lin": {country: "US", city: "Lincoln", units: lin},
			"fi-tam": {country: "FI", city: "Tampere", units: base * 120 / 100}, // excluded at city level
		})
	}
	grid := Fig8(st, market, "home.com", "city")
	if len(grid.Locations) != 5 {
		t.Fatalf("locations = %v (Finland must be excluded)", grid.Locations)
	}
	cell, ok := grid.Cell("New York", "Chicago")
	if !ok || cell.Relation != RelRowDearer {
		t.Fatalf("NY/Chicago = %+v", cell.Relation)
	}
	cell, _ = grid.Cell("Boston", "Los Angeles")
	if cell.Relation != RelSimilar {
		t.Fatalf("Boston/LA = %s", cell.Relation)
	}
	cell, _ = grid.Cell("Lincoln", "Boston")
	if cell.Relation != RelMixed {
		t.Fatalf("Lincoln/Boston = %s", cell.Relation)
	}
}

func TestFig8CountryGridDedupsVPs(t *testing.T) {
	st := store.New()
	addCrawlRound(st, "amazon.sim", "P", 0, t0, map[string]vpPrice{
		"us-bos": {country: "US", city: "Boston", units: 10000},
		"us-nyc": {country: "US", city: "New York", units: 10000},
		"fi-tam": {country: "FI", city: "Tampere", units: 12500},
		"de-ber": {country: "DE", city: "Berlin", units: 11200},
	})
	grid := Fig8(st, market, "amazon.sim", "country")
	if len(grid.Locations) != 3 {
		t.Fatalf("locations = %v", grid.Locations)
	}
	cell, ok := grid.Cell("FI", "US")
	if !ok || cell.Relation != RelRowDearer {
		t.Fatalf("FI/US = %+v", cell)
	}
}

func TestFig8EmptyDomain(t *testing.T) {
	grid := Fig8(store.New(), market, "ghost.com", "city")
	if len(grid.Locations) != 0 {
		t.Fatalf("locations = %v", grid.Locations)
	}
	if _, ok := grid.Cell("A", "B"); ok {
		t.Fatal("cell on empty grid")
	}
}
