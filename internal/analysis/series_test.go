package analysis

import (
	"testing"

	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// pts builds a daily-consecutive consensus series starting at round 0,
// with each round's weekday taken from the shared t0 fixture — exactly
// how Product records the series from a synchronized daily crawl.
func pts(units ...int64) []consensusPoint {
	out := make([]consensusPoint, len(units))
	for i, u := range units {
		out[i] = consensusPoint{round: i, units: u, weekday: roundTime(i).UTC().Weekday()}
	}
	return out
}

func TestClassifyConsensus(t *testing.T) {
	// t0 is Friday 2013-02-01; roundTime(i) advances a day per round.
	const base = 50000
	weekend := func(i int) int64 { // +12% on Sat/Sun, like the weekday preset
		switch roundTime(i).UTC().Weekday().String() {
		case "Saturday", "Sunday":
			return base * 112 / 100
		}
		return base
	}
	var calendar, competitive, demand, drifty []int64
	for i := 0; i < 14; i++ {
		calendar = append(calendar, weekend(i))
	}
	// Held levels (2 days each), every reprice a >=3% jump.
	levels := []int64{50000, 55000, 50000, 47500, 52500, 50000, 55000}
	for _, l := range levels {
		competitive = append(competitive, l, l)
	}
	// Strict daily climbs (~3%) with restock drops (>=4%) every 5 days.
	cur := int64(base)
	for i := 0; i < 14; i++ {
		if i%5 == 4 {
			cur = base
		} else {
			cur += 1500
		}
		demand = append(demand, cur)
	}
	// Small (<1%) moves most days — drift's signature.
	for i := 0; i < 14; i++ {
		drifty = append(drifty, base+int64(i%3)*300)
	}

	cases := []struct {
		name string
		pts  []consensusPoint
		want seriesShape
	}{
		{"empty", nil, shapeFlat},
		{"constant", pts(base, base, base, base, base, base, base, base, base, base), shapeFlat},
		{"calendar", pts(calendar...), shapeCalendar},
		{"competitive", pts(competitive...), shapeCompetitive},
		{"demand", pts(demand...), shapeDemand},
		{"drift", pts(drifty...), shapeOther},
		// One week of a weekend pattern: moved, but too short to prove
		// periodicity or judge market shape — residual temporal.
		{"short-weekend", pts(calendar[:7]...), shapeOther},
		// A competitive shape below the market minimum stays temporal.
		{"short-competitive", pts(competitive[:8]...), shapeOther},
	}
	for _, tc := range cases {
		if got := classifyConsensus(tc.pts); got != tc.want {
			t.Errorf("%s: shape = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCalendarPrecedesCompetitive pins the precedence rule: a weekend
// factor also yields held levels with big jumps, but a series that
// repeats exactly by weekday is weekday pricing, never market dynamics.
func TestCalendarPrecedesCompetitive(t *testing.T) {
	var units []int64
	for i := 0; i < 14; i++ {
		u := int64(50000)
		switch roundTime(i).UTC().Weekday().String() {
		case "Saturday", "Sunday":
			u = 56000
		}
		units = append(units, u)
	}
	series := pts(units...)
	if !competitiveShape(series) {
		t.Fatal("fixture broken: weekend series no longer resembles held levels")
	}
	if got := classifyConsensus(series); got != shapeCalendar {
		t.Fatalf("weekend series classified %v, want shapeCalendar", got)
	}
}

// TestMarketShapeNeedsConsecutiveRounds: run lengths and daily steps are
// meaningless across gaps, so a holey series is never judged as market
// dynamics.
func TestMarketShapeNeedsConsecutiveRounds(t *testing.T) {
	levels := []int64{50000, 50000, 55000, 55000, 50000, 50000, 47500, 47500, 52500, 52500, 55000, 55000}
	series := pts(levels...)
	series[6].round = 7 // introduce a one-round hole
	for i := 7; i < len(series); i++ {
		series[i].round = i + 1
	}
	if marketJudgeable(series) {
		t.Fatal("series with a gap judged market-eligible")
	}
	if got := classifyConsensus(series); got != shapeOther {
		t.Fatalf("holey competitive series classified %v, want shapeOther", got)
	}
}

// TestMarketRepricingNotTemporal is the differential test for the
// weekday/temporal detector against a moving base price: a domain whose
// every vantage point sees the identical competitive repricing path —
// pure market dynamics, no discrimination — must NOT flag temporal (or
// anything else but competitive), while the weekday domain beside it
// still must. Before the market subsystem, ANY cross-round consensus
// movement was attributed to the temporal family; this pins the
// separation.
func TestMarketRepricingNotTemporal(t *testing.T) {
	st := store.New()
	vps := []string{"us-bos", "us-chi", "us-nyc", "us-lin"}

	// market.test: held levels, 2 days each, >=4.5% reprices — the
	// leader-follower signature, identical at every vantage point.
	levels := []int64{50000, 55000, 50000, 47500, 52500, 50000, 55000}
	for p := 0; p < 5; p++ {
		sku := "M-" + string(rune('A'+p))
		for r := 0; r < 14; r++ {
			at := roundTime(r)
			for _, vp := range vps {
				crawlObs(st, "market.test", sku, vp, r, at, levels[r/2], "USD")
			}
		}
	}
	// weekday.test: the same cadence, moved by the calendar instead.
	for p := 0; p < 5; p++ {
		sku := "W-" + string(rune('A'+p))
		for r := 0; r < 14; r++ {
			at := roundTime(r)
			u := int64(50000)
			switch at.UTC().Weekday().String() {
			case "Saturday", "Sunday":
				u = 56000
			}
			for _, vp := range vps {
				crawlObs(st, "weekday.test", sku, vp, r, at, u, "USD")
			}
		}
	}

	mkt := DetectStrategies(st, market, "market.test")
	if !mkt.Flagged(shop.FamilyCompetitive) {
		t.Fatalf("competitive repricing not flagged: %s", mkt)
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyTemporal, shop.FamilyGeo,
		shop.FamilyFingerprint, shop.FamilyDisclosure, shop.FamilyDemand} {
		if mkt.Flagged(f) {
			t.Errorf("market repricing falsely flagged %s: %s", f, mkt)
		}
	}

	wd := DetectStrategies(st, market, "weekday.test")
	if !wd.Flagged(shop.FamilyTemporal) {
		t.Fatalf("weekday pricing lost its temporal flag: %s", wd)
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyCompetitive, shop.FamilyDemand} {
		if wd.Flagged(f) {
			t.Errorf("weekday pricing falsely flagged %s: %s", f, wd)
		}
	}
}

// TestDemandRepricingNotTemporal: the scarcity-pricing signature (daily
// climbs, restock drops) seen identically everywhere flags demand and
// nothing else.
func TestDemandRepricingNotTemporal(t *testing.T) {
	st := store.New()
	vps := []string{"us-bos", "us-chi", "us-nyc", "us-lin"}
	for p := 0; p < 5; p++ {
		sku := "D-" + string(rune('A'+p))
		cur := int64(50000)
		for r := 0; r < 14; r++ {
			if r > 0 {
				if r%5 == 0 {
					cur = 50000
				} else {
					cur += 1500
				}
			}
			at := roundTime(r)
			for _, vp := range vps {
				crawlObs(st, "demand.test", sku, vp, r, at, cur, "USD")
			}
		}
	}
	rep := DetectStrategies(st, market, "demand.test")
	if !rep.Flagged(shop.FamilyDemand) {
		t.Fatalf("demand repricing not flagged: %s", rep)
	}
	for _, f := range []shop.StrategyFamily{shop.FamilyTemporal, shop.FamilyGeo,
		shop.FamilyFingerprint, shop.FamilyDisclosure, shop.FamilyCompetitive} {
		if rep.Flagged(f) {
			t.Errorf("demand repricing falsely flagged %s: %s", f, rep)
		}
	}
}

// TestShortMarketSeriesStaysTemporal pins backwards compatibility: below
// minMarketRounds the classifier never claims a market shape, so a
// 7-round crawl (the historical default) reports moving consensus as
// temporal, exactly as before the market subsystem existed.
func TestShortMarketSeriesStaysTemporal(t *testing.T) {
	st := store.New()
	levels := []int64{50000, 50000, 55000, 55000, 47500, 47500, 52500}
	for p := 0; p < 5; p++ {
		sku := "S-" + string(rune('A'+p))
		for r := 0; r < 7; r++ {
			at := roundTime(r)
			for _, vp := range []string{"us-bos", "us-chi", "us-nyc", "us-lin"} {
				crawlObs(st, "short.test", sku, vp, r, at, levels[r], "USD")
			}
		}
	}
	rep := DetectStrategies(st, market, "short.test")
	if !rep.Flagged(shop.FamilyTemporal) {
		t.Fatalf("short moving series not reported temporal: %s", rep)
	}
	if rep.Flagged(shop.FamilyCompetitive) || rep.Flagged(shop.FamilyDemand) {
		t.Errorf("7-round series claimed a market shape: %s", rep)
	}
	// And the market families were not even eligible: the series is too
	// short to judge.
	if ev := rep.Evidence[shop.FamilyCompetitive]; ev.Eligible != 0 {
		t.Errorf("competitive eligible on a 7-round series: %+v", ev)
	}
}
