package analysis

import (
	"testing"
	"time"
)

// roundTime is round r's crawl instant: one day per round from t0.
func roundTime(r int) time.Time { return t0.Add(time.Duration(r) * 24 * time.Hour) }

// pts builds a daily-consecutive consensus series starting at round 0,
// with each round's weekday taken from the shared t0 fixture — exactly
// how ProductState records the series from a synchronized daily crawl.
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
