package analysis

import (
	"math"
	"sort"

	"sheriff/internal/fx"
	"sheriff/internal/store"
)

// StrategyKind classifies how a retailer prices a location relative to the
// cheapest location (Fig. 6's reading).
type StrategyKind string

// Strategy kinds.
const (
	// StrategyNone: the location tracks the minimum (ratio ≈ 1).
	StrategyNone StrategyKind = "none"
	// StrategyMultiplicative: a constant ratio across the price range —
	// the parallel horizontal lines of Fig. 6(a).
	StrategyMultiplicative StrategyKind = "multiplicative"
	// StrategyAdditive: a flat surcharge whose relative effect fades with
	// price — the converging curve of Fig. 6(b).
	StrategyAdditive StrategyKind = "additive"
)

// VPSeries is one vantage point's scatter in a Fig. 6-style plot.
type VPSeries struct {
	// VP is the vantage point ID; Label its display name.
	VP, Label string
	// Points are (min price, ratio to min) pairs in ascending price order.
	Points []RatioPoint
	// Fit is the fitted pricing strategy for this VP.
	Fit StrategyFit
}

// RatioPoint is one dot: the product's minimum USD price across locations
// and this location's price ratio to that minimum.
type RatioPoint struct {
	MinUSD float64
	Ratio  float64
}

// StrategyFit is the result of fitting the two candidate models
// r(p) = a (multiplicative) and r(p) = b + c/p (additive surcharge c on
// top of multiplier b) to a VP's ratio-vs-price scatter.
type StrategyFit struct {
	Kind StrategyKind
	// Factor is the multiplicative level: a for multiplicative fits,
	// b for additive fits.
	Factor float64
	// Surcharge is the additive USD term c (0 for multiplicative fits).
	Surcharge float64
	// RMSE is the root-mean-square error of the chosen model.
	RMSE float64
}

// fig6MinPoints is the fewest ratio points a vantage point needs for a
// series and a fit.
const fig6MinPoints = 5

// Fig6 builds per-vantage-point ratio series and strategy fits for one
// crawled domain. Only vantage points with at least fig6MinPoints points
// are returned.
func Fig6(st store.Reader, market *fx.Market, domain string) []VPSeries {
	pointsByVP := map[string][]RatioPoint{}
	labels := map[string]string{}
	for _, obs := range st.DomainGroups(domain, store.SourceCrawl) {
		for _, group := range byRound(obs) {
			minUSD := -1.0
			usdByVP := map[string]float64{}
			for _, o := range group {
				if !o.OK {
					continue
				}
				if usd, ok := usdOf(market, o); ok {
					usdByVP[o.VP] = usd
					labels[o.VP] = o.VPLabel
					if minUSD < 0 || usd < minUSD {
						minUSD = usd
					}
				}
			}
			if minUSD <= 0 || len(usdByVP) < 2 {
				continue
			}
			for vp, usd := range usdByVP {
				pointsByVP[vp] = append(pointsByVP[vp], RatioPoint{MinUSD: minUSD, Ratio: usd / minUSD})
			}
		}
	}
	var out []VPSeries
	for vp, pts := range pointsByVP {
		if len(pts) < fig6MinPoints {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].MinUSD < pts[j].MinUSD })
		out = append(out, VPSeries{VP: vp, Label: labels[vp], Points: pts, Fit: FitStrategy(pts)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VP < out[j].VP })
	return out
}

// FitStrategy fits the multiplicative and additive models to a scatter and
// picks the better one. A flat fit with factor within noiseBand of 1 is
// classified as StrategyNone.
func FitStrategy(pts []RatioPoint) StrategyFit {
	if len(pts) == 0 {
		return StrategyFit{Kind: StrategyNone, Factor: 1}
	}
	// Model A: r = a. Least squares: a = mean(r).
	var sum float64
	for _, p := range pts {
		sum += p.Ratio
	}
	a := sum / float64(len(pts))
	sseA := 0.0
	for _, p := range pts {
		d := p.Ratio - a
		sseA += d * d
	}

	// Model B: r = b + c/p. Linear least squares in x = 1/p.
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := 1 / p.MinUSD
		sx += x
		sy += p.Ratio
		sxx += x * x
		sxy += x * p.Ratio
	}
	n := float64(len(pts))
	den := n*sxx - sx*sx
	var b, c, sseB float64
	if den == 0 {
		b, c, sseB = a, 0, sseA
	} else {
		c = (n*sxy - sx*sy) / den
		b = (sy - c*sx) / n
		for _, p := range pts {
			d := p.Ratio - (b + c/p.MinUSD)
			sseB += d * d
		}
	}

	const noiseBand = 0.02
	// Prefer the simpler multiplicative model unless the additive term
	// buys a clearly better fit AND is economically meaningful.
	betterAdditive := sseB < sseA*0.5 && c > 0.5
	if betterAdditive {
		return StrategyFit{
			Kind: StrategyAdditive, Factor: b, Surcharge: c,
			RMSE: math.Sqrt(sseB / n),
		}
	}
	kind := StrategyMultiplicative
	if math.Abs(a-1) <= noiseBand {
		kind = StrategyNone
	}
	return StrategyFit{Kind: kind, Factor: a, RMSE: math.Sqrt(sseA / n)}
}

// Relation classifies how two locations price the same products
// (Fig. 8's pairwise subplots).
type Relation string

// Relations between two locations.
const (
	// RelSimilar: points hug the diagonal.
	RelSimilar Relation = "similar"
	// RelRowDearer: the row location is consistently more expensive.
	RelRowDearer Relation = "row-dearer"
	// RelColDearer: the column location is consistently more expensive.
	RelColDearer Relation = "col-dearer"
	// RelMixed: some products dearer on one side, some on the other.
	RelMixed Relation = "mixed"
)

// PairCell is one subplot of a Fig. 8 grid.
type PairCell struct {
	// Row and Col are location names.
	Row, Col string
	// Points are (col ratio, row ratio) pairs.
	Points [][2]float64
	// Relation classifies the cloud.
	Relation Relation
}

// Fig8Grid is the full pairwise comparison for a domain.
type Fig8Grid struct {
	Domain    string
	Locations []string
	// Cells indexed [row][col]; the diagonal holds empty cells.
	Cells [][]PairCell
}

// Fig8 builds the pairwise location grid for a domain. Level selects the
// paper's two granularities: "city" compares the six US cities
// (homedepot), "country" compares one representative VP per country
// (amazon, killah).
func Fig8(st store.Reader, market *fx.Market, domain, level string) Fig8Grid {
	// Collect per-(product, round) USD prices by location name.
	type groupPrices map[string]float64
	var groups []groupPrices
	for _, obs := range st.DomainGroups(domain, store.SourceCrawl) {
		for _, group := range byRound(obs) {
			gp := groupPrices{}
			minUSD := -1.0
			for _, o := range group {
				if !o.OK {
					continue
				}
				name, ok := locationName(o, level)
				if !ok {
					continue
				}
				usd, okc := usdOf(market, o)
				if !okc {
					continue
				}
				if _, dup := gp[name]; dup {
					continue // country level: first VP of the country wins
				}
				gp[name] = usd
				if minUSD < 0 || usd < minUSD {
					minUSD = usd
				}
			}
			if len(gp) >= 2 && minUSD > 0 {
				for name, usd := range gp {
					gp[name] = usd / minUSD
				}
				groups = append(groups, gp)
			}
		}
	}
	// Stable location order.
	locSet := map[string]bool{}
	for _, gp := range groups {
		for name := range gp {
			locSet[name] = true
		}
	}
	locations := make([]string, 0, len(locSet))
	for name := range locSet {
		locations = append(locations, name)
	}
	sort.Strings(locations)

	grid := Fig8Grid{Domain: domain, Locations: locations}
	grid.Cells = make([][]PairCell, len(locations))
	for i, row := range locations {
		grid.Cells[i] = make([]PairCell, len(locations))
		for j, col := range locations {
			cell := PairCell{Row: row, Col: col}
			if i != j {
				for _, gp := range groups {
					rv, okR := gp[row]
					cv, okC := gp[col]
					if okR && okC {
						cell.Points = append(cell.Points, [2]float64{cv, rv})
					}
				}
				cell.Relation = classifyPair(cell.Points)
			}
			grid.Cells[i][j] = cell
		}
	}
	return grid
}

// locationName maps an observation to its grid label under a level.
func locationName(o store.Observation, level string) (string, bool) {
	switch level {
	case "city":
		if o.Country != "US" || o.City == "" {
			return "", false
		}
		return o.City, true
	case "country":
		// One representative VP per country: skip the extra Spanish
		// browser configs and the extra US cities deterministically by
		// preferring the lexically-first VP ID per country; the caller
		// dedupes by name, so make the representative stable instead.
		return o.Country, true
	default:
		return o.VPLabel, true
	}
}

// classifyPair decides the relation of a point cloud around the diagonal.
// Points on the diagonal (within tol) are products priced the same at both
// locations; the relation is read from the points that differ, so that a
// retailer which varies only half its catalog still shows "New York dearer
// than Chicago" rather than drowning in diagonal mass — which is how the
// paper reads its Fig. 8 subplots.
func classifyPair(points [][2]float64) Relation {
	if len(points) == 0 {
		return RelSimilar
	}
	const tol = 0.015 // 1.5% band counts as "same price"
	similar, rowD, colD := 0, 0, 0
	for _, p := range points {
		col, row := p[0], p[1]
		base := math.Min(col, row)
		if base <= 0 {
			continue
		}
		switch {
		case math.Abs(row-col)/base <= tol:
			similar++
		case row > col:
			rowD++
		default:
			colD++
		}
	}
	n := similar + rowD + colD
	diff := rowD + colD
	// Below 12% differing points, what differs is A/B-test residue, not a
	// location policy: the locations price alike.
	if n == 0 || float64(diff)/float64(n) < 0.12 {
		return RelSimilar
	}
	share := float64(rowD) / float64(diff)
	switch {
	case share >= 0.9:
		return RelRowDearer
	case share <= 0.1:
		return RelColDearer
	default:
		return RelMixed
	}
}

// Cell returns the grid cell for (row, col) names, if present.
func (g Fig8Grid) Cell(row, col string) (PairCell, bool) {
	ri, ci := -1, -1
	for i, name := range g.Locations {
		if name == row {
			ri = i
		}
		if name == col {
			ci = i
		}
	}
	if ri < 0 || ci < 0 {
		return PairCell{}, false
	}
	return g.Cells[ri][ci], true
}
