// Package analysis computes every figure of the paper's evaluation from a
// store of observations: the crowdsourced rankings (Fig. 1/2), the crawl
// extents and magnitudes (Fig. 3/4), the product-price scatter (Fig. 5),
// per-retailer strategy profiles (Fig. 6), location effects (Fig. 7/8/9)
// and the login experiment series (Fig. 10), plus the dataset summary and
// third-party presence numbers quoted in the text.
//
// All monetary comparisons go through the fx currency filter (Sec. 2.2):
// a "variation" below always means variation that survives worst-case
// exchange-rate translation.
package analysis

import (
	"fmt"
	"math"
	"sort"
)

// BoxStats is a five-number summary plus count — the data behind one box
// of the paper's boxplots.
type BoxStats struct {
	// Min and Max are the extreme values.
	Min, Max float64
	// Q1, Median, Q3 are the quartiles.
	Q1, Median, Q3 float64
	// N is the sample size.
	N int
}

// Box computes BoxStats over values. Zero N means no data.
func Box(values []float64) BoxStats {
	if len(values) == 0 {
		return BoxStats{}
	}
	v := make([]float64, len(values))
	copy(v, values)
	sort.Float64s(v)
	return BoxStats{
		Min:    v[0],
		Q1:     Quantile(v, 0.25),
		Median: Quantile(v, 0.5),
		Q3:     Quantile(v, 0.75),
		Max:    v[len(v)-1],
		N:      len(v),
	}
}

// Quantile returns the q-quantile (0..1) of sorted values using linear
// interpolation. It panics on an empty slice: quantiles of nothing are a
// programming error.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("analysis: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median is the 0.5 quantile of (a copy of) values.
func Median(values []float64) float64 {
	if len(values) == 0 {
		panic("analysis: Median of empty slice")
	}
	v := make([]float64, len(values))
	copy(v, values)
	sort.Float64s(v)
	return Quantile(v, 0.5)
}

// String renders the five-number summary compactly.
func (b BoxStats) String() string {
	if b.N == 0 {
		return "(no data)"
	}
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f n=%d",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}
