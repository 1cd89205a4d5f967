package analysis

import (
	"fmt"
	"sort"
	"strings"

	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/store"
)

// DomainCount is one bar of Fig. 1: how many crowd checks against a domain
// showed real price variation.
type DomainCount struct {
	Domain string
	// Checks is the number of crowd checks against the domain.
	Checks int
	// WithVariation is how many survived the currency filter.
	WithVariation int
}

// Fig1 ranks domains by the number of crowd requests with price
// differences, descending — "Domains with the highest number of requests
// where price differences occurred".
func Fig1(st store.Reader, market *fx.Market) []DomainCount {
	perDomain := map[string]*DomainCount{}
	for key, obs := range st.Groups(store.SourceCrowd) {
		for _, check := range byCheck(obs) {
			dc := perDomain[key.Domain]
			if dc == nil {
				dc = &DomainCount{Domain: key.Domain}
				perDomain[key.Domain] = dc
			}
			dc.Checks++
			if _, real := GroupRatio(market, check); real {
				dc.WithVariation++
			}
		}
	}
	out := make([]DomainCount, 0, len(perDomain))
	for _, dc := range perDomain {
		if dc.WithVariation > 0 {
			out = append(out, *dc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WithVariation != out[j].WithVariation {
			return out[i].WithVariation > out[j].WithVariation
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// DomainBox is one box of Fig. 2/4/9: a domain plus ratio statistics.
type DomainBox struct {
	Domain string
	Box    BoxStats
}

// Fig2 computes, per domain in the crowdsourced dataset, the distribution
// of conservative max/min ratios over checks that showed variation —
// "Magnitude of price differences per domain".
func Fig2(st store.Reader, market *fx.Market) []DomainBox {
	ratios := map[string][]float64{}
	for key, obs := range st.Groups(store.SourceCrowd) {
		for _, check := range byCheck(obs) {
			if ratio, real := GroupRatio(market, check); real {
				ratios[key.Domain] = append(ratios[key.Domain], ratio)
			}
		}
	}
	return domainBoxes(ratios)
}

// domainBoxes folds ratio lists into sorted DomainBox rows (ascending
// median, the paper's Fig. 4 ordering).
func domainBoxes(ratios map[string][]float64) []DomainBox {
	out := make([]DomainBox, 0, len(ratios))
	for d, rs := range ratios {
		out = append(out, DomainBox{Domain: d, Box: Box(rs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Box.Median != out[j].Box.Median {
			return out[i].Box.Median < out[j].Box.Median
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// DomainExtent is one bar of Fig. 3: the fraction of a domain's crawled
// products with persistent price variation.
type DomainExtent struct {
	Domain string
	// Products is how many products were measured.
	Products int
	// Varied is how many showed persistent variation.
	Varied int
	// Extent is Varied/Products.
	Extent float64
}

// Fig3 measures the extent of price variation per crawled domain —
// "Measured extent of price variations for different domains". Persistence
// across rounds is required, which is what rejects A/B noise.
func Fig3(st store.Reader, market *fx.Market) []DomainExtent {
	perDomain := map[string]*DomainExtent{}
	for key, obs := range st.Groups(store.SourceCrawl) {
		de := perDomain[key.Domain]
		if de == nil {
			de = &DomainExtent{Domain: key.Domain}
			perDomain[key.Domain] = de
		}
		pr := summarizeProduct(market, obs)
		if pr.rounds == 0 {
			continue
		}
		de.Products++
		if pr.persistent() {
			de.Varied++
		}
	}
	out := make([]DomainExtent, 0, len(perDomain))
	for _, de := range perDomain {
		if de.Products > 0 {
			de.Extent = float64(de.Varied) / float64(de.Products)
		}
		out = append(out, *de)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Extent != out[j].Extent {
			return out[i].Extent > out[j].Extent
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// Fig4 computes per crawled domain the distribution of median
// (across rounds) conservative ratios over persistently varying products —
// "Magnitude of price variability per domain".
func Fig4(st store.Reader, market *fx.Market) []DomainBox {
	ratios := map[string][]float64{}
	for key, obs := range st.Groups(store.SourceCrawl) {
		pr := summarizeProduct(market, obs)
		if pr.persistent() {
			ratios[key.Domain] = append(ratios[key.Domain], pr.medianRatio())
		}
	}
	return domainBoxes(ratios)
}

// PricePoint is one dot of Fig. 5.
type PricePoint struct {
	Domain string
	SKU    string
	// MinUSD is the lowest USD price observed for the product.
	MinUSD float64
	// MaxRatio is the largest per-round conservative ratio.
	MaxRatio float64
}

// Fig5 computes the maximal ratio of price difference against the minimal
// product price, across all crawled stores.
func Fig5(st store.Reader, market *fx.Market) []PricePoint {
	var out []PricePoint
	for key, obs := range st.Groups(store.SourceCrawl) {
		pr := summarizeProduct(market, obs)
		if pr.minUSD <= 0 || len(pr.ratios) == 0 {
			continue
		}
		out = append(out, PricePoint{
			Domain: key.Domain, SKU: key.SKU,
			MinUSD: pr.minUSD, MaxRatio: pr.maxRatio(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MinUSD != out[j].MinUSD {
			return out[i].MinUSD < out[j].MinUSD
		}
		return out[i].SKU < out[j].SKU
	})
	return out
}

// Fig5Envelope summarizes Fig. 5 the way the paper reads it: the maximum
// ratio observed within price bands.
type Fig5Envelope struct {
	// Band labels the price range.
	Band string
	// Lo and Hi bound the band in USD.
	Lo, Hi float64
	// MaxRatio is the largest ratio seen in the band (1 when empty).
	MaxRatio float64
	// N is the number of products in the band.
	N int
}

// EnvelopeOf folds Fig. 5 points into the paper's three headline bands:
// cheap (≤$100) up to ×3, mid ($100–$2000) up to ×2, expensive (>$2000)
// under ×1.5.
func EnvelopeOf(points []PricePoint) []Fig5Envelope {
	bands := []Fig5Envelope{
		{Band: "cheap (<=$100)", Lo: 0, Hi: 100, MaxRatio: 1},
		{Band: "mid ($100-$2000)", Lo: 100, Hi: 2000, MaxRatio: 1},
		{Band: "expensive (>$2000)", Lo: 2000, Hi: 1e18, MaxRatio: 1},
	}
	for _, p := range points {
		for i := range bands {
			if p.MinUSD > bands[i].Lo && p.MinUSD <= bands[i].Hi {
				bands[i].N++
				if p.MaxRatio > bands[i].MaxRatio {
					bands[i].MaxRatio = p.MaxRatio
				}
			}
		}
	}
	return bands
}

// LocationBox is one box of Fig. 7: price-to-minimum ratios at one
// vantage point.
type LocationBox struct {
	// VP is the vantage point ID; Label the paper's axis label.
	VP, Label string
	Box       BoxStats
}

// Fig7 computes, for each vantage point, the distribution over
// (product, round) of the VP's USD price divided by the minimum USD price
// across all vantage points — "Magnitude of price differences per
// location". It is nil when no vantage point has a ratio.
func Fig7(st store.Reader, market *fx.Market) []LocationBox {
	ratiosByVP := map[string][]float64{}
	for _, obs := range st.Groups(store.SourceCrawl) {
		for _, group := range byRound(obs) {
			addLocationRatios(market, group, ratiosByVP)
		}
	}
	if len(ratiosByVP) == 0 {
		return nil
	}
	var out []LocationBox
	for _, vp := range geo.VantagePoints() {
		out = append(out, LocationBox{
			VP: vp.ID, Label: vp.Label, Box: Box(ratiosByVP[vp.ID]),
		})
	}
	return out
}

// addLocationRatios computes per-VP price/min ratios for one product-round
// group and accumulates them into acc.
func addLocationRatios(market *fx.Market, group []store.Observation, acc map[string][]float64) {
	type vpUSD struct {
		vp  string
		usd float64
	}
	var vals []vpUSD
	minUSD := -1.0
	for _, o := range group {
		if !o.OK {
			continue
		}
		usd, ok := usdOf(market, o)
		if !ok {
			continue
		}
		vals = append(vals, vpUSD{vp: o.VP, usd: usd})
		if minUSD < 0 || usd < minUSD {
			minUSD = usd
		}
	}
	if minUSD <= 0 || len(vals) < 2 {
		return
	}
	for _, v := range vals {
		acc[v.vp] = append(acc[v.vp], v.usd/minUSD)
	}
}

// Fig9 computes per crawled domain the distribution of
// price(Finland)/min-price ratios — "Magnitude of price differences per
// domain in Tampere, Finland". A median near 1.0 with Min == 1.0 means
// Finland is (sometimes) the cheapest location.
func Fig9(st store.Reader, market *fx.Market) []DomainBox {
	ratios := map[string][]float64{}
	for key, obs := range st.Groups(store.SourceCrawl) {
		for _, group := range byRound(obs) {
			acc := map[string][]float64{}
			addLocationRatios(market, group, acc)
			if fi := acc["fi-tam"]; len(fi) == 1 {
				ratios[key.Domain] = append(ratios[key.Domain], fi[0])
			}
		}
	}
	return domainBoxes(ratios)
}

// LoginSeries is Fig. 10: per-account price series over the sampled
// products, same location and instant.
type LoginSeries struct {
	// SKUs lists the products in plot order.
	SKUs []string
	// Accounts lists the series labels; "" is the anonymous visitor.
	Accounts []string
	// USD[account][i] is the price of SKUs[i] under that account.
	USD map[string][]float64
}

// Fig10 reconstructs the login experiment series from SourceLogin
// observations.
func Fig10(st store.Reader, market *fx.Market) LoginSeries {
	skuSet := map[string]bool{}
	accSet := map[string]bool{}
	prices := map[string]map[string]float64{} // account -> sku -> usd
	for o := range st.Scan(store.Query{Source: store.SourceLogin, Round: -1, OnlyOK: true}) {
		skuSet[o.SKU] = true
		accSet[o.Account] = true
		usd, ok := usdOf(market, o)
		if !ok {
			continue
		}
		if prices[o.Account] == nil {
			prices[o.Account] = map[string]float64{}
		}
		prices[o.Account][o.SKU] = usd
	}
	ls := LoginSeries{USD: map[string][]float64{}}
	for sku := range skuSet {
		ls.SKUs = append(ls.SKUs, sku)
	}
	sort.Strings(ls.SKUs)
	for acc := range accSet {
		ls.Accounts = append(ls.Accounts, acc)
	}
	sort.Strings(ls.Accounts)
	for _, acc := range ls.Accounts {
		series := make([]float64, len(ls.SKUs))
		for i, sku := range ls.SKUs {
			series[i] = prices[acc][sku]
		}
		ls.USD[acc] = series
	}
	return ls
}

// Differing counts products whose price under the account differs from the
// anonymous price by more than tol (relative).
func (ls LoginSeries) Differing(account string, tol float64) int {
	anon, ok := ls.USD[""]
	acc, ok2 := ls.USD[account]
	if !ok || !ok2 {
		return 0
	}
	n := 0
	for i := range anon {
		if anon[i] <= 0 || acc[i] <= 0 {
			continue // missing datapoint, not a price difference
		}
		rel := (acc[i] - anon[i]) / anon[i]
		if rel < 0 {
			rel = -rel
		}
		if rel > tol {
			n++
		}
	}
	return n
}

// Summary is the dataset overview quoted in Sec. 3.2 and 4.1.
type Summary struct {
	CrowdRequests   int
	CrowdUsers      int
	CrowdCountries  int
	CrowdDomains    int
	CrawledDomains  int
	CrawledProducts int
	CrawlRounds     int
	ExtractedPrices int
}

// Summarize derives the dataset summary from the store plus the crowd
// campaign's user statistics (user identities are campaign state, not
// observations).
func Summarize(st store.Reader, crowdUsers, crowdCountries, crowdDomains int) Summary {
	s := Summary{
		CrowdUsers:     crowdUsers,
		CrowdCountries: crowdCountries,
		CrowdDomains:   crowdDomains,
	}
	checkTimes := map[string]bool{}
	crawlDomains := map[string]bool{}
	crawlProducts := map[store.Key]bool{}
	maxRound := -1
	for o := range st.Scan(store.Query{Source: store.SourceCrowd, Round: -1}) {
		checkTimes[o.Domain+"|"+o.SKU+"|"+o.Time.String()] = true
	}
	for o := range st.Scan(store.Query{Source: store.SourceCrawl, Round: -1}) {
		crawlDomains[o.Domain] = true
		crawlProducts[store.Key{Domain: o.Domain, SKU: o.SKU}] = true
		if o.Round > maxRound {
			maxRound = o.Round
		}
	}
	_, s.ExtractedPrices = st.LenSource(store.SourceCrawl)
	s.CrowdRequests = len(checkTimes)
	s.CrawledDomains = len(crawlDomains)
	s.CrawledProducts = len(crawlProducts)
	s.CrawlRounds = maxRound + 1
	return s
}

// RenderTable renders rows of (label, value) pairs with aligned columns —
// the shared text-output helper for cmd/analyze and cmd/experiments.
func RenderTable(title string, header [2]string, rows [][2]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	w := len(header[0])
	for _, r := range rows {
		if len(r[0]) > w {
			w = len(r[0])
		}
	}
	fmt.Fprintf(&b, "%-*s  %s\n", w, header[0], header[1])
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", w, r[0], r[1])
	}
	return b.String()
}
