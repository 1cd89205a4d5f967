// Package reference holds the batch recomputations that the served
// analysis is held to. sheriffd answers strategy verdicts and domain
// reports from the incremental fold (internal/aggregate); the functions
// here rebuild the same answers from a store's raw rows on every call,
// O(domain's data) each. They are the oracle of the differential tests
// and the baseline of the root benchmarks: only tests import this
// package, so no binary links it.
package reference

import (
	"sort"

	"sheriff/internal/aggregate"
	"sheriff/internal/analysis"
	"sheriff/internal/fx"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// Product judges one product from its crawl observations (any order;
// rounds are partitioned internally): the detector's round-by-round fold
// run over every round at once. Observations of other sources must not
// be passed.
func Product(d *analysis.Detector, obs []store.Observation) analysis.ProductVerdict {
	return d.NewProductState(obs).Verdict()
}

// DetectStrategies attributes a domain's crawl variation to strategy
// families. It reads SourceCrawl observations only — one Product verdict
// per crawled product, summed and flagged by the Detector's rule.
func DetectStrategies(st store.Reader, market *fx.Market, domain string) analysis.StrategyReport {
	d := analysis.NewDetector(market)
	type familyCount struct{ affected, eligible int }
	counts := map[shop.StrategyFamily]*familyCount{}
	for _, f := range analysis.DetectableFamilies {
		counts[f] = &familyCount{}
	}
	for _, obs := range st.DomainGroups(domain, store.SourceCrawl) {
		v := Product(d, obs)
		for _, f := range analysis.DetectableFamilies {
			c := v.Of(f)
			if c.Eligible {
				counts[f].eligible++
			}
			if c.Affected {
				counts[f].affected++
			}
		}
	}
	rep := analysis.StrategyReport{Domain: domain, Evidence: map[shop.StrategyFamily]analysis.FamilyEvidence{}}
	for f, c := range counts {
		rep.Evidence[f] = d.Evidence(f, c.affected, c.eligible)
	}
	return rep
}

// FullDomainReport assembles GET /api/v1/domains/{domain}/report by full
// recomputation off the store's domain indexes and the analysis layer.
// The served report (api.ReportFromEngine) must match it byte for byte.
func FullDomainReport(st store.Reader, market *fx.Market, domain string) aggregate.DomainSummary {
	rep := aggregate.DomainSummary{Domain: domain}

	// Counts off one streaming pass over the domain's observations.
	for o := range st.Scan(store.Query{Domain: domain, Round: -1}) {
		rep.Observations++
		if o.OK {
			rep.OKPrices++
		}
		if rep.BySource == nil {
			rep.BySource = make(map[string]aggregate.SourceCount)
		}
		sc := rep.BySource[o.Source]
		sc.Total++
		if o.OK {
			sc.OK++
		}
		rep.BySource[o.Source] = sc
		if o.Tenant != "" {
			if rep.ByTenant == nil {
				rep.ByTenant = make(map[string]aggregate.SourceCount)
			}
			tc := rep.ByTenant[o.Tenant]
			tc.Total++
			if o.OK {
				tc.OK++
			}
			rep.ByTenant[o.Tenant] = tc
		}
	}
	if rep.Observations == 0 {
		return rep
	}

	// Variation per product group, through the same GroupRatio the
	// figures use (currency filter included).
	var ratios []float64
	for _, group := range st.DomainGroups(domain, "") {
		rep.Variation.Products++
		if ratio, varies := analysis.GroupRatio(market, group); varies {
			rep.Variation.Varied++
			ratios = append(ratios, ratio)
		}
	}
	rep.Products = rep.Variation.Products
	if rep.Variation.Products > 0 {
		rep.Variation.Extent = float64(rep.Variation.Varied) / float64(rep.Variation.Products)
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		rep.Variation.MaxRatio = ratios[len(ratios)-1]
		rep.Variation.MedianRatio = ratios[len(ratios)/2]
	}

	// Strategy attribution: which discrimination families the fleet's
	// structure pins the variation on.
	verdict := DetectStrategies(st, market, domain)
	fams := make([]string, 0, len(verdict.Evidence))
	for f := range verdict.Evidence {
		fams = append(fams, string(f))
	}
	sort.Strings(fams)
	for _, f := range fams {
		ev := verdict.Evidence[shop.StrategyFamily(f)]
		rep.Families = append(rep.Families, aggregate.FamilyVerdict{
			Family: f, Flagged: ev.Flagged,
			Affected: ev.Affected, Eligible: ev.Eligible,
			Share: ev.Affected01(),
		})
	}
	return rep
}
