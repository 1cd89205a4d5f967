package api

import (
	"net/http"
	"sort"

	"sheriff/internal/aggregate"
	"sheriff/internal/analysis"
	"sheriff/internal/fx"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// The domain report's wire types are the analysis engine's own: the
// serving path hands out the engine's summary as is, and FullDomainReport
// builds the same type by full recomputation.
type (
	// DomainReport is GET /api/v1/domains/{domain}/report.
	DomainReport = aggregate.DomainSummary
	// VariationSummary is one domain's price-variation picture.
	VariationSummary = aggregate.VariationSummary
	// FamilyVerdict is one strategy family's attribution for a domain.
	FamilyVerdict = aggregate.FamilyVerdict
	// SourceCount splits one source's observations into total and OK.
	SourceCount = aggregate.SourceCount
)

// handleDomainReport serves GET /api/v1/domains/{domain}/report. A
// domain with no observations is a 404 — the caller asked about a shop
// the dataset has never seen.
func (s *Server) handleDomainReport(w http.ResponseWriter, r *http.Request) {
	domain := r.PathValue("domain")
	rep := ReportFromEngine(s.analysis, domain)
	if rep.Observations == 0 {
		writeError(w, s.opts.Logger, errf(http.StatusNotFound, CodeNotFound,
			"no observations for domain %q", domain))
		return
	}
	writeJSON(w, s.opts.Logger, rep)
}

// ReportFromEngine returns the wire report off an incremental engine's
// aggregates — the serving path, exported so the differential tests can
// hold it against FullDomainReport without a server in between. Its maps
// and slice are the engine's cached summary's: read them, never write.
func ReportFromEngine(e *aggregate.Engine, domain string) DomainReport {
	sum, ok := e.DomainSummary(domain)
	if !ok {
		return DomainReport{Domain: domain}
	}
	return *sum
}

// FullDomainReport assembles the report by full recomputation off the
// store's domain indexes and the analysis layer — O(domain's data) per
// call. This is the reference path the aggregate-backed report must
// match byte for byte; the differential tests call it directly.
func FullDomainReport(st store.Reader, market *fx.Market, domain string) DomainReport {
	rep := DomainReport{Domain: domain}

	// Counts off one streaming pass over the domain's observations.
	for o := range st.Scan(store.Query{Domain: domain, Round: -1}) {
		rep.Observations++
		if o.OK {
			rep.OKPrices++
		}
		if rep.BySource == nil {
			rep.BySource = make(map[string]SourceCount)
		}
		sc := rep.BySource[o.Source]
		sc.Total++
		if o.OK {
			sc.OK++
		}
		rep.BySource[o.Source] = sc
		if o.Tenant != "" {
			if rep.ByTenant == nil {
				rep.ByTenant = make(map[string]SourceCount)
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
	verdict := analysis.DetectStrategies(st, market, domain)
	fams := make([]string, 0, len(verdict.Evidence))
	for f := range verdict.Evidence {
		fams = append(fams, string(f))
	}
	sort.Strings(fams)
	for _, f := range fams {
		ev := verdict.Evidence[shop.StrategyFamily(f)]
		rep.Families = append(rep.Families, FamilyVerdict{
			Family: f, Flagged: ev.Flagged,
			Affected: ev.Affected, Eligible: ev.Eligible,
			Share: ev.Affected01(),
		})
	}
	return rep
}
