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

// VariationSummary is the price-variation picture of one domain: how
// many products vary after the currency filter, and by how much.
type VariationSummary struct {
	// Products judged (product groups with at least one observation).
	Products int `json:"products"`
	// Varied is how many survive the conservative currency filter.
	Varied int `json:"varied"`
	// Extent is Varied/Products — the paper's Fig. 3 metric.
	Extent float64 `json:"extent"`
	// MaxRatio and MedianRatio summarize the varied products' max/min
	// USD ratios (zero when nothing varies).
	MaxRatio    float64 `json:"max_ratio"`
	MedianRatio float64 `json:"median_ratio"`
}

// FamilyVerdict is one strategy family's attribution for the domain.
type FamilyVerdict struct {
	// Family is the strategy family (geo, fingerprint, disclosure,
	// temporal).
	Family string `json:"family"`
	// Flagged reports whether the detector attributes variation to it.
	Flagged bool `json:"flagged"`
	// Affected of Eligible products show the family's signature; Share
	// is their ratio.
	Affected int     `json:"affected"`
	Eligible int     `json:"eligible"`
	Share    float64 `json:"share"`
}

// DomainReport is GET /api/v1/domains/{domain}/report: dataset counts,
// the variation summary off the analysis layer, and the per-family
// strategy attribution of DetectStrategies.
type DomainReport struct {
	Domain       string                 `json:"domain"`
	Observations int                    `json:"observations"`
	OKPrices     int                    `json:"ok_prices"`
	Products     int                    `json:"products"`
	BySource     map[string]SourceCount `json:"by_source,omitempty"`
	// ByTenant splits the domain's observations per contributing tenant
	// (the reward ledger, scoped to one retailer); absent while tenancy
	// is unused.
	ByTenant  map[string]SourceCount `json:"by_tenant,omitempty"`
	Variation VariationSummary       `json:"variation"`
	Families  []FamilyVerdict        `json:"families"`
}

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

// ReportFromEngine assembles the wire report off an incremental engine's
// aggregates — the serving path, exported so the differential tests can
// hold it against FullDomainReport without a server in between.
func ReportFromEngine(e *aggregate.Engine, domain string) DomainReport {
	sum, ok := e.DomainSummary(domain)
	if !ok {
		return DomainReport{Domain: domain}
	}
	return reportFromSummary(sum)
}

// reportFromSummary maps the engine's summary onto the wire shape,
// field for field.
func reportFromSummary(sum *aggregate.DomainSummary) DomainReport {
	rep := DomainReport{
		Domain:       sum.Domain,
		Observations: sum.Observations,
		OKPrices:     sum.OKPrices,
		Products:     sum.Products,
		Variation: VariationSummary{
			Products:    sum.Variation.Products,
			Varied:      sum.Variation.Varied,
			Extent:      sum.Variation.Extent,
			MaxRatio:    sum.Variation.MaxRatio,
			MedianRatio: sum.Variation.MedianRatio,
		},
	}
	if len(sum.BySource) > 0 {
		rep.BySource = make(map[string]SourceCount, len(sum.BySource))
		for src, sc := range sum.BySource {
			rep.BySource[src] = SourceCount{Total: sc.Total, OK: sc.OK}
		}
	}
	if len(sum.ByTenant) > 0 {
		rep.ByTenant = make(map[string]SourceCount, len(sum.ByTenant))
		for tn, tc := range sum.ByTenant {
			rep.ByTenant[tn] = SourceCount{Total: tc.Total, OK: tc.OK}
		}
	}
	for _, f := range sum.Families {
		rep.Families = append(rep.Families, FamilyVerdict{
			Family: f.Family, Flagged: f.Flagged,
			Affected: f.Affected, Eligible: f.Eligible,
			Share: f.Share,
		})
	}
	return rep
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
	verdict := analysis.DetectStrategies(st, market, domain, analysis.DetectOptions{})
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
