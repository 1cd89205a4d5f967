package api

import (
	"net/http"

	"sheriff/internal/aggregate"
)

// The domain report's wire types are the analysis engine's own: the
// one serving path hands out the engine's folded summary as is. The
// batch recomputation the tests hold it to is reference.FullDomainReport,
// which no binary links.
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
// hold it against reference.FullDomainReport without a server in
// between. Its maps and slice are the engine's cached summary's: read
// them, never write.
func ReportFromEngine(e *aggregate.Engine, domain string) DomainReport {
	sum, ok := e.DomainSummary(domain)
	if !ok {
		return DomainReport{Domain: domain}
	}
	return *sum
}
