package core

import (
	"fmt"
	"strings"

	"sheriff/internal/analysis"
	"sheriff/internal/crowd"
)

// Figure accessors: thin bindings of the analysis package to this world's
// store and market, so callers never juggle the pieces separately.

// Fig1 ranks crowd domains by requests with price differences.
func (w *World) Fig1() []analysis.DomainCount { return analysis.Fig1(w.Store, w.Market) }

// Fig2 computes crowd ratio boxplots per domain.
func (w *World) Fig2() []analysis.DomainBox { return analysis.Fig2(w.Store, w.Market) }

// Fig3 computes crawl variation extents per domain.
func (w *World) Fig3() []analysis.DomainExtent { return analysis.Fig3(w.Store, w.Market) }

// Fig4 computes crawl ratio boxplots per domain.
func (w *World) Fig4() []analysis.DomainBox { return analysis.Fig4(w.Store, w.Market) }

// Fig5 computes the ratio-vs-price scatter across all crawled stores.
func (w *World) Fig5() []analysis.PricePoint { return analysis.Fig5(w.Store, w.Market) }

// Fig6 computes per-VP ratio series and strategy fits for one domain.
func (w *World) Fig6(domain string) []analysis.VPSeries {
	return analysis.Fig6(w.Store, w.Market, domain)
}

// Fig7 computes per-location ratio boxplots.
func (w *World) Fig7() []analysis.LocationBox { return analysis.Fig7(w.Store, w.Market) }

// Fig8 computes the pairwise location grid for a domain at "city" or
// "country" granularity.
func (w *World) Fig8(domain, level string) analysis.Fig8Grid {
	return analysis.Fig8(w.Store, w.Market, domain, level)
}

// Fig9 computes the Finland-to-minimum ratio boxplots per domain.
func (w *World) Fig9() []analysis.DomainBox { return analysis.Fig9(w.Store, w.Market) }

// Fig10 reconstructs the login experiment series.
func (w *World) Fig10() analysis.LoginSeries { return analysis.Fig10(w.Store, w.Market) }

// CampaignAgreement measures crowd-vs-crawl consistency — the paper's
// "results are repeatable" claim.
func (w *World) CampaignAgreement() analysis.CampaignAgreement {
	return analysis.CompareCampaigns(w.Store, w.Market)
}

// Report renders the full experiment suite as text: the dataset summary
// and then every figure in paper order, through analysis.RenderFigures —
// the renderer cmd/analyze prints with. crowdRep may be nil when the
// crowd campaign was skipped; the summary is then left out.
func (w *World) Report(crowdRep *crowd.Report) string {
	var b strings.Builder

	if crowdRep != nil {
		sum := analysis.Summarize(w.Store, crowdRep.ActiveUsers, crowdRep.Countries, crowdRep.DistinctDomains)
		rows := [][2]string{
			{"crowd requests", fmt.Sprintf("%d", sum.CrowdRequests)},
			{"crowd users", fmt.Sprintf("%d", sum.CrowdUsers)},
			{"crowd countries", fmt.Sprintf("%d", sum.CrowdCountries)},
			{"domains checked", fmt.Sprintf("%d", sum.CrowdDomains)},
			{"crawled retailers", fmt.Sprintf("%d", sum.CrawledDomains)},
			{"crawled products", fmt.Sprintf("%d", sum.CrawledProducts)},
			{"crawl rounds", fmt.Sprintf("%d", sum.CrawlRounds)},
			{"extracted prices (crawl)", fmt.Sprintf("%d", sum.ExtractedPrices)},
		}
		b.WriteString(analysis.RenderTable("Dataset summary (Sec. 3.2 / 4.1)", [2]string{"metric", "value"}, rows))
		b.WriteByte('\n')
	}

	// The zero Selection draws every figure and cannot fail.
	figs, _ := analysis.RenderFigures(w.Store, w.Market, analysis.Selection{})
	b.WriteString(figs)
	return b.String()
}
