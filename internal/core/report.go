package core

import (
	"fmt"
	"sort"
	"strings"

	"sheriff/internal/analysis"
	"sheriff/internal/crawler"
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

// Report renders the full experiment suite as text: every figure plus the
// dataset summary, in paper order. crowdRep/crawlRep may be nil when a
// campaign was skipped.
func (w *World) Report(crowdRep *crowd.Report, crawlRep *crawler.Report) string {
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

	if fig1 := w.Fig1(); len(fig1) > 0 {
		rows := make([][2]string, 0, 27)
		for i, dc := range fig1 {
			if i >= 27 {
				break
			}
			rows = append(rows, [2]string{dc.Domain, fmt.Sprintf("%d (of %d checks)", dc.WithVariation, dc.Checks)})
		}
		b.WriteString(analysis.RenderTable("Fig. 1 — crowd requests with price differences", [2]string{"domain", "requests w/ variation"}, rows))
		b.WriteByte('\n')
	}

	if fig2 := w.Fig2(); len(fig2) > 0 {
		b.WriteString(analysis.RenderTable("Fig. 2 — magnitude of price differences (crowd)", [2]string{"domain", "ratio box"}, boxRows(fig2)))
		b.WriteByte('\n')
	}

	if fig3 := w.Fig3(); len(fig3) > 0 {
		rows := make([][2]string, 0, len(fig3))
		for _, de := range fig3 {
			rows = append(rows, [2]string{de.Domain, fmt.Sprintf("%.2f (%d/%d products)", de.Extent, de.Varied, de.Products)})
		}
		b.WriteString(analysis.RenderTable("Fig. 3 — extent of price variation (crawl)", [2]string{"domain", "extent"}, rows))
		b.WriteByte('\n')
	}

	if fig4 := w.Fig4(); len(fig4) > 0 {
		b.WriteString(analysis.RenderTable("Fig. 4 — magnitude of price variability (crawl)", [2]string{"domain", "ratio box"}, boxRows(fig4)))
		b.WriteByte('\n')
	}

	if fig5 := w.Fig5(); len(fig5) > 0 {
		b.WriteString(analysis.RenderFig5(fig5))
		b.WriteByte('\n')
	}

	for _, domain := range []string{"www.digitalrev.com", "www.energie.it"} {
		series := w.Fig6(domain)
		if len(series) == 0 {
			continue
		}
		rows := make([][2]string, 0, len(series))
		for _, s := range series {
			desc := fmt.Sprintf("%s factor=%.3f", s.Fit.Kind, s.Fit.Factor)
			if s.Fit.Kind == analysis.StrategyAdditive {
				desc += fmt.Sprintf(" surcharge=$%.2f", s.Fit.Surcharge)
			}
			rows = append(rows, [2]string{s.Label, desc})
		}
		b.WriteString(analysis.RenderTable("Fig. 6 — pricing strategy at "+domain, [2]string{"location", "fitted strategy"}, rows))
		b.WriteByte('\n')
		// The paper plots New York, UK and Finland.
		b.WriteString(analysis.RenderFig6(domain, series, []string{"us-nyc", "uk-lon", "fi-tam"}))
		b.WriteByte('\n')
	}

	if fig7 := w.Fig7(); len(fig7) > 0 {
		b.WriteString(analysis.RenderBoxStrip("Fig. 7 — price ratio per location",
			analysis.LocationBoxesToDomainBoxes(fig7), 56))
		b.WriteByte('\n')
	}

	for _, g := range []struct{ domain, level string }{
		{"www.homedepot.com", "city"},
		{"www.amazon.com", "country"},
		{"store.killah.com", "country"},
	} {
		grid := w.Fig8(g.domain, g.level)
		if len(grid.Locations) == 0 {
			continue
		}
		b.WriteString(renderGrid(grid))
		b.WriteByte('\n')
	}

	if fig9 := w.Fig9(); len(fig9) > 0 {
		b.WriteString(analysis.RenderBoxStrip("Fig. 9 — price ratio in Tampere, Finland",
			fig9, 56))
		b.WriteByte('\n')
	}

	if agg := w.CampaignAgreement(); len(agg.CrowdFlagged) > 0 && len(agg.CrawlConfirmed)+len(agg.CrawlRefuted) > 0 {
		rows := [][2]string{
			{"crowd-flagged domains", fmt.Sprintf("%d", len(agg.CrowdFlagged))},
			{"confirmed by crawl", fmt.Sprintf("%d", len(agg.CrawlConfirmed))},
			{"refuted by crawl", fmt.Sprintf("%d", len(agg.CrawlRefuted))},
			{"not crawled (crowd-only)", fmt.Sprintf("%d", len(agg.NotCrawled))},
			{"confirmation rate", fmt.Sprintf("%.2f", agg.ConfirmationRate())},
			{"median ratio delta", fmt.Sprintf("%.3f", agg.MedianRatioDelta)},
		}
		b.WriteString(analysis.RenderTable("Repeatability — crowd findings vs systematic crawl (Sec. 6)",
			[2]string{"metric", "value"}, rows))
		b.WriteByte('\n')
	}

	if fig10 := w.Fig10(); len(fig10.SKUs) > 0 {
		rows := make([][2]string, 0, len(fig10.Accounts))
		for _, acc := range fig10.Accounts {
			label := acc
			if label == "" {
				label = "(no login)"
			}
			rows = append(rows, [2]string{label, fmt.Sprintf("%d of %d products differ from anonymous",
				fig10.Differing(acc, 0.001), len(fig10.SKUs))})
		}
		b.WriteString(analysis.RenderTable("Fig. 10 — Kindle ebook prices by login state", [2]string{"account", "deviation"}, rows))
		b.WriteByte('\n')
		b.WriteString(analysis.RenderFig10(fig10))
		b.WriteByte('\n')
	}

	return b.String()
}

// boxRows formats DomainBox rows.
func boxRows(boxes []analysis.DomainBox) [][2]string {
	rows := make([][2]string, 0, len(boxes))
	for _, db := range boxes {
		rows = append(rows, [2]string{db.Domain, db.Box.String()})
	}
	return rows
}

// renderGrid renders a Fig. 8 pairwise grid as a relation matrix.
func renderGrid(g analysis.Fig8Grid) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 8 — pairwise grid for %s ==\n", g.Domain)
	locs := append([]string{}, g.Locations...)
	sort.Strings(locs)
	w := 0
	for _, l := range locs {
		if len(l) > w {
			w = len(l)
		}
	}
	short := map[analysis.Relation]string{
		analysis.RelSimilar:   "=",
		analysis.RelRowDearer: "^",
		analysis.RelColDearer: "v",
		analysis.RelMixed:     "~",
	}
	fmt.Fprintf(&b, "%-*s", w+2, "")
	for _, col := range locs {
		fmt.Fprintf(&b, "%-*s", w+2, col)
	}
	b.WriteByte('\n')
	for _, row := range locs {
		fmt.Fprintf(&b, "%-*s", w+2, row)
		for _, col := range locs {
			mark := "."
			if row != col {
				if cell, ok := g.Cell(row, col); ok {
					mark = short[cell.Relation]
				}
			}
			fmt.Fprintf(&b, "%-*s", w+2, mark)
		}
		b.WriteByte('\n')
	}
	b.WriteString("legend: = similar, ^ row dearer, v col dearer, ~ mixed\n")
	return b.String()
}
