package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sheriff/internal/fx"
	"sheriff/internal/store"
)

// figureNames lists the figures RenderFigures draws, in the order it
// draws them; "repeat" is the crowd-vs-crawl agreement of Sec. 6.
var figureNames = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "repeat", "10"}

// Selection picks what RenderFigures draws. The zero Selection draws
// every figure at the paper's domains.
type Selection struct {
	// Fig is "all" (or empty), a figure number "1" … "10", or "repeat"
	// (the crowd-vs-crawl agreement of Sec. 6).
	Fig string
	// Domain narrows Figs. 6 and 8 to one retailer. Empty draws the
	// paper's: Fig. 6 at www.digitalrev.com and www.energie.it, Fig. 8
	// at www.homedepot.com (city level), www.amazon.com and
	// store.killah.com (country level).
	Domain string
	// Level is Fig. 8's granularity at Domain: "city" (or empty) or
	// "country".
	Level string
}

// Validate reports an unknown Fig or Level, naming the valid values.
func (sel Selection) Validate() error {
	if sel.Fig != "" && sel.Fig != "all" && !slices.Contains(figureNames, sel.Fig) {
		return fmt.Errorf("analysis: unknown figure %q (want all, %s)", sel.Fig, strings.Join(figureNames, ", "))
	}
	if sel.Level != "" && sel.Level != "city" && sel.Level != "country" {
		return fmt.Errorf("analysis: unknown level %q (want city, country)", sel.Level)
	}
	return nil
}

// fig8Target is one Fig. 8 grid: a domain at a granularity.
type fig8Target struct{ domain, level string }

// RenderFigures renders the selected figures over a dataset as text
// tables and ASCII plots, in paper order. A figure with no data is left
// out. It is the one renderer of the figures: World.Report and
// cmd/analyze both print through it. A selection that fails Validate is
// an error.
func RenderFigures(st store.Reader, market *fx.Market, sel Selection) (string, error) {
	if err := sel.Validate(); err != nil {
		return "", err
	}
	fig, level := sel.Fig, sel.Level
	if fig == "" {
		fig = "all"
	}
	if level == "" {
		level = "city"
	}
	fig6 := []string{"www.digitalrev.com", "www.energie.it"}
	fig8 := []fig8Target{
		{"www.homedepot.com", "city"},
		{"www.amazon.com", "country"},
		{"store.killah.com", "country"},
	}
	if sel.Domain != "" {
		fig6, fig8 = []string{sel.Domain}, []fig8Target{{sel.Domain, level}}
	}
	var b strings.Builder
	section := func(s string) {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	for _, name := range figureNames {
		if fig != "all" && fig != name {
			continue
		}
		switch name {
		case "1":
			if fig1 := Fig1(st, market); len(fig1) > 0 {
				rows := make([][2]string, 0, 27)
				for i, dc := range fig1 {
					if i >= 27 {
						break
					}
					rows = append(rows, [2]string{dc.Domain, fmt.Sprintf("%d (of %d checks)", dc.WithVariation, dc.Checks)})
				}
				section(RenderTable("Fig. 1 — crowd requests with price differences", [2]string{"domain", "requests w/ variation"}, rows))
			}
		case "2":
			if fig2 := Fig2(st, market); len(fig2) > 0 {
				section(RenderTable("Fig. 2 — magnitude of price differences (crowd)", [2]string{"domain", "ratio box"}, boxRows(fig2)))
			}
		case "3":
			if fig3 := Fig3(st, market); len(fig3) > 0 {
				rows := make([][2]string, 0, len(fig3))
				for _, de := range fig3 {
					rows = append(rows, [2]string{de.Domain, fmt.Sprintf("%.2f (%d/%d products)", de.Extent, de.Varied, de.Products)})
				}
				section(RenderTable("Fig. 3 — extent of price variation (crawl)", [2]string{"domain", "extent"}, rows))
			}
		case "4":
			if fig4 := Fig4(st, market); len(fig4) > 0 {
				section(RenderTable("Fig. 4 — magnitude of price variability (crawl)", [2]string{"domain", "ratio box"}, boxRows(fig4)))
			}
		case "5":
			if fig5 := Fig5(st, market); len(fig5) > 0 {
				section(RenderFig5(fig5))
			}
		case "6":
			for _, domain := range fig6 {
				series := Fig6(st, market, domain)
				if len(series) == 0 {
					continue
				}
				rows := make([][2]string, 0, len(series))
				for _, s := range series {
					desc := fmt.Sprintf("%s factor=%.3f", s.Fit.Kind, s.Fit.Factor)
					if s.Fit.Kind == StrategyAdditive {
						desc += fmt.Sprintf(" surcharge=$%.2f", s.Fit.Surcharge)
					}
					rows = append(rows, [2]string{s.Label, desc})
				}
				section(RenderTable("Fig. 6 — pricing strategy at "+domain, [2]string{"location", "fitted strategy"}, rows))
				// The paper plots New York, UK and Finland.
				section(RenderFig6(domain, series, []string{"us-nyc", "uk-lon", "fi-tam"}))
			}
		case "7":
			if fig7 := Fig7(st, market); len(fig7) > 0 {
				section(RenderBoxStrip("Fig. 7 — price ratio per location", LocationBoxesToDomainBoxes(fig7), 56))
			}
		case "8":
			for _, g := range fig8 {
				if grid := Fig8(st, market, g.domain, g.level); len(grid.Locations) > 0 {
					section(renderGrid(grid))
				}
			}
		case "9":
			if fig9 := Fig9(st, market); len(fig9) > 0 {
				section(RenderBoxStrip("Fig. 9 — price ratio in Tampere, Finland", fig9, 56))
			}
		case "repeat":
			if agg := CompareCampaigns(st, market); len(agg.CrowdFlagged) > 0 && len(agg.CrawlConfirmed)+len(agg.CrawlRefuted) > 0 {
				rows := [][2]string{
					{"crowd-flagged domains", fmt.Sprintf("%d", len(agg.CrowdFlagged))},
					{"confirmed by crawl", fmt.Sprintf("%d", len(agg.CrawlConfirmed))},
					{"refuted by crawl", fmt.Sprintf("%d", len(agg.CrawlRefuted))},
					{"not crawled (crowd-only)", fmt.Sprintf("%d", len(agg.NotCrawled))},
					{"confirmation rate", fmt.Sprintf("%.2f", agg.ConfirmationRate())},
					{"median ratio delta", fmt.Sprintf("%.3f", agg.MedianRatioDelta)},
				}
				section(RenderTable("Repeatability — crowd findings vs systematic crawl (Sec. 6)",
					[2]string{"metric", "value"}, rows))
			}
		case "10":
			if fig10 := Fig10(st, market); len(fig10.SKUs) > 0 {
				rows := make([][2]string, 0, len(fig10.Accounts))
				for _, acc := range fig10.Accounts {
					label := acc
					if label == "" {
						label = "(no login)"
					}
					rows = append(rows, [2]string{label, fmt.Sprintf("%d of %d products differ from anonymous",
						fig10.Differing(acc, 0.001), len(fig10.SKUs))})
				}
				section(RenderTable("Fig. 10 — Kindle ebook prices by login state", [2]string{"account", "deviation"}, rows))
				section(RenderFig10(fig10))
			}
		}
	}
	return b.String(), nil
}

// boxRows formats DomainBox rows.
func boxRows(boxes []DomainBox) [][2]string {
	rows := make([][2]string, 0, len(boxes))
	for _, db := range boxes {
		rows = append(rows, [2]string{db.Domain, db.Box.String()})
	}
	return rows
}

// renderGrid renders a Fig. 8 pairwise grid as a relation matrix.
func renderGrid(g Fig8Grid) string {
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
	short := map[Relation]string{
		RelSimilar:   "=",
		RelRowDearer: "^",
		RelColDearer: "v",
		RelMixed:     "~",
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
