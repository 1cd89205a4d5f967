// Command analyze recomputes the paper's figures from a stored dataset
// (the JSONL written by cmd/crawl or cmd/experiments) without re-running
// any campaign — collection and analysis are separable, as in the paper.
//
//	analyze -data dataset.jsonl -fig all
//	analyze -data dataset.jsonl -fig 6 -domain www.digitalrev.com
//	analyze -data dataset.jsonl -fig 8 -domain www.homedepot.com -level city
//	analyze -data dataset.jsonl -fig repeat    # crowd-vs-crawl agreement
//	analyze -data-dir ./sheriff-data -fig all  # a durable sheriffd's data dir
//	analyze -remote http://host:8080 -fig all  # a live sheriffd, over the wire
//
// -data-dir opens a durable data directory read-only (snapshot segments
// plus WAL tail replay, torn tails tolerated) — the dataset a killed or
// still-running sheriffd accumulated analyzes without touching its files.
//
// -remote pulls the dataset from a running sheriffd through the typed
// SDK (GET /api/v1/observations as an NDJSON stream, decoded row by row
// into a local store), so analysis runs against a live service without
// file access to its data directory. With -followers the pull prefers
// the listed read replicas (comma-separated base URLs), falling back to
// -remote when a replica is down or lagging — analysis load stays off
// the primary.
//
// The -seed flag must match the seed the dataset was collected under so
// that currency conversions use the same exchange-rate fixings.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sheriff/client"
	"sheriff/internal/analysis"
	"sheriff/internal/fx"
	"sheriff/internal/store"
)

func main() {
	data := flag.String("data", "dataset.jsonl", "dataset path (JSONL)")
	dataDir := flag.String("data-dir", "", "durable data directory to open read-only (overrides -data)")
	remote := flag.String("remote", "", "base URL of a live sheriffd to pull the dataset from (overrides -data and -data-dir)")
	followers := flag.String("followers", "", "comma-separated read-replica base URLs to pull from instead of -remote (primary is the fallback)")
	fig := flag.String("fig", "all", "figure: 1,2,3,4,5,6,7,8,9,10 or all")
	domain := flag.String("domain", "", "domain for figures 6 and 8")
	level := flag.String("level", "city", "granularity for figure 8: city or country")
	seed := flag.Int64("seed", 1, "world seed the dataset was collected under")
	plot := flag.Bool("plot", false, "render figures as ASCII plots where available")
	flag.Parse()

	var st *store.Store
	if *remote != "" {
		cl := client.New(*remote, client.Options{})
		if *followers != "" {
			cl = cl.WithFollowers(strings.Split(*followers, ",")...)
		}
		var err error
		st, err = cl.FetchDataset(context.Background(), client.ObservationsQuery{})
		if err != nil {
			log.Fatalf("fetch remote dataset: %v", err)
		}
		fmt.Printf("remote %s: pulled %d observations\n", *remote, st.Len())
	} else if *dataDir != "" {
		var rep store.RecoveryReport
		var err error
		st, rep, err = store.OpenReadOnly(*dataDir)
		if err != nil {
			log.Fatalf("open data dir: %v", err)
		}
		fmt.Printf("data dir %s: %s\n", *dataDir, rep)
	} else {
		f, err := os.Open(*data)
		if err != nil {
			log.Fatalf("open dataset: %v", err)
		}
		st, err = store.ReadJSONL(f)
		f.Close()
		if err != nil {
			log.Fatalf("read dataset: %v", err)
		}
	}
	market := fx.NewMarket(*seed)
	fmt.Printf("dataset: %d observations, %d prices, %d domains\n",
		st.Len(), st.LenOK(), len(st.Domains()))
	for _, src := range []string{store.SourceCrowd, store.SourceCrawl, store.SourceLogin, store.SourcePersona} {
		if total, ok := st.LenSource(src); total > 0 {
			fmt.Printf("  %-8s %d observations, %d prices\n", src, total, ok)
		}
	}
	fmt.Println()

	show := func(want string) bool { return *fig == "all" || *fig == want }

	if show("1") {
		rows := [][2]string{}
		for i, dc := range analysis.Fig1(st, market) {
			if i >= 27 {
				break
			}
			rows = append(rows, [2]string{dc.Domain, fmt.Sprintf("%d of %d checks", dc.WithVariation, dc.Checks)})
		}
		fmt.Println(analysis.RenderTable("Fig. 1 — crowd requests with price differences",
			[2]string{"domain", "w/ variation"}, rows))
	}
	if show("2") {
		fmt.Println(analysis.RenderTable("Fig. 2 — crowd ratio magnitude",
			[2]string{"domain", "ratio box"}, boxRows(analysis.Fig2(st, market))))
	}
	if show("3") {
		rows := [][2]string{}
		for _, de := range analysis.Fig3(st, market) {
			rows = append(rows, [2]string{de.Domain, fmt.Sprintf("%.2f (%d/%d)", de.Extent, de.Varied, de.Products)})
		}
		fmt.Println(analysis.RenderTable("Fig. 3 — extent of price variation (crawl)",
			[2]string{"domain", "extent"}, rows))
	}
	if show("4") {
		fmt.Println(analysis.RenderTable("Fig. 4 — crawl ratio magnitude",
			[2]string{"domain", "ratio box"}, boxRows(analysis.Fig4(st, market))))
	}
	if show("5") {
		points := analysis.Fig5(st, market)
		if *plot {
			fmt.Println(analysis.RenderFig5(points))
		} else {
			rows := [][2]string{}
			for _, band := range analysis.EnvelopeOf(points) {
				rows = append(rows, [2]string{band.Band, fmt.Sprintf("max ratio %.2f (%d products)", band.MaxRatio, band.N)})
			}
			fmt.Println(analysis.RenderTable(fmt.Sprintf("Fig. 5 — envelope over %d products", len(points)),
				[2]string{"band", "max ratio"}, rows))
		}
	}
	if show("6") {
		domains := []string{*domain}
		if *domain == "" {
			domains = []string{"www.digitalrev.com", "www.energie.it"}
		}
		for _, d := range domains {
			series := analysis.Fig6(st, market, d)
			rows := [][2]string{}
			for _, s := range series {
				desc := fmt.Sprintf("%s factor=%.3f rmse=%.4f", s.Fit.Kind, s.Fit.Factor, s.Fit.RMSE)
				if s.Fit.Kind == analysis.StrategyAdditive {
					desc = fmt.Sprintf("%s factor=%.3f surcharge=$%.2f rmse=%.4f",
						s.Fit.Kind, s.Fit.Factor, s.Fit.Surcharge, s.Fit.RMSE)
				}
				rows = append(rows, [2]string{s.Label, desc})
			}
			fmt.Println(analysis.RenderTable("Fig. 6 — strategy at "+d,
				[2]string{"location", "fit"}, rows))
			if *plot {
				fmt.Println(analysis.RenderFig6(d, series, []string{"us-nyc", "uk-lon", "fi-tam"}))
			}
		}
	}
	if show("7") {
		fig7 := analysis.Fig7(st, market)
		if *plot {
			fmt.Println(analysis.RenderBoxStrip("Fig. 7 — ratio per location",
				analysis.LocationBoxesToDomainBoxes(fig7), 56))
		} else {
			rows := [][2]string{}
			for _, lb := range fig7 {
				rows = append(rows, [2]string{lb.Label, lb.Box.String()})
			}
			fmt.Println(analysis.RenderTable("Fig. 7 — ratio per location",
				[2]string{"location", "ratio box"}, rows))
		}
	}
	if show("8") {
		domains := []string{*domain}
		levels := []string{*level}
		if *domain == "" {
			domains = []string{"www.homedepot.com", "www.amazon.com", "store.killah.com"}
			levels = []string{"city", "country", "country"}
		}
		for i, d := range domains {
			lv := levels[i%len(levels)]
			grid := analysis.Fig8(st, market, d, lv)
			fmt.Printf("== Fig. 8 — %s (%s level) ==\n", d, lv)
			for _, row := range grid.Locations {
				for _, col := range grid.Locations {
					if row == col {
						continue
					}
					if cell, ok := grid.Cell(row, col); ok && len(cell.Points) > 0 {
						fmt.Printf("  %-14s vs %-14s %-11s (%d points)\n", row, col, cell.Relation, len(cell.Points))
					}
				}
			}
			fmt.Println()
		}
	}
	if show("9") {
		fig9 := analysis.Fig9(st, market)
		if *plot {
			fmt.Println(analysis.RenderBoxStrip("Fig. 9 — Finland/min ratio per domain", fig9, 56))
		} else {
			fmt.Println(analysis.RenderTable("Fig. 9 — Finland/min ratio per domain",
				[2]string{"domain", "ratio box"}, boxRows(fig9)))
		}
	}
	if show("repeat") {
		agg := analysis.CompareCampaigns(st, market)
		rows := [][2]string{
			{"crowd-flagged domains", fmt.Sprintf("%d", len(agg.CrowdFlagged))},
			{"confirmed by crawl", fmt.Sprintf("%d", len(agg.CrawlConfirmed))},
			{"refuted by crawl", fmt.Sprintf("%d", len(agg.CrawlRefuted))},
			{"not crawled", fmt.Sprintf("%d", len(agg.NotCrawled))},
			{"confirmation rate", fmt.Sprintf("%.2f", agg.ConfirmationRate())},
			{"median ratio delta", fmt.Sprintf("%.3f", agg.MedianRatioDelta)},
		}
		fmt.Println(analysis.RenderTable("Repeatability — crowd vs crawl",
			[2]string{"metric", "value"}, rows))
	}
	if show("10") {
		ls := analysis.Fig10(st, market)
		if len(ls.SKUs) == 0 {
			fmt.Println("Fig. 10: no login observations in dataset")
		} else if *plot {
			fmt.Println(analysis.RenderFig10(ls))
		} else {
			rows := [][2]string{}
			for _, acc := range ls.Accounts {
				label := acc
				if label == "" {
					label = "(no login)"
				}
				var prices []string
				for _, v := range ls.USD[acc] {
					prices = append(prices, fmt.Sprintf("%.2f", v))
				}
				rows = append(rows, [2]string{label, strings.Join(prices, " ")})
			}
			fmt.Println(analysis.RenderTable("Fig. 10 — Kindle prices by login state (USD)",
				[2]string{"account", "per-product prices"}, rows))
		}
	}
}

func boxRows(boxes []analysis.DomainBox) [][2]string {
	rows := make([][2]string, 0, len(boxes))
	for _, db := range boxes {
		rows = append(rows, [2]string{db.Domain, db.Box.String()})
	}
	return rows
}
