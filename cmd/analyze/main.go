// Command analyze recomputes the paper's figures from a stored dataset
// (the JSONL written by cmd/crawl or cmd/experiments) without re-running
// any campaign — collection and analysis are separable, as in the paper.
// It prints the dataset's size and then the figures through
// analysis.RenderFigures, the renderer of the experiments report, so
// both print each figure the same way. An unknown -fig or -level exits 2
// and names the valid values.
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
	fig := flag.String("fig", "all", "figure: 1,2,3,4,5,6,7,8,9,10, repeat or all")
	domain := flag.String("domain", "", "domain for figures 6 and 8")
	level := flag.String("level", "city", "granularity for figure 8: city or country")
	seed := flag.Int64("seed", 1, "world seed the dataset was collected under")
	flag.Parse()
	sel := analysis.Selection{Fig: *fig, Domain: *domain, Level: *level}
	if err := sel.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

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

	figs, err := analysis.RenderFigures(st, market, sel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(figs)
}
