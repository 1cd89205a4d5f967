// Command experiments runs the complete reproduction end to end — crowd
// beta, anchor learning, systematic crawl, login experiment, persona
// experiment, third-party audit — and prints the paper-vs-measured report
// that EXPERIMENTS.md records.
//
//	experiments -scale full        # the paper's numbers (~1-2 minutes)
//	experiments -scale quick       # reduced scale for smoke runs
//	experiments -scale full -jsonl dataset.jsonl
//	experiments -scenarios         # rule-engine validation matrix
//	experiments -scenarios -gate 1.0   # CI: fail unless every family scores 1.00
//	experiments -load -concurrency 16 -requests 640
//
// With -scenarios the command instead sweeps the discrimination-scenario
// matrix: one isolated world per pricing-rule combination (geo,
// fingerprint, selective disclosure, weekday/drift, the market-dynamics
// worlds — leader-follower, contrarian, periodic-sale, demand — and the
// mixed market+geo confounds), each crawled synchronized and judged by
// the strategy verdict sheriffd serves (the incremental fold), reporting
// per-family detection precision/recall against the compiled ground
// truth. Worlds run concurrently on GOMAXPROCS goroutines; the report is
// byte-identical at any GOMAXPROCS. -gate turns the sweep into a CI
// check: exit 1 unless every family holds precision and recall at or
// above the threshold.
//
// With -load the command runs the crowd-load harness instead: -concurrency
// simulated users hammer Backend.Check in synchronized rounds, and the
// report gives checks/sec, latency percentiles, and the page-cache dedupe
// ratio — the backend's concurrent-crowd capacity on this hardware.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"sheriff"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.String("scale", "full", "full or quick")
	jsonl := flag.String("jsonl", "", "optionally dump the dataset here")
	scenarios := flag.Bool("scenarios", false, "run the scenario-matrix sweep instead of the paper reproduction")
	gate := flag.Float64("gate", 0, "for -scenarios: exit 1 if any family's precision or recall falls below this (0 disables)")
	load := flag.Bool("load", false, "run the crowd-load harness instead of the paper reproduction")
	concurrency := flag.Int("concurrency", 16, "concurrent simulated users for -load")
	loadRequests := flag.Int("requests", 0, "total checks for -load (0 = 20 per user)")
	loadRounds := flag.Int("rounds", 4, "synchronized rounds for -load")
	flag.Parse()

	users, requests, products, rounds, longtail := 340, 1500, 100, 7, 580
	if *scale == "quick" {
		users, requests, products, rounds, longtail = 60, 150, 12, 3, 40
	}

	if *scenarios {
		if *jsonl != "" {
			log.Fatalf("-jsonl is not supported with -scenarios: the matrix spans one isolated world per scenario, not a single dataset")
		}
		begin := time.Now()
		rep, err := sheriff.RunScenarioMatrix(sheriff.MatrixOptions{Seed: *seed, Products: products})
		if err != nil {
			log.Fatalf("scenario matrix: %v", err)
		}
		fmt.Println("== Rule-engine scenario matrix — per-family detection ==")
		fmt.Println(rep)
		log.Printf("matrix wall time %v over %d scenarios (GOMAXPROCS=%d)",
			time.Since(begin).Round(time.Millisecond), len(rep.Outcomes), runtime.GOMAXPROCS(0))
		if *gate > 0 {
			failed := false
			for _, f := range sheriff.DetectableFamilies {
				s := rep.Scores[f]
				if s.Precision() < *gate || s.Recall() < *gate {
					log.Printf("GATE FAIL: %s precision %.2f recall %.2f below %.2f",
						f, s.Precision(), s.Recall(), *gate)
					failed = true
				}
			}
			if failed {
				os.Exit(1)
			}
			log.Printf("gate passed: every family at precision/recall >= %.2f", *gate)
		}
		return
	}

	if *load {
		if *jsonl != "" {
			log.Fatalf("-jsonl is not supported with -load: the harness measures throughput, not a campaign dataset")
		}
		w := sheriff.NewWorld(sheriff.WorldOptions{Seed: *seed, LongTail: 40})
		log.Printf("world ready: %d domains, %d crawl targets, 14 vantage points",
			w.DomainCount(), len(w.Crawled))
		rep, err := w.RunLoad(sheriff.LoadOptions{
			Users:    *concurrency,
			Requests: *loadRequests,
			Rounds:   *loadRounds,
		})
		if err != nil {
			log.Fatalf("load: %v", err)
		}
		fmt.Println("== Crowd-load harness — Backend.Check under concurrency ==")
		fmt.Println(rep)
		hits, misses, _ := w.Backend.PageCacheStats()
		total := hits + misses
		if total > 0 {
			fmt.Printf("page cache: %d hits / %d misses (%.0f%% of fetches deduped)\n",
				hits, misses, 100*float64(hits)/float64(total))
		}
		return
	}

	begin := time.Now()
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: *seed, LongTail: longtail})
	log.Printf("world ready: %d domains, %d crawl targets, 14 vantage points",
		w.DomainCount(), len(w.Crawled))

	crowdRep, err := w.RunCrowd(sheriff.CrowdOptions{Users: users, Requests: requests})
	if err != nil {
		log.Fatalf("crowd: %v", err)
	}
	log.Printf("crowd done: %d requests, %d with variation, %d domains touched",
		crowdRep.Requests, crowdRep.Variations, crowdRep.DistinctDomains)

	if err := w.EnsureAnchors(w.Crawled); err != nil {
		log.Fatalf("anchors: %v", err)
	}

	crawlRep, err := w.RunCrawl(sheriff.CrawlOptions{MaxProducts: products, Rounds: rounds})
	if err != nil {
		log.Fatalf("crawl: %v", err)
	}
	log.Printf("crawl done: %d prices extracted, %d failures", crawlRep.Extracted, crawlRep.Failed)

	if _, err := w.RunLoginExperiment("www.amazon.com", 40, []string{"userA", "userB", "userC"}); err != nil {
		log.Fatalf("login experiment: %v", err)
	}
	personaRep, err := w.RunPersonaExperiment([]string{"www.amazon.com", "www.hotels.com", "www.digitalrev.com"}, 10)
	if err != nil {
		log.Fatalf("persona experiment: %v", err)
	}
	presence, err := w.ThirdPartyAudit()
	if err != nil {
		log.Fatalf("third-party audit: %v", err)
	}

	fmt.Println(w.Report(crowdRep))

	fmt.Println("== Sec. 4.4 — persona experiment ==")
	fmt.Printf("domains tested     %d\n", personaRep.DomainsTested)
	fmt.Printf("products compared  %d\n", personaRep.ProductsCompared)
	fmt.Printf("prices differing   %d (paper: none)\n\n", personaRep.Differing)

	fmt.Println("== Sec. 4.4 — third-party presence on crawled retailers ==")
	for _, key := range []string{"ga", "doubleclick", "facebook", "pinterest", "twitter"} {
		fmt.Printf("%-12s %4.0f%%\n", key, presence[key]*100)
	}
	fmt.Println()

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			log.Fatalf("create %s: %v", *jsonl, err)
		}
		if err := w.Store.WriteJSONL(f); err != nil {
			log.Fatalf("write dataset: %v", err)
		}
		f.Close()
		log.Printf("dataset written to %s", *jsonl)
	}
	log.Printf("total wall time %v, %d observations, %d extracted prices",
		time.Since(begin).Round(time.Millisecond), w.Store.Len(), w.Store.LenOK())
}
