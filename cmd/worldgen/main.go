// Command worldgen inspects a simulated world: the retailer roster, one
// retailer's ground-truth pricing across locations, or a raw rendered
// product page. It exists so that measurements made by the pipeline can
// be audited against the world's actual configuration.
//
//	worldgen -seed 1                                # roster
//	worldgen -seed 1 -domain www.digitalrev.com     # per-location truth
//	worldgen -seed 1 -domain www.energie.it -page WWW-00001 -cc DE -city Berlin
//	worldgen -seed 1 -scenario leader-follower -days 14   # market price path
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sheriff"
	"sheriff/internal/geo"
	"sheriff/internal/shop"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	longtail := flag.Int("longtail", 20, "long-tail domains")
	domain := flag.String("domain", "", "inspect one retailer")
	page := flag.String("page", "", "dump the rendered page of this SKU")
	cc := flag.String("cc", "US", "country for -page / truth table")
	city := flag.String("city", "Boston", "city for -page")
	scenario := flag.String("scenario", "", "emit a scenario preset's market price path (shop.ScenarioConfigs label)")
	days := flag.Int("days", 14, "days of market history for -scenario")
	flag.Parse()

	if *scenario != "" {
		emitScenario(*seed, *scenario, *days)
		return
	}

	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: *seed, LongTail: *longtail})

	if *domain == "" {
		fmt.Printf("world seed %d: %d domains (%d crawled, %d extra, %d long tail)\n\n",
			*seed, w.DomainCount(), len(w.Crawled), len(w.Interesting)-len(w.Crawled), len(w.Tail))
		fmt.Printf("%-30s %-9s %-8s %-10s %s\n", "domain", "products", "template", "localize", "label")
		for _, d := range w.Interesting {
			r := w.Retailers[d]
			cfg := r.Config()
			fmt.Printf("%-30s %-9d %-8s %-10v %s\n",
				d, r.Catalog().Len(), cfg.Template, cfg.Localize, cfg.Label)
		}
		return
	}

	r, ok := w.Retailers[*domain]
	if !ok {
		log.Fatalf("unknown domain %s", *domain)
	}

	if *page != "" {
		p, ok := r.Catalog().BySKU(*page)
		if !ok {
			log.Fatalf("unknown SKU %s at %s", *page, *domain)
		}
		loc, err := geo.LocationOf(*cc, *city)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(os.Stderr, "rendering", *page, "for", loc)
		fmt.Print(r.RenderProduct(p, shop.Visit{Loc: loc, Time: w.Clock.Now(), IP: "10.0.0.99"}))
		return
	}

	cfg := r.Config()
	fmt.Printf("%s (%s)\n", *domain, cfg.Label)
	fmt.Printf("template=%s localize=%v varied=%.2f ab=%.2f/%.2f drift=%.2f trackers=%v\n\n",
		cfg.Template, cfg.Localize, cfg.VariedFraction,
		cfg.ABFraction, cfg.ABAmplitude, cfg.DriftAmplitude, cfg.Trackers)

	// Ground-truth display prices for the first products at a spread of
	// locations — what each vantage point *should* observe.
	locs := []struct{ cc, city string }{
		{"US", "New York"}, {"US", "Chicago"}, {"GB", "London"},
		{"DE", "Berlin"}, {"FI", "Tampere"}, {"BR", "Sao Paulo"},
	}
	fmt.Printf("%-12s", "sku")
	for _, l := range locs {
		fmt.Printf("%16s", l.cc+"/"+firstWord(l.city))
	}
	fmt.Println()
	for i, p := range r.Catalog().Products() {
		if i >= 8 {
			break
		}
		fmt.Printf("%-12s", p.SKU)
		for _, l := range locs {
			loc, err := geo.LocationOf(l.cc, l.city)
			if err != nil {
				log.Fatal(err)
			}
			amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: w.Clock.Now(), IP: "10.0.0.99"})
			fmt.Printf("%16s", amt.String())
		}
		fmt.Println()
	}
}

// emitScenario prints a scenario preset's market price path: the
// ground-truth daily factors (competitive, demand), inventory position
// and rival quotes, next to the display price a US vantage point would
// observe — the audit trail for the market-dynamics detectors.
func emitScenario(seed int64, label string, days int) {
	var cfg shop.Config
	found := false
	for _, c := range shop.ScenarioConfigs(seed) {
		if c.Label == label {
			cfg, found = c, true
			break
		}
	}
	if !found {
		var labels []string
		for _, c := range shop.ScenarioConfigs(seed) {
			labels = append(labels, c.Label)
		}
		log.Fatalf("unknown scenario %q; presets: %s", label, strings.Join(labels, ", "))
	}
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: seed, Configs: []shop.Config{cfg}})
	r := w.Retailers[cfg.Domain]
	dyn := r.Dynamics()
	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario %s (%s), seed %d: %d-day price path from %s\n",
		label, cfg.Domain, seed, days, loc)
	if dyn == nil {
		fmt.Println("note: preset compiles no market dynamics; the path moves only by its pricing rules")
	}
	start := w.Clock.Now()
	for i, p := range r.Catalog().Products() {
		if i >= 3 {
			break
		}
		fmt.Printf("\n%s\n", p.SKU)
		fmt.Printf("  %-4s %-11s %14s %8s %8s %8s %9s  %s\n",
			"day", "date", "price", "factor", "comp", "demand", "stock", "rival quotes")
		for d := 0; d < days; d++ {
			t := start.Add(time.Duration(d) * 24 * time.Hour)
			amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: t, IP: "10.0.0.99"})
			factor, comp, dem := 1.0, 1.0, 1.0
			stock, rivals := "-", "-"
			if dyn != nil {
				factor = dyn.Factor(p.SKU, t)
				comp = dyn.CompetitiveFactor(p.SKU, t)
				dem = dyn.DemandFactor(p.SKU, t)
				if remaining, capacity := dyn.Inventory(p.SKU, t); capacity > 0 {
					stock = fmt.Sprintf("%d/%d", remaining, capacity)
				}
				var qs []string
				for _, q := range dyn.RivalQuotes(p.SKU, t) {
					qs = append(qs, fmt.Sprintf("%s %.3f", q.Seller, q.Factor))
				}
				if len(qs) > 0 {
					rivals = strings.Join(qs, ", ")
				}
			}
			fmt.Printf("  %-4d %-11s %14s %8.3f %8.3f %8.3f %9s  %s\n",
				d, t.UTC().Format("2006-01-02"), amt.String(), factor, comp, dem, stock, rivals)
		}
	}
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}
