package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"sheriff/internal/analysis"
	"sheriff/internal/shop"
)

// This file runs the rule-engine validation matrix: one purpose-built
// world per discrimination scenario (shop.ScenarioConfigs), crawled
// synchronized like the paper's campaign, judged by the strategy verdict
// sheriffd serves (the world's incremental engine, which folds every
// crawl row as the store's observer: aggregate.Engine.StrategyReport),
// and scored against the retailer's compiled ground truth. The matrix is
// how a new PricingRule proves its detector works — and how temporal
// rules prove synchronized rounds do NOT read them as discrimination.

// MatrixOptions configures RunScenarioMatrix; zero values take defaults.
type MatrixOptions struct {
	// Seed drives every scenario world.
	Seed int64
	// Products is how many products each scenario crawl covers
	// (default 12).
	Products int
	// Rounds is the number of daily crawl rounds (default 14 — two full
	// weeks, so weekday rules prove their 7-day periodicity against the
	// market-dynamics scenarios, whose repricing cycles run off-week;
	// the consensus classifier needs the second week to tell them
	// apart). Explicit shorter sweeps still work: below the classifier's
	// series minimums, market dynamics are conservatively reported as
	// temporal movement.
	Rounds int
	// Scenarios optionally restricts the sweep to the named scenarios
	// (shop.ScenarioConfigs labels); empty sweeps all.
	Scenarios []string
}

// ScenarioOutcome is one scenario's ground truth vs detection.
type ScenarioOutcome struct {
	// Scenario is the preset label; Domain its retailer.
	Scenario, Domain string
	// Rules are the names of the compiled pricing rules.
	Rules []string
	// Truth marks the detectable families the retailer actually
	// exercises; Detected what the detector attributed.
	Truth, Detected map[shop.StrategyFamily]bool
	// Extracted and Failed summarize the scenario crawl.
	Extracted, Failed int
}

// FamilyScore accumulates a confusion matrix for one family across
// scenarios.
type FamilyScore struct {
	TP, FP, FN, TN int
}

// Precision is TP/(TP+FP), 1 when the detector never fired.
func (s FamilyScore) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall is TP/(TP+FN), 1 when no scenario exercised the family.
func (s FamilyScore) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// MatrixReport is the full sweep result.
type MatrixReport struct {
	// Outcomes in scenario order.
	Outcomes []ScenarioOutcome
	// Scores per detectable family.
	Scores map[shop.StrategyFamily]FamilyScore
}

// String renders the per-scenario table and per-family precision/recall.
func (m *MatrixReport) String() string {
	var b strings.Builder
	fams := analysis.DetectableFamilies
	fmt.Fprintf(&b, "%-20s %-28s", "scenario", "rules")
	for _, f := range fams {
		fmt.Fprintf(&b, " %-14s", f)
	}
	b.WriteString("\n")
	for _, o := range m.Outcomes {
		fmt.Fprintf(&b, "%-20s %-28s", o.Scenario, strings.Join(o.Rules, ","))
		for _, f := range fams {
			cell := markOf(o.Truth[f], o.Detected[f])
			fmt.Fprintf(&b, " %-14s", cell)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	keys := make([]string, 0, len(m.Scores))
	for f := range m.Scores {
		keys = append(keys, string(f))
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := m.Scores[shop.StrategyFamily(k)]
		fmt.Fprintf(&b, "%-12s precision %.2f  recall %.2f  (tp=%d fp=%d fn=%d tn=%d)\n",
			k, s.Precision(), s.Recall(), s.TP, s.FP, s.FN, s.TN)
	}
	return b.String()
}

// markOf renders one truth/detection cell.
func markOf(truth, detected bool) string {
	switch {
	case truth && detected:
		return "hit"
	case truth && !detected:
		return "MISS"
	case !truth && detected:
		return "FALSE+"
	default:
		return "."
	}
}

// RunScenarioMatrix sweeps the scenario presets: for each, it builds an
// isolated world (failure injection off), learns anchors, runs a
// synchronized crawl, attributes strategies, and scores detection against
// the compiled rule families.
//
// Worlds run concurrently on GOMAXPROCS workers — each scenario owns its
// complete universe (its own clock, registry, store and retailers), so
// the only shared state is the result slot its outcome lands in.
// Outcomes are merged and scored in scenario-preset order afterwards,
// which makes the report byte-identical to a sequential sweep at any
// GOMAXPROCS.
func RunScenarioMatrix(opts MatrixOptions) (*MatrixReport, error) {
	if opts.Products <= 0 {
		opts.Products = 12
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 14
	}
	wanted := map[string]bool{}
	for _, name := range opts.Scenarios {
		wanted[name] = true
	}
	var configs []shop.Config
	for _, cfg := range shop.ScenarioConfigs(opts.Seed) {
		if len(wanted) > 0 && !wanted[cfg.Label] {
			continue
		}
		configs = append(configs, cfg)
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("core: no scenarios matched %v", opts.Scenarios)
	}

	outs := make([]ScenarioOutcome, len(configs))
	err := runIndexed(runtime.GOMAXPROCS(0), len(configs), func(i int) error {
		out, err := runScenario(opts, configs[i])
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Deterministic merge: fold outcomes into the confusion matrices in
	// preset order, exactly as the sequential loop did.
	rep := &MatrixReport{Outcomes: outs, Scores: map[shop.StrategyFamily]FamilyScore{}}
	for _, out := range outs {
		for _, f := range analysis.DetectableFamilies {
			s := rep.Scores[f]
			switch {
			case out.Truth[f] && out.Detected[f]:
				s.TP++
			case out.Truth[f] && !out.Detected[f]:
				s.FN++
			case !out.Truth[f] && out.Detected[f]:
				s.FP++
			default:
				s.TN++
			}
			rep.Scores[f] = s
		}
	}
	return rep, nil
}

// runScenario builds one isolated scenario world, crawls it, and judges
// the detector against the retailer's compiled ground truth. It is the
// unit of work the matrix pool executes.
func runScenario(opts MatrixOptions, cfg shop.Config) (ScenarioOutcome, error) {
	w := NewWorld(WorldOptions{
		Seed:    opts.Seed,
		Configs: []shop.Config{cfg},
	})
	if err := w.EnsureAnchors(w.Crawled); err != nil {
		return ScenarioOutcome{}, fmt.Errorf("core: scenario %s: %w", cfg.Label, err)
	}
	crawlRep, err := w.RunCrawl(CrawlOptions{
		MaxProducts: opts.Products,
		Rounds:      opts.Rounds,
	})
	if err != nil {
		return ScenarioOutcome{}, fmt.Errorf("core: scenario %s crawl: %w", cfg.Label, err)
	}

	r := w.Retailers[cfg.Domain]
	truthAll := r.Families()
	det := w.Analysis.StrategyReport(cfg.Domain)

	out := ScenarioOutcome{
		Scenario: cfg.Label, Domain: cfg.Domain,
		Truth:     map[shop.StrategyFamily]bool{},
		Detected:  map[shop.StrategyFamily]bool{},
		Extracted: crawlRep.Extracted, Failed: crawlRep.Failed,
	}
	for _, rule := range r.Rules() {
		out.Rules = append(out.Rules, rule.Name)
	}
	for _, f := range analysis.DetectableFamilies {
		out.Truth[f], out.Detected[f] = truthAll[f], det.Flagged(f)
	}
	return out, nil
}
