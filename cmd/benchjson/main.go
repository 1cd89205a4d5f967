// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so CI can archive benchmark results as a structured
// artifact (BENCH_pr.json) and the performance trajectory accumulates
// across PRs in a diffable, machine-readable form.
//
//	go test -bench=. -benchmem -run='^$' -count=1 . | benchjson > BENCH_pr.json
//
// Repeated benchmark names (from -count>1) appear as separate entries;
// consumers aggregate as they see fit.
//
// With -compare, benchjson is the CI bench-regression gate instead: it
// reads two previously generated documents and fails (exit 1) when any
// benchmark present in both regressed past the threshold on the gated
// metric, or when the two hold identical results (a copied baseline):
//
//	benchjson -compare [-metric ns/op] [-threshold 25] [-filter regex] old.json new.json
//
// -filter restricts the gate to benchmarks whose "pkg.name" identity
// matches the regex, so one suite can carry gates at different
// strictness: a loose catastrophic-only gate over everything plus a
// tighter one over, say, the recovery benchmarks.
//
// Duplicate entries (from -count>1) are averaged per benchmark name
// before any pairing, so the gate compares one mean per side. Pairing is
// by (pkg, name) with the GOMAXPROCS suffix stripped — and the suffix is
// only stripped when it is uniform across the whole document, so a
// sub-benchmark whose name happens to end in "-<number>" survives intact
// on single-proc machines instead of silently failing to pair.
// Benchmarks that exist on only one side are reported but never fail the
// gate — adding and retiring benchmarks must not require touching the
// baseline in the same PR. Typical gating: allocs/op with a tight
// threshold (allocation counts are deterministic across machines) and
// ns/op with a loose one (the committed baseline and the CI runner are
// different hardware, so only catastrophic time regressions are
// actionable).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Pkg is the package under test (from the preceding "pkg:" line).
	Pkg string `json:"pkg,omitempty"`
	// Name is the benchmark name without the -N GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value ("ns/op", "B/op", "allocs/op", and any
	// custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the full artifact.
type Doc struct {
	// Env echoes the goos/goarch/cpu header lines.
	Env map[string]string `json:"env,omitempty"`
	// Benchmarks in input order.
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	compareMode := flag.Bool("compare", false, "compare two benchmark JSON files and fail on regressions")
	metric := flag.String("metric", "ns/op", "metric to gate on in -compare mode")
	threshold := flag.Float64("threshold", 25, "allowed regression in percent before -compare fails")
	filter := flag.String("filter", "", "in -compare mode, gate only benchmarks whose pkg.name matches this regex")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		oldDoc, err := readDoc(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newDoc, err := readDoc(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if sameResults(oldDoc, newDoc) {
			fmt.Fprintf(os.Stderr, "benchjson: %s and %s hold identical results; a copy of the baseline is not a run and gates nothing\n",
				flag.Arg(0), flag.Arg(1))
			os.Exit(1)
		}
		if *filter != "" {
			re, err := regexp.Compile(*filter)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: bad -filter: %v\n", err)
				os.Exit(2)
			}
			// Filtering both sides keeps the one-side-only report lists
			// scoped to the gated set instead of flagging every benchmark
			// the filter excluded.
			filterDoc(oldDoc, re)
			filterDoc(newDoc, re)
			if len(oldDoc.Benchmarks) == 0 && len(newDoc.Benchmarks) == 0 {
				fmt.Fprintf(os.Stderr, "benchjson: -filter %q matches no benchmark in either document\n", *filter)
				os.Exit(2)
			}
		}
		rep := compare(oldDoc, newDoc, *metric, *threshold)
		fmt.Print(rep.String())
		if len(rep.Regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%% on %s\n",
				len(rep.Regressions), *threshold, *metric)
			os.Exit(1)
		}
		return
	}

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// filterDoc drops benchmarks whose identity does not match re.
func filterDoc(doc *Doc, re *regexp.Regexp) {
	kept := doc.Benchmarks[:0]
	for _, res := range doc.Benchmarks {
		if re.MatchString(benchID{Pkg: res.Pkg, Name: res.Name}.String()) {
			kept = append(kept, res)
		}
	}
	doc.Benchmarks = kept
}

// sameResults reports whether two documents hold the same benchmark
// results, every iteration count and metric included. Two real runs never
// do, so the new document would be a copy of the baseline, and a gate
// over it would pass whatever the code costs.
func sameResults(a, b *Doc) bool {
	return reflect.DeepEqual(a.Benchmarks, b.Benchmarks)
}

// readDoc loads a benchmark JSON artifact from disk.
func readDoc(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc Doc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// parse consumes `go test -bench` output. Lines it does not understand
// (PASS, ok, test log noise) are skipped: bench output is interleaved with
// whatever the tests print.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Env: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			doc.Env[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseBenchLine(line); ok {
				res.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	stripProcsSuffix(doc)
	return doc, nil
}

// parseBenchLine parses "BenchmarkName-8  100  123 ns/op  45 B/op ...".
// The name is kept verbatim; the GOMAXPROCS suffix is handled by
// stripProcsSuffix once the whole document is in hand.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	res := Result{Name: fields[0], Procs: 1, Metrics: map[string]float64{}}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = val
	}
	return res, true
}

// trailingNumber extracts a name's final "-<int>" component.
func trailingNumber(name string) (base string, n int, ok bool) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name, 0, false
	}
	v, err := strconv.Atoi(name[i+1:])
	if err != nil || v <= 0 {
		return name, 0, false
	}
	return name[:i], v, true
}

// stripProcsSuffix removes the GOMAXPROCS suffix go test appends to every
// benchmark name — but only when it is provably that suffix. Within one
// run GOMAXPROCS is a constant, so the suffix is uniform across every
// line; a per-line strip instead corrupts names whose last sub-benchmark
// component is a numeric parameter ("BenchmarkRecovery/shards-16") on
// machines where go test appends no suffix at all (GOMAXPROCS=1), and a
// corrupted name pairs with nothing — the -compare gate then averages and
// pairs the wrong (or no) entries and silently passes. When the trailing
// numbers are absent or disagree (a -cpu=1,2,4 run, or a 1-proc document
// with parameter tails), names stay verbatim.
// A uniform tail is only treated as proof on documents with at least two
// distinct names: with a single benchmark (a filtered -bench run), a
// numeric parameter tail is indistinguishable from a procs suffix, and
// keeping the name verbatim is the conservative choice.
func stripProcsSuffix(doc *Doc) {
	procs := 0
	names := map[string]bool{}
	for _, res := range doc.Benchmarks {
		names[res.Name] = true
		_, n, ok := trailingNumber(res.Name)
		if !ok || (procs != 0 && n != procs) {
			return
		}
		procs = n
	}
	if len(names) < 2 {
		return
	}
	for i := range doc.Benchmarks {
		base, _, _ := trailingNumber(doc.Benchmarks[i].Name)
		doc.Benchmarks[i].Name = base
		doc.Benchmarks[i].Procs = procs
	}
}

// benchID identifies one benchmark across documents. Pkg is part of the
// identity but may be empty on both sides (root-only runs). Procs is
// deliberately NOT part of the identity: the -N suffix is GOMAXPROCS of
// the machine the run happened on, and the whole point of -compare is
// pairing a committed baseline from one box with a CI run from another —
// keying on procs would pair nothing and silently pass every gate.
// Same-name entries within one document (repeats from -count>1, or in
// principle differing procs) are averaged by average() before any pairing
// happens, so the gate compares one mean per benchmark. This makes the
// name the entire pairing key: benchmarks should use stable sub-benchmark
// names — in particular no machine-dependent or trailing-numeric
// components (see stripProcsSuffix).
type benchID struct {
	Pkg  string
	Name string
}

func (id benchID) String() string {
	if id.Pkg == "" {
		return id.Name
	}
	return id.Pkg + "." + id.Name
}

// Delta is one benchmark's old-vs-new comparison on the gated metric.
type Delta struct {
	ID       benchID
	Old, New float64
	// Pct is the relative change in percent; positive means slower /
	// more (a potential regression — higher is worse for every metric
	// `go test -bench` emits).
	Pct float64
}

// CompareReport is the gate's result.
type CompareReport struct {
	// Metric and Threshold echo the gate parameters.
	Metric    string
	Threshold float64
	// Regressions exceeded the threshold; Deltas holds every benchmark
	// present in both documents (regressions included), sorted worst
	// first. OnlyOld/OnlyNew name benchmarks without a counterpart.
	Regressions []Delta
	Deltas      []Delta
	OnlyOld     []string
	OnlyNew     []string
	// Missing counts compared pairs lacking the gated metric.
	Missing int
}

// String renders the human table CI logs show.
func (r *CompareReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench gate: metric %s, threshold +%.0f%% (%d compared, %d old-only, %d new-only)\n",
		r.Metric, r.Threshold, len(r.Deltas), len(r.OnlyOld), len(r.OnlyNew))
	for _, d := range r.Deltas {
		mark := "  "
		if d.Pct > r.Threshold {
			mark = "!!"
		}
		fmt.Fprintf(&b, "%s %-60s %14.1f -> %14.1f  %+7.1f%%\n", mark, d.ID, d.Old, d.New, d.Pct)
	}
	for _, name := range r.OnlyNew {
		fmt.Fprintf(&b, "++ %-60s (new benchmark, not gated)\n", name)
	}
	for _, name := range r.OnlyOld {
		fmt.Fprintf(&b, "-- %-60s (removed or not run)\n", name)
	}
	if r.Missing > 0 {
		fmt.Fprintf(&b, ".. %d benchmark(s) lack metric %s on one side\n", r.Missing, r.Metric)
	}
	return b.String()
}

// average folds a document's benchmarks (possibly repeated via -count>1)
// into one mean value per benchmark for the given metric. The bool is
// false when no entry carried the metric.
func average(doc *Doc, metric string) map[benchID]float64 {
	sum := map[benchID]float64{}
	n := map[benchID]int{}
	for _, res := range doc.Benchmarks {
		v, ok := res.Metrics[metric]
		if !ok {
			continue
		}
		id := benchID{Pkg: res.Pkg, Name: res.Name}
		sum[id] += v
		n[id]++
	}
	out := make(map[benchID]float64, len(sum))
	for id, s := range sum {
		out[id] = s / float64(n[id])
	}
	return out
}

// ids collects every benchmark identity in a document, metric or not.
func ids(doc *Doc) map[benchID]bool {
	out := map[benchID]bool{}
	for _, res := range doc.Benchmarks {
		out[benchID{Pkg: res.Pkg, Name: res.Name}] = true
	}
	return out
}

// compare gates newDoc against oldDoc on metric: any shared benchmark
// whose mean grew more than threshold percent is a regression.
func compare(oldDoc, newDoc *Doc, metric string, threshold float64) *CompareReport {
	rep := &CompareReport{Metric: metric, Threshold: threshold}
	oldVals, newVals := average(oldDoc, metric), average(newDoc, metric)
	oldIDs, newIDs := ids(oldDoc), ids(newDoc)

	for id := range oldIDs {
		if !newIDs[id] {
			rep.OnlyOld = append(rep.OnlyOld, id.String())
		}
	}
	for id := range newIDs {
		if !oldIDs[id] {
			rep.OnlyNew = append(rep.OnlyNew, id.String())
		}
	}
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)

	for id := range oldIDs {
		if !newIDs[id] {
			continue
		}
		oldV, okOld := oldVals[id]
		newV, okNew := newVals[id]
		if !okOld || !okNew {
			rep.Missing++
			continue
		}
		d := Delta{ID: id, Old: oldV, New: newV}
		switch {
		case oldV == 0 && newV == 0:
			d.Pct = 0
		case oldV == 0:
			// From zero to anything: infinite relative growth; report it
			// as just past any finite threshold.
			d.Pct = threshold + 100
		default:
			d.Pct = (newV - oldV) / oldV * 100
		}
		rep.Deltas = append(rep.Deltas, d)
		if d.Pct > threshold {
			rep.Regressions = append(rep.Regressions, d)
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool {
		if rep.Deltas[i].Pct != rep.Deltas[j].Pct {
			return rep.Deltas[i].Pct > rep.Deltas[j].Pct
		}
		return rep.Deltas[i].ID.String() < rep.Deltas[j].ID.String()
	})
	sort.Slice(rep.Regressions, func(i, j int) bool {
		if rep.Regressions[i].Pct != rep.Regressions[j].Pct {
			return rep.Regressions[i].Pct > rep.Regressions[j].Pct
		}
		return rep.Regressions[i].ID.String() < rep.Regressions[j].ID.String()
	})
	return rep
}
