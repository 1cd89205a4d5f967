// Command perfbench is the repository's end-to-end benchmark: it starts a
// durable sheriffd subprocess, drives crowd checks, NDJSON exports and
// kill -9 restarts at it, checks every answer, and prints the metrics as
// one JSON line. With --trace 1 it also reruns the workload in-process
// and times each layer from outside, at the layers' public seams.
//
// Run it through run.sh, which builds sheriffd and this command first:
//
//	bash perfbench/run.sh --workload crowd-distinct --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"sheriff/client"
	"sheriff/internal/shop"
)

// workloadSpec sizes one workload. closed and open are the shares of
// --seconds the check phases take on the reference box: the open loop
// runs for its share at the fixed rate, and the closed loop sends as many
// checks as the box's capacity would fit in its share, so every run of a
// seed does the same work.
type workloadSpec struct {
	hot      bool    // flash crowd on a warm page cache, else distinct products
	preload  int     // rows of the generated dataset sheriffd boots on
	capacity float64 // closed-loop checks/s on the 2-vCPU reference box
	closed   float64
	open     float64
	// exports and restarts are how many full exports and kill -9
	// restarts the run times; export_s and ready_s are their medians.
	exports, restarts int
	// maxMissShare is the correctness gate's ceiling on extraction misses,
	// as a share of the per-VP prices checked. The anchor lands on another
	// price of a page, or finds none, for a few (product, vantage point)
	// pairs, deterministically and for nearly every user. Spread over
	// thousands of products that is 0.01–0.05% of the prices (seeds 1–6);
	// crowd-hot cycles over 48 products, so each such pair weighs about
	// 1/600 of its prices and the share ranged 0–1.0% over seeds 1–140.
	// The ceilings sit well above that: crowd-distinct's, over thousands of
	// products, catches a parse or extract change that gets worse;
	// crowd-hot's one that breaks a whole kind of page.
	maxMissShare float64
}

var specs = map[string]workloadSpec{
	"crowd-distinct": {capacity: 800, closed: 0.3, open: 0.4, exports: 15, restarts: 3, maxMissShare: 0.002},
	"crowd-hot":      {hot: true, capacity: 1500, closed: 0.35, open: 0.35, exports: 7, restarts: 3, maxMissShare: 0.05},
	"export":         {preload: 210_000, capacity: 900, closed: 0.2, open: 0.2, exports: 7, restarts: 3, maxMissShare: 0.002},
}

const (
	setups = 3 // sheriffd set-ups per run; setup_s is their median
	// rounds splits the check phase into rounds of a closed block and an
	// open block; checks_per_s is the median over the closed blocks.
	rounds       = 3
	distinctWarm = 20 // warm-up checks of the distinct shapes
)

type config struct {
	workload string
	spec     workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	rate     float64
	bin      string
	run      string // this run's scratch directory
	workers  int
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	var c config
	var work, rates string
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload name: crowd-distinct, crowd-hot or export")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&c.seconds, "seconds", 10, "seconds the timed phases measure in total")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end ones")
	flag.StringVar(&rates, "rates", "", "open-loop arrival rate (checks/s) per workload, as name=rate,...")
	flag.StringVar(&c.bin, "sheriffd", "", "sheriffd binary")
	flag.StringVar(&work, "work", ".bench_build", "directory for data dirs and logs")
	flag.Parse()
	c.trace = traceFlag == 1
	spec, ok := specs[c.workload]
	if !ok || c.bin == "" || c.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -sheriffd and --workload in %v, --seconds > 0\n", workloadNames())
		return 2
	}
	c.spec = spec
	for _, kv := range strings.Split(rates, ",") {
		if name, v, ok := strings.Cut(kv, "="); ok && name == c.workload {
			fmt.Sscanf(v, "%g", &c.rate)
		}
	}
	if c.rate <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: no open-loop rate for %s in -rates %q\n", c.workload, rates)
		return 2
	}
	c.workers = runtime.NumCPU()

	c.run = filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(c.run, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cleanup := func() {
		killAll()
		os.RemoveAll(c.run)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n", r)
			code = 1
		}
		cleanup()
	}()

	res, err := runWorkload(context.Background(), c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prov, _ := json.Marshal(res.provenance)
	fmt.Fprintf(os.Stderr, "provenance %s\n", prov)
	fmt.Printf("# provenance %s\n", prov)
	for _, f := range res.gate.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no samples\n", name)
			return 1
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.gate.ok(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.gate.ok() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	metrics    map[string]metric
	attempted  int
	failed     int
	gate       gate
	provenance map[string]any
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// longtailFor sizes the long tail so a distinct sequence that uses up
// the whole popular catalog never repeats a tail product.
func longtailFor(seed int64) (longtail, maxChecks int) {
	head := 0
	for _, cfg := range append(shop.CrawledConfigs(seed), shop.CrowdExtraConfigs(seed)...) {
		head += cfg.ProductCount
	}
	headPerCheck := 1.0/failEvery + (1-1.0/failEvery)*headShare
	maxChecks = int(float64(head) / headPerCheck)
	tail := float64(maxChecks) * (1 - 1.0/failEvery) * (1 - headShare)
	return int(tail*1.1)/tailProducts + 1, maxChecks
}

// runWorkload is one benchmark run: set up sheriffd several times, run
// the timed phases on the last instance, restart it after kill -9, and
// check every output on the way.
func runWorkload(ctx context.Context, c config) (*result, error) {
	// The load generator shares the box with sheriffd: one P keeps its
	// client work and GC from taking both CPUs at once. The in-process
	// traced run gets them all back.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	res := &result{metrics: map[string]metric{}}
	rng := rand.New(rand.NewSource(c.seed))
	users, err := makeUsers(rng, 4096)
	if err != nil {
		return nil, err
	}
	longtail, maxChecks := longtailFor(c.seed)
	tw := newTwin(c.seed, longtail)
	var warm, seq []checkInput
	if c.spec.hot {
		warm, seq, err = tw.hotChecks(rng, users, 50_000)
	} else {
		seq, err = tw.distinctChecks(rng, users, maxChecks)
	}
	if err != nil {
		return nil, fmt.Errorf("generate checks: %w", err)
	}
	pristine := ""
	if c.spec.preload > 0 {
		pristine = filepath.Join(c.run, "pristine")
		if c.spec.preload, err = tw.writeDataset(pristine, rng, users, c.spec.preload); err != nil {
			return nil, fmt.Errorf("generate dataset: %w", err)
		}
		if err := syncDir(pristine); err != nil {
			return nil, err
		}
	}
	res.provenance = provenance(c, longtail, tw)

	srv := serverConfig{bin: c.bin, seed: c.seed, longtail: longtail, gctrace: c.trace}
	v := newVerifier(tw, &res.gate, c.spec.maxMissShare)
	l := newLoader(c.workers, seq)
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()

	// Set-up, several times: spawn on a fresh data dir, wait for ready,
	// warm up. The last instance carries on into the timed phases.
	var s *sheriffd
	var setupS []float64
	var warmOuts []outcome
	dir := ""
	for k := 0; k < setups; k++ {
		if s != nil {
			s.kill()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(c.run, fmt.Sprintf("data-%d", k))
		if pristine != "" {
			if err := copyDir(pristine, dir); err != nil {
				return nil, err
			}
		}
		if s, err = srv.start(dir, filepath.Join(c.run, fmt.Sprintf("sheriffd-%d.log", k))); err != nil {
			return nil, err
		}
		l.connect(s.base)
		if c.spec.hot {
			warmOuts = l.sequential(ctx, warm)
		} else {
			warmOuts = l.sequential(ctx, seq[:distinctWarm])
			l.next.Store(distinctWarm)
		}
		if pristine != "" {
			if _, err := streamExport(ctx, hc, s.base); err != nil {
				return nil, fmt.Errorf("warm-up export: %w", err)
			}
		}
		setupS = append(setupS, time.Since(s.spawned).Seconds())
	}
	setup := median(setupS)

	st0, err := l.cl.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	cpu0, err := s.cpuMs()
	if err != nil {
		return nil, err
	}
	// Timed checks: rounds of a closed block and an open block at the
	// fixed rate, so both span the phase.
	var closedOuts, openOuts []outcome
	var blockRate []float64
	var checkWins []window
	for r := 0; r < rounds; r++ {
		w := window{from: s.sinceSpawn()}
		outs, elapsed := l.closed(ctx, c.closedChecks(c.spec.closed)/rounds)
		closedOuts = append(closedOuts, outs...)
		blockRate = append(blockRate, float64(len(outs))/elapsed.Seconds())
		openOuts = append(openOuts, l.open(ctx, c.rate, seconds(c.seconds*c.spec.open/float64(rounds)))...)
		w.to = s.sinceSpawn()
		checkWins = append(checkWins, w)
	}
	cpu1, err := s.cpuMs()
	if err != nil {
		return nil, err
	}
	st1, err := l.cl.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	// Timed exports of the whole dataset.
	var exportS []float64
	exportWin := window{from: s.sinceSpawn()}
	for len(exportS) < c.spec.exports {
		t0 := time.Now()
		lines, err := streamExport(ctx, hc, s.base)
		exportS = append(exportS, time.Since(t0).Seconds())
		if err != nil {
			res.failed++
			res.gate.fail("export_stream", "%v", err)
		} else if lines != st1.Observations {
			res.gate.fail("export_lines", "export has %d lines, stats.observations=%d", lines, st1.Observations)
		}
	}
	exportWin.to = s.sinceSpawn()
	cpu2, err := s.cpuMs()
	if err != nil {
		return nil, err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var gcs []gcCycle
	if c.trace {
		if gcs, err = s.gcCycles(); err != nil {
			return nil, err
		}
	}

	// Correctness: every reply against the twin, stats against the
	// client's view, and one SDK pass that decodes every export line.
	timed := append(append([]outcome{}, closedOuts...), openOuts...)
	ok200, wrong := v.outcomes(append(append([]outcome{}, warmOuts...), timed...))
	v.reconcile(st1, ok200, c.spec.preload)
	v.decodeExport(ctx, l.cl, st1.Observations)
	res.failed += wrong
	res.provenance["extraction_misses"] = v.extractionMisses
	res.provenance["vp_prices_checked"] = v.vpPrices

	// Restart after kill -9: every restart recovers the same directory
	// state (WAL tail included), copied fresh each time.
	s.kill()
	crashed := dir
	if err := syncDir(crashed); err != nil {
		return nil, err
	}
	var readyS []float64
	for r := 0; r < c.spec.restarts; r++ {
		rdir := filepath.Join(c.run, fmt.Sprintf("restart-%d", r))
		if err := copyDir(crashed, rdir); err != nil {
			return nil, err
		}
		rs, err := srv.start(rdir, filepath.Join(c.run, fmt.Sprintf("restart-%d.log", r)))
		if err != nil {
			return nil, err
		}
		readyS = append(readyS, time.Since(rs.spawned).Seconds())
		if st, err := client.New(rs.base, client.Options{}).Stats(ctx); err != nil {
			res.gate.fail("restart_stats", "%v", err)
		} else if st.Observations != st1.Observations {
			res.gate.fail("restart_observations", "recovered %d observations, had %d", st.Observations, st1.Observations)
		}
		rs.kill()
		os.RemoveAll(rdir)
	}

	nonOK := 0
	for _, o := range timed {
		if o.status != http.StatusOK {
			nonOK++
		}
	}
	res.attempted = len(timed) + len(exportS) + c.spec.restarts
	if !c.trace {
		ls := summarize(latencies(openOuts), 99)
		res.provenance["open_loop_samples"] = ls.N
		fmt.Fprintf(os.Stderr, "closed blocks %.4g checks/s; open loop %v ms; exports %.3g s; restarts %.3g s\n",
			blockRate, ls, exportS, readyS)
		res.set("setup_s", setup, "s")
		res.set("checks_per_s", median(blockRate), "checks/s")
		res.set("check_p50_ms", ls.P50, "ms")
		res.set("error_ratio", float64(nonOK)/float64(len(timed)+len(exportS)), "ratio")
		if c.spec.preload > 0 {
			res.set("server_cpu_ms_per_op", (cpu2-cpu1)/float64(len(exportS)), "ms")
		} else {
			res.set("server_cpu_ms_per_op", (cpu1-cpu0)/float64(len(timed)), "ms")
		}
		res.set("rss_peak_mb", rss, "MB")
		// A mean, not a median: sheriffd's GC cycles land on some exports
		// and not others, and the mean amortizes them the way a user
		// exporting repeatedly pays for them.
		res.set("export_s", mean(exportS), "s")
		res.set("ready_s", median(readyS), "s")
		fmt.Fprintf(os.Stderr, "%s seed %d: %d inputs; %d closed-loop checks, %d open-loop at %g/s, %d exports, %d restarts\n",
			c.workload, c.seed, len(seq), len(closedOuts), len(openOuts), c.rate, len(exportS), c.spec.restarts)
		return res, nil
	}

	// Traced: per-layer counters from the subprocess run above, then the
	// in-process traced rerun.
	checks := st1.Checks - st0.Checks
	attempted := len(timed)
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	res.set("backend.pagecache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")
	res.set("backend.fetches_per_check", float64(hits+misses)/float64(attempted), "count/check")
	res.set("events.per_check", float64(st1.Analysis.Events-st0.Analysis.Events)/float64(max(1, checks)), "count/check")
	if d := st1.Durable; d != nil {
		walRows := uint64(st1.Observations) - d.SnapshotRows
		res.set("store.wal_bytes_per_obs", float64(d.WALBytes)/float64(max(1, walRows)), "B/obs")
		res.set("store.compactions", float64(d.Generation-st0.Durable.Generation), "count")
	}
	ops, wins := len(timed), checkWins
	if c.spec.preload > 0 {
		ops, wins = len(exportS), []window{exportWin}
	}
	n, gcCPU := gcIn(gcs, wins)
	res.set("proc.gc_cycles_per_kop", float64(n)*1000/float64(ops), "count/kop")
	res.set("proc.gc_cpu_ms", gcCPU, "ms")
	var late []float64
	for _, o := range openOuts {
		late = append(late, ms(o.sample.late()))
	}
	res.set("loadgen.late_p99_ms", summarize(late, 99).Tail, "ms")
	// The tail latency is reported here, without a bound: on a shared
	// 2-vCPU box its spread between runs exceeded any usable bound.
	res.set("check_p99_ms", summarize(latencies(openOuts), 99).Tail, "ms")
	runtime.GOMAXPROCS(prev)
	if err := traceInProcess(ctx, c, tw, seq, warm, pristine, crashed, res); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// closedChecks is the closed loop's work for a share of --seconds.
func (c config) closedChecks(share float64) int {
	return int(c.spec.capacity * c.seconds * share)
}

// provenance records what produced a result.
func provenance(c config, longtail int, tw *twin) map[string]any {
	return map[string]any{
		"workload":          c.workload,
		"seed":              c.seed,
		"seconds":           c.seconds,
		"trace":             c.trace,
		"nproc":             runtime.NumCPU(),
		"client_gomaxprocs": 1,
		"go":                runtime.Version(),
		"commit":            commit(),
		"fsync":             "interval",
		"world_domains":     tw.w.DomainCount(),
		"longtail":          longtail,
		"dataset_rows":      c.spec.preload,
		"rate_checks_s":     c.rate,
		"client_workers":    c.workers,
	}
}

// commit names the source the benchmark ran: the git commit when the
// working directory is a git checkout, else (an exported tree, as
// `git archive` makes) a digest of every Go source and go.mod. The .git
// check keeps a tree unpacked inside some other repository from taking
// that repository's commit.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path)
		io.Copy(h, f)
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
