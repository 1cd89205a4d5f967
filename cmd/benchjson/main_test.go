package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sheriff
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkStoreFilter10K-8   	     100	     12400 ns/op	    2048 B/op	      12 allocs/op
BenchmarkStoreFilter10KLinear-8 	      50	    132000 ns/op	   16384 B/op	     100 allocs/op
BenchmarkAblationExtractionAnchor-8 	     200	     55000 ns/op
PASS
ok  	sheriff	12.345s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Env["goos"] != "linux" || doc.Env["cpu"] == "" {
		t.Fatalf("env = %v", doc.Env)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkStoreFilter10K" || b.Procs != 8 || b.Pkg != "sheriff" {
		t.Fatalf("first = %+v", b)
	}
	if b.Iterations != 100 || b.Metrics["ns/op"] != 12400 || b.Metrics["allocs/op"] != 12 {
		t.Fatalf("metrics = %+v", b)
	}
	// A -benchmem-less line still parses, with only ns/op.
	if m := doc.Benchmarks[2].Metrics; len(m) != 1 || m["ns/op"] != 55000 {
		t.Fatalf("third metrics = %v", m)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok sheriff 1s\n")); err == nil {
		t.Fatal("no error on benchmark-free input")
	}
}

func TestParseSkipsNoise(t *testing.T) {
	noisy := "2026/01/01 log line with Benchmark word later\n" + sample
	doc, err := parse(strings.NewReader(noisy))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
}

// mkDoc builds a Doc from (name, ns/op, allocs/op) triples.
func mkDoc(entries ...[3]any) *Doc {
	doc := &Doc{}
	for _, e := range entries {
		doc.Benchmarks = append(doc.Benchmarks, Result{
			Pkg: "sheriff", Name: e[0].(string), Procs: 8, Iterations: 100,
			Metrics: map[string]float64{
				"ns/op":     float64(e[1].(int)),
				"allocs/op": float64(e[2].(int)),
			},
		})
	}
	return doc
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldDoc := mkDoc(
		[3]any{"BenchmarkA", 1000, 10},
		[3]any{"BenchmarkB", 2000, 20},
		[3]any{"BenchmarkC", 3000, 30},
	)
	newDoc := mkDoc(
		[3]any{"BenchmarkA", 1100, 10}, // +10%: inside a 25% threshold
		[3]any{"BenchmarkB", 3000, 20}, // +50%: regression
		[3]any{"BenchmarkC", 1500, 30}, // -50%: improvement
	)
	rep := compare(oldDoc, newDoc, "ns/op", 25)
	if len(rep.Regressions) != 1 || rep.Regressions[0].ID.Name != "BenchmarkB" {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	if len(rep.Deltas) != 3 {
		t.Fatalf("deltas = %d, want 3", len(rep.Deltas))
	}
	// Worst first.
	if rep.Deltas[0].ID.Name != "BenchmarkB" || rep.Deltas[2].ID.Name != "BenchmarkC" {
		t.Fatalf("delta order: %+v", rep.Deltas)
	}
	text := rep.String()
	if !strings.Contains(text, "!! sheriff.BenchmarkB") {
		t.Fatalf("report does not mark the regression:\n%s", text)
	}
}

func TestComparePassesWithinThreshold(t *testing.T) {
	oldDoc := mkDoc([3]any{"BenchmarkA", 1000, 10})
	newDoc := mkDoc([3]any{"BenchmarkA", 1200, 10})
	if rep := compare(oldDoc, newDoc, "ns/op", 25); len(rep.Regressions) != 0 {
		t.Fatalf("20%% growth flagged at 25%% threshold: %+v", rep.Regressions)
	}
	// The boundary itself passes: "past the threshold" is strict.
	newDoc = mkDoc([3]any{"BenchmarkA", 1250, 10})
	if rep := compare(oldDoc, newDoc, "ns/op", 25); len(rep.Regressions) != 0 {
		t.Fatalf("exactly-threshold growth flagged: %+v", rep.Regressions)
	}
}

func TestCompareGatesChosenMetric(t *testing.T) {
	oldDoc := mkDoc([3]any{"BenchmarkA", 1000, 10})
	newDoc := mkDoc([3]any{"BenchmarkA", 1000, 40}) // 4x allocations, flat time
	if rep := compare(oldDoc, newDoc, "ns/op", 25); len(rep.Regressions) != 0 {
		t.Fatalf("ns/op gate fired on an alloc regression: %+v", rep.Regressions)
	}
	rep := compare(oldDoc, newDoc, "allocs/op", 25)
	if len(rep.Regressions) != 1 {
		t.Fatalf("allocs/op gate missed a 300%% regression: %+v", rep.Regressions)
	}
}

func TestCompareUnpairedBenchmarksNeverFail(t *testing.T) {
	oldDoc := mkDoc([3]any{"BenchmarkA", 1000, 10}, [3]any{"BenchmarkGone", 1, 1})
	newDoc := mkDoc([3]any{"BenchmarkA", 1000, 10}, [3]any{"BenchmarkFresh", 9999999, 9999})
	rep := compare(oldDoc, newDoc, "ns/op", 25)
	if len(rep.Regressions) != 0 {
		t.Fatalf("unpaired benchmarks failed the gate: %+v", rep.Regressions)
	}
	if len(rep.OnlyOld) != 1 || rep.OnlyOld[0] != "sheriff.BenchmarkGone" {
		t.Fatalf("OnlyOld = %v", rep.OnlyOld)
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "sheriff.BenchmarkFresh" {
		t.Fatalf("OnlyNew = %v", rep.OnlyNew)
	}
	text := rep.String()
	if !strings.Contains(text, "++") || !strings.Contains(text, "--") {
		t.Fatalf("report omits unpaired benchmarks:\n%s", text)
	}
}

func TestCompareAveragesRepeatedRuns(t *testing.T) {
	// -count=3: three entries for the same benchmark average to 2000,
	// which is flat against the baseline.
	oldDoc := mkDoc([3]any{"BenchmarkA", 2000, 10})
	newDoc := mkDoc(
		[3]any{"BenchmarkA", 1800, 10},
		[3]any{"BenchmarkA", 2000, 10},
		[3]any{"BenchmarkA", 2200, 10},
	)
	rep := compare(oldDoc, newDoc, "ns/op", 5)
	if len(rep.Regressions) != 0 {
		t.Fatalf("averaging failed, regressions: %+v", rep.Regressions)
	}
	if len(rep.Deltas) != 1 || rep.Deltas[0].New != 2000 {
		t.Fatalf("averaged delta = %+v", rep.Deltas)
	}
}

func TestCompareMissingMetricIsCountedNotFailed(t *testing.T) {
	oldDoc := mkDoc([3]any{"BenchmarkA", 1000, 10})
	newDoc := &Doc{Benchmarks: []Result{{
		Pkg: "sheriff", Name: "BenchmarkA", Procs: 8, Iterations: 100,
		Metrics: map[string]float64{"ns/op": 1000}, // no allocs/op
	}}}
	rep := compare(oldDoc, newDoc, "allocs/op", 25)
	if len(rep.Regressions) != 0 || rep.Missing != 1 {
		t.Fatalf("missing-metric handling: %+v", rep)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	oldDoc := mkDoc([3]any{"BenchmarkA", 1000, 0})
	newDoc := mkDoc([3]any{"BenchmarkA", 1000, 5})
	// 0 -> 5 allocs cannot be expressed as a percentage; it must still
	// trip the gate.
	if rep := compare(oldDoc, newDoc, "allocs/op", 25); len(rep.Regressions) != 1 {
		t.Fatalf("zero baseline growth passed: %+v", rep.Regressions)
	}
	// 0 -> 0 is flat.
	if rep := compare(oldDoc, oldDoc, "allocs/op", 25); len(rep.Regressions) != 0 {
		t.Fatalf("0 -> 0 flagged: %+v", rep.Regressions)
	}
}

func TestParsePreservesParamSuffixOnSingleProc(t *testing.T) {
	// GOMAXPROCS=1: go test appends no -N suffix, so trailing numbers are
	// benchmark parameters, not procs. They must survive verbatim — the
	// historical per-line strip turned "BenchmarkRecovery/shards-16" into
	// ".../shards" here but not on multi-proc machines, so the -compare
	// gate paired nothing and silently passed.
	oneProc := `pkg: sheriff
BenchmarkRecovery/shards-16   	      10	  1000000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkStoreAdd             	     100	    50000 ns/op	    1024 B/op	       6 allocs/op
`
	doc, err := parse(strings.NewReader(oneProc))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Benchmarks[0].Name != "BenchmarkRecovery/shards-16" || doc.Benchmarks[0].Procs != 1 {
		t.Fatalf("param suffix mangled: %+v", doc.Benchmarks[0])
	}

	// The same benchmarks on an 8-proc machine carry a uniform -8 suffix;
	// stripping it must land on identical names so the two runs pair.
	eightProc := `pkg: sheriff
BenchmarkRecovery/shards-16-8 	      10	  2000000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkStoreAdd-8           	     100	    60000 ns/op	    1024 B/op	       6 allocs/op
`
	doc8, err := parse(strings.NewReader(eightProc))
	if err != nil {
		t.Fatal(err)
	}
	if doc8.Benchmarks[0].Name != "BenchmarkRecovery/shards-16" || doc8.Benchmarks[0].Procs != 8 {
		t.Fatalf("uniform procs suffix not stripped: %+v", doc8.Benchmarks[0])
	}
	rep := compare(doc, doc8, "allocs/op", 25)
	if len(rep.Deltas) != 2 || len(rep.OnlyOld) != 0 || len(rep.OnlyNew) != 0 {
		t.Fatalf("1-proc vs 8-proc runs did not pair: %+v", rep)
	}
}

func TestCompareAveragesBeforePairingWithCount(t *testing.T) {
	// -count=3 on the CI side: repeats average per name BEFORE pairing
	// against the single-entry baseline, sub-benchmark names included.
	oldText := `pkg: sheriff
BenchmarkDurableAddAll/fsync=always-4 	     100	    200000 ns/op	      20 allocs/op
BenchmarkRecovery/wal-replay-4        	      10	   9000000 ns/op	     900 allocs/op
`
	newText := `pkg: sheriff
BenchmarkDurableAddAll/fsync=always-8 	     100	    190000 ns/op	      20 allocs/op
BenchmarkDurableAddAll/fsync=always-8 	     100	    200000 ns/op	      26 allocs/op
BenchmarkDurableAddAll/fsync=always-8 	     100	    210000 ns/op	      20 allocs/op
BenchmarkRecovery/wal-replay-8        	      10	   9000000 ns/op	     900 allocs/op
`
	oldDoc, err := parse(strings.NewReader(oldText))
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := parse(strings.NewReader(newText))
	if err != nil {
		t.Fatal(err)
	}
	rep := compare(oldDoc, newDoc, "ns/op", 4)
	if len(rep.Deltas) != 2 || rep.Deltas[0].New != 200000 {
		t.Fatalf("count>1 mean not paired: %+v", rep.Deltas)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("flat mean flagged: %+v", rep.Regressions)
	}
	// The alloc outlier pushes the mean to 22 (+10%): past a 5% gate.
	if rep := compare(oldDoc, newDoc, "allocs/op", 5); len(rep.Regressions) != 1 {
		t.Fatalf("averaged alloc regression missed: %+v", rep.Regressions)
	}
}

func TestParseSingleNameDocLeftVerbatim(t *testing.T) {
	// One distinct name (a filtered -bench run, possibly -count>1): a
	// uniform trailing number could equally be a parameter, so nothing
	// is stripped — unpaired names show up visibly as OnlyOld/OnlyNew
	// instead of being silently rewritten.
	text := `pkg: sheriff
BenchmarkRecovery/shards-16 	      10	   1000000 ns/op
BenchmarkRecovery/shards-16 	      10	   1100000 ns/op
`
	doc, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range doc.Benchmarks {
		if b.Name != "BenchmarkRecovery/shards-16" {
			t.Fatalf("single-name doc rewritten: %+v", b)
		}
	}
}

func TestParseMixedSuffixesLeftVerbatim(t *testing.T) {
	// A -cpu=1,2 run: suffixes disagree, so nothing is provably a procs
	// suffix and names stay untouched.
	text := `pkg: sheriff
BenchmarkStoreAdd   	     100	    50000 ns/op
BenchmarkStoreAdd-2 	     100	    30000 ns/op
`
	doc, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Benchmarks[0].Name != "BenchmarkStoreAdd" || doc.Benchmarks[1].Name != "BenchmarkStoreAdd-2" {
		t.Fatalf("mixed suffixes rewritten: %+v", doc.Benchmarks)
	}
}

func TestComparePairsAcrossProcs(t *testing.T) {
	// The committed baseline comes from a different machine than the CI
	// runner, so GOMAXPROCS suffixes differ (-1 vs -4). Benchmarks must
	// still pair by (pkg, name) — otherwise the gate compares nothing
	// and silently passes.
	oldDoc := mkDoc([3]any{"BenchmarkA", 1000, 10})
	for i := range oldDoc.Benchmarks {
		oldDoc.Benchmarks[i].Procs = 1
	}
	newDoc := mkDoc([3]any{"BenchmarkA", 1000, 40})
	for i := range newDoc.Benchmarks {
		newDoc.Benchmarks[i].Procs = 4
	}
	rep := compare(oldDoc, newDoc, "allocs/op", 25)
	if len(rep.Deltas) != 1 || len(rep.OnlyOld) != 0 || len(rep.OnlyNew) != 0 {
		t.Fatalf("procs mismatch broke pairing: %+v", rep)
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regression across procs not flagged: %+v", rep.Regressions)
	}
}

// TestCompareRefusesIdenticalDocuments runs the -compare gate as CI does:
// a new document that repeats the baseline's results exits 1 instead of
// passing vacuously, while a real second run passes.
func TestCompareRefusesIdenticalDocuments(t *testing.T) {
	if os.Getenv("BENCHJSON_MAIN") == "1" {
		os.Args = append([]string{"benchjson"}, strings.Split(os.Getenv("BENCHJSON_ARGS"), "\n")...)
		main()
		os.Exit(0)
	}
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, d *Doc) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", doc)
	copied := write("copy.json", doc)
	doc.Benchmarks[0].Iterations++
	doc.Benchmarks[0].Metrics["ns/op"]--
	rerun := write("rerun.json", doc)

	if !sameResults(mustRead(t, base), mustRead(t, copied)) || sameResults(mustRead(t, base), mustRead(t, rerun)) {
		t.Fatal("sameResults must hold for the copy only")
	}
	run := func(newPath string) (int, string) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCompareRefusesIdenticalDocuments$")
		cmd.Env = append(os.Environ(), "BENCHJSON_MAIN=1", "BENCHJSON_ARGS=-compare\n"+base+"\n"+newPath)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), stderr.String()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0, stderr.String()
	}
	if code, stderr := run(copied); code != 1 || !strings.Contains(stderr, "identical results") {
		t.Fatalf("identical documents: exit %d, stderr %q; want exit 1 naming the copy", code, stderr)
	}
	if code, stderr := run(rerun); code != 0 {
		t.Fatalf("a real rerun within the threshold: exit %d, stderr %q; want 0", code, stderr)
	}
}

func mustRead(t *testing.T, path string) *Doc {
	t.Helper()
	d, err := readDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
