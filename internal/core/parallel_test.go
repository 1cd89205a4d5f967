package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunIndexedCoversAllIndices checks every index runs exactly once at
// several worker counts, including the degenerate sequential path.
func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 23
		var counts [n]int32
		if err := runIndexed(workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestRunIndexedLowestIndexError checks the reported error is the failing
// call with the lowest index, independent of scheduling, and that later
// indices still run (no work is silently dropped).
func TestRunIndexedLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var ran int32
		err := runIndexed(workers, 10, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 7 || i == 3 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Fatalf("workers=%d: err = %v, want boom 3", workers, err)
		}
		if ran != 10 {
			t.Fatalf("workers=%d: ran %d of 10", workers, ran)
		}
	}
}

// TestRunIndexedEmpty checks n=0 is a no-op.
func TestRunIndexedEmpty(t *testing.T) {
	if err := runIndexed(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunIndexedConcurrencyBound checks no more than `workers` calls are
// ever in flight at once.
func TestRunIndexedConcurrencyBound(t *testing.T) {
	const workers, n = 3, 30
	var inflight, peak int32
	var mu sync.Mutex
	if err := runIndexed(workers, n, func(int) error {
		cur := atomic.AddInt32(&inflight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		atomic.AddInt32(&inflight, -1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", peak, workers)
	}
}

// TestScenarioMatrixParallelEquivalence is the engine's contract: the
// matrix runs one world per GOMAXPROCS worker, and its report at
// GOMAXPROCS 8 must be byte-identical to the sequential sweep at
// GOMAXPROCS 1 — same outcomes in the same order, same confusion
// matrices, same rendered table.
func TestScenarioMatrixParallelEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	opts := MatrixOptions{
		Seed:     1,
		Products: 6,
		// Default rounds (14): the market scenarios below only classify at
		// full series length, so the equivalence proof covers the
		// dynamics-aware detector path too.
		Scenarios: []string{
			"control", "geo-mult", "fingerprint", "disclosure", "weekday", "everything",
			"leader-follower", "periodic-sale", "demand", "competitive-geo",
		},
	}

	runtime.GOMAXPROCS(1)
	seq, err := RunScenarioMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(8)
	par, err := RunScenarioMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel report differs structurally from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if s, p := seq.String(), par.String(); s != p {
		t.Errorf("rendered reports differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestScenarioMatrixParallelSpeedup encodes the engine's performance
// contract: at GOMAXPROCS 4 (four matrix workers) the default sweep must
// run at least ~2× faster than at GOMAXPROCS 1. Worlds are CPU-bound and fully isolated, so the
// speedup tracks core count; the test skips where hardware cannot show it
// (fewer than 4 usable cores) and asserts a conservative 1.5× to stay
// robust on noisy shared runners.
func TestScenarioMatrixParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need 4 cores to demonstrate the speedup, have %d", runtime.GOMAXPROCS(0))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	opts := MatrixOptions{Seed: 1, Products: 8, Rounds: 4}

	run := func(procs int) time.Duration {
		runtime.GOMAXPROCS(procs)
		begin := time.Now()
		if _, err := RunScenarioMatrix(opts); err != nil {
			t.Fatal(err)
		}
		return time.Since(begin)
	}
	run(1) // warm caches and page in both paths before timing
	seq := run(1)
	par := run(4)

	if par <= 0 || seq <= 0 {
		t.Fatalf("degenerate timings: seq=%v par=%v", seq, par)
	}
	speedup := float64(seq) / float64(par)
	t.Logf("11-world sweep: GOMAXPROCS 1 %v, GOMAXPROCS 4 %v (%.2fx)", seq, par, speedup)
	if speedup < 1.5 {
		t.Errorf("GOMAXPROCS 4 sweep only %.2fx faster than GOMAXPROCS 1 (want >= 1.5x, expect ~2x+ on 4 cores)", speedup)
	}
}
