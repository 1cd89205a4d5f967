package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFactoryOncePerWorker checks each worker calls the factory once, so
// exactly min(workers, n) per-worker states are built.
func TestFactoryOncePerWorker(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 5}, {3, 50}, {8, 3}, {64, 64}} {
		var calls atomic.Int32
		Do(tc.workers, tc.n, func() func(int) {
			calls.Add(1)
			return func(int) {}
		})
		if got, want := int(calls.Load()), min(tc.workers, tc.n); got != want {
			t.Errorf("workers=%d n=%d: factory called %d times, want %d", tc.workers, tc.n, got, want)
		}
	}
}

// TestSerialOnCaller checks workers <= 1 runs every unit on the calling
// goroutine, in index order: a plain slice append needs no lock, and
// the order it records is 0 … n-1.
func TestSerialOnCaller(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		calls := 0
		Do(workers, 6, func() func(int) {
			calls++
			return func(i int) { order = append(order, i) }
		})
		if calls != 1 {
			t.Errorf("workers=%d: factory called %d times, want 1", workers, calls)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: order %v, want 0..5", workers, order)
			}
		}
		if len(order) != 6 {
			t.Fatalf("workers=%d: ran %d units, want 6", workers, len(order))
		}
	}
}

// TestEmptyNeverCallsFactory checks n == 0 builds no worker.
func TestEmptyNeverCallsFactory(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		Do(workers, 0, func() func(int) {
			t.Fatalf("workers=%d: factory called for n=0", workers)
			return nil
		})
	}
}

// TestEachIndexOnce checks every index runs exactly once. Each worker
// counts its units in a plain, non-atomic variable of its own closure,
// so under -race a worker state shared between goroutines fails here;
// the per-worker counts are summed only after Do returns.
func TestEachIndexOnce(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		const n = 1000
		hits := make([]int32, n)
		var mu sync.Mutex
		var counts []*int
		Do(workers, n, func() func(int) {
			count := new(int)
			mu.Lock()
			counts = append(counts, count)
			mu.Unlock()
			return func(i int) {
				*count++
				atomic.AddInt32(&hits[i], 1)
			}
		})
		total := 0
		for _, c := range counts {
			total += *c
		}
		if total != n {
			t.Fatalf("workers=%d: workers ran %d units, want %d", workers, total, n)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}
