package store

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAddAndQuery hammers the store with parallel writers
// (mimicking the backend's 14-way check fan-out and concurrent crawler
// product groups) while readers stream every query surface. Run under
// `go test -race`; the assertions also pin that no observation is lost
// or duplicated.
func TestConcurrentAddAndQuery(t *testing.T) {
	runBackends(t, testConcurrentAddAndQuery)
}

func testConcurrentAddAndQuery(t *testing.T, newBackend newBackendFunc) {
	st := newBackend(t)
	const (
		writers   = 8
		batches   = 40
		batchSize = 14
	)
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			domain := fmt.Sprintf("shard%d.example", w)
			for b := 0; b < batches; b++ {
				batch := make([]Observation, batchSize)
				for i := range batch {
					batch[i] = Observation{
						Domain: domain, SKU: fmt.Sprintf("S-%d", b%5),
						VP: fmt.Sprintf("vp-%d", i), PriceUnits: int64(b*100 + i),
						Currency: "USD", Time: day, Round: b % 7,
						Source: SourceCrawl, OK: i%7 != 0,
					}
				}
				if b%2 == 0 {
					st.AddAll(batch)
				} else {
					for _, o := range batch {
						st.AddAll([]Observation{o})
					}
				}
			}
		}(w)
	}

	// Readers race the writers across every query surface.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					st.Filter(Query{Domain: "shard3.example", Round: -1, OnlyOK: true})
					st.Len()
					st.LenOK()
				case 1:
					for range st.Scan(Query{Source: SourceCrawl, Round: 2}) {
					}
					st.LenSource(SourceCrawl)
				case 2:
					for _, g := range st.Groups(SourceCrawl) {
						_ = len(g)
					}
					st.Domains()
					st.Products("shard1.example")
				case 3:
					if err := st.WriteJSONL(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	rg.Wait()

	want := writers * batches * batchSize
	if st.Len() != want {
		t.Fatalf("Len = %d, want %d (lost or duplicated writes)", st.Len(), want)
	}
	for w := 0; w < writers; w++ {
		domain := fmt.Sprintf("shard%d.example", w)
		rows := st.Filter(Query{Domain: domain, Round: -1})
		if len(rows) != batches*batchSize {
			t.Fatalf("domain %s rows = %d, want %d", domain, len(rows), batches*batchSize)
		}
		// Per-domain insertion order: each writer is serial, so its
		// batches must appear whole and in issue order.
		for i := 1; i < len(rows); i++ {
			prev, cur := rows[i-1], rows[i]
			if prev.PriceUnits/100 == cur.PriceUnits/100 {
				if prev.PriceUnits >= cur.PriceUnits {
					t.Fatalf("domain %s batch order broken at row %d", domain, i)
				}
			}
		}
		if got := len(st.Products(domain)); got != 5 {
			t.Fatalf("domain %s products = %d, want 5", domain, got)
		}
	}
	if got := len(st.Domains()); got != writers {
		t.Fatalf("Domains = %d, want %d", got, writers)
	}
	total, okN := st.LenSource(SourceCrawl)
	if total != want || okN != st.LenOK() {
		t.Fatalf("LenSource = (%d,%d), LenOK = %d, want total %d", total, okN, st.LenOK(), want)
	}

	// Serialization after concurrent batch interleavings must still come
	// out in global sequence order: a reload must answer per-domain
	// queries exactly as the live store does.
	var buf bytes.Buffer
	if err := st.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		q := Query{Domain: fmt.Sprintf("shard%d.example", w), Round: -1}
		if !reflect.DeepEqual(back.Filter(q), st.Filter(q)) {
			t.Fatalf("reload diverged from live store for %s", q.Domain)
		}
	}
}

// TestScanEarlyStop asserts the iterator honors yield's stop signal.
func TestScanEarlyStop(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		testScanEarlyStop(t, newBackend(t))
	})
}

func testScanEarlyStop(t *testing.T, st Backend) {
	for i := 0; i < 100; i++ {
		st.AddAll([]Observation{{Domain: "a.com", SKU: fmt.Sprintf("S-%d", i), Round: -1, Source: SourceCrawl, OK: true}})
	}
	n := 0
	for range st.Scan(Query{Round: -1}) {
		n++
		if n == 7 {
			break
		}
	}
	if n != 7 {
		t.Fatalf("early stop: %d", n)
	}
	// Domain-scoped path too.
	n = 0
	for range st.Scan(Query{Domain: "a.com", Round: -1}) {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early stop (domain path): %d", n)
	}
}

// TestSnapshotIsolation pins Scan's snapshot semantics: observations
// admitted after the iterator is created do not appear mid-iteration.
func TestSnapshotIsolation(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		testSnapshotIsolation(t, newBackend(t))
	})
}

func testSnapshotIsolation(t *testing.T, st Backend) {
	for i := 0; i < 10; i++ {
		st.AddAll([]Observation{{Domain: "a.com", SKU: "S", Round: -1, Source: SourceCrawl, OK: true}})
	}
	seq := st.Scan(Query{Round: -1})
	n := 0
	for range seq {
		if n == 0 {
			// Mutate mid-iteration; the running scan must not see it.
			st.AddAll([]Observation{{Domain: "a.com", SKU: "S", Round: -1, Source: SourceCrawl, OK: true}})
		}
		n++
	}
	if n != 10 {
		t.Fatalf("snapshot leaked: scanned %d rows, want 10", n)
	}
	if st.Len() != 11 {
		t.Fatalf("Len = %d", st.Len())
	}
}
