package store

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func wmObs(domain, sku string, n int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		out[i] = Observation{Domain: domain, SKU: fmt.Sprintf("%s-%d", sku, i), Round: -1, Currency: "USD", OK: true}
	}
	return out
}

// TestLaterBatchWaitsItsTurn drives the interleaving that would reorder
// the store: batch A reserves sequences first, then batch B reserves
// after and tries to apply while A has not. B must wait its turn —
// invisible to Scan, unseen by the observer, the watermark held below A
// — and apply only after A, so the observer folds A before B.
func TestLaterBatchWaitsItsTurn(t *testing.T) {
	s := New()
	var mu sync.Mutex
	var folded []string // the domain of each batch the observer saw
	s.SetObserver(func(batch []Observation) {
		mu.Lock()
		folded = append(folded, batch[0].Domain)
		mu.Unlock()
	})
	seen := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), folded...)
	}

	s.AddAll(wmObs("pre.example.com", "P", 5)) // seqs 1..5, applied
	if got := s.Watermark(); got != 5 {
		t.Fatalf("watermark = %d, want 5", got)
	}

	// Batch A reserves 6..8 but has not applied yet (a writer between
	// reserve and its apply).
	a := wmObs("a.example.com", "A", 3)
	baseA := s.reserve(len(a))

	// Batch B reserves 9..11 on another goroutine and tries to apply.
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		s.AddAll(wmObs("b.example.com", "B", 3))
	}()
	// Wait until B is parked behind A (or, wrongly, applied).
	for parked := false; !parked; runtime.Gosched() {
		select {
		case <-bDone:
			t.Fatal("batch B applied before batch A, which reserved first")
		default:
		}
		s.wmMu.Lock()
		_, parked = s.waiting[baseA+uint64(len(a))]
		s.wmMu.Unlock()
	}
	if got := s.Len(); got != 5 {
		t.Fatalf("len = %d before A applied, want 5 (B must wait)", got)
	}
	if got := seen(); !reflect.DeepEqual(got, []string{"pre.example.com"}) {
		t.Fatalf("observer saw %v before A applied, want only the first batch", got)
	}
	if got := s.Watermark(); got != 5 {
		t.Fatalf("watermark = %d with batch A unapplied, want 5", got)
	}

	// A applies; B follows in its turn. The watermark covers everything,
	// the observer folded in sequence order, and the full range reads 11
	// rows in sequence order.
	s.apply(a, nil, baseA)
	<-bDone
	if got := s.Watermark(); got != 11 {
		t.Fatalf("watermark = %d after both applied, want 11", got)
	}
	if got, want := seen(), []string{"pre.example.com", "a.example.com", "b.example.com"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("observer order %v, want %v", got, want)
	}
	var served []uint64
	for seq := range s.ScanRange(Query{Round: -1}, 0, s.Watermark()) {
		served = append(served, seq)
	}
	if len(served) != 11 {
		t.Fatalf("full range served %d rows, want 11", len(served))
	}
	for i, seq := range served {
		if seq != uint64(i+1) {
			t.Fatalf("row %d has seq %d, want %d (sequence order)", i, seq, i+1)
		}
	}
}

// TestScanRangeWindowsCoverScan: windowed reads, concatenated, must
// equal one full Scan — same rows, same order — for domain-scoped and
// global queries alike.
func TestScanRangeWindowsCoverScan(t *testing.T) {
	s := New()
	for i := 0; i < 40; i++ {
		s.AddAll(wmObs(fmt.Sprintf("d%d.example.com", i%7), fmt.Sprintf("S%d", i), 5))
	}
	for _, q := range []Query{
		{Round: -1},
		{Domain: "d3.example.com", Round: -1},
	} {
		want := s.Filter(q)
		upto := s.Watermark()
		var got []Observation
		const window = 17 // deliberately odd, not aligned to batches
		for start := uint64(0); start < upto; start += window {
			end := min(start+window, upto)
			prev := uint64(0)
			for seq, o := range s.ScanRange(q, start, end) {
				if seq <= start || seq > end {
					t.Fatalf("seq %d escaped window (%d, %d]", seq, start, end)
				}
				if seq <= prev {
					t.Fatalf("window yielded out of order: %d after %d", seq, prev)
				}
				prev = seq
				got = append(got, o)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: windows yielded %d rows, Scan %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: row %d differs between windowed and full scan", q, i)
			}
		}
	}
}
