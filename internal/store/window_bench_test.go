package store

import (
	"fmt"
	"testing"
)

// BenchmarkScanRangeWindow reads one 8192-sequence window — the gather
// unit of the API's paged and NDJSON reads — from the middle of stores
// of 16K and 256K check-shaped rows. Index lists are seq-sorted, so a
// window costs a binary search plus the window itself: ns/op should be
// flat in dataset size.
func BenchmarkScanRangeWindow(b *testing.B) {
	const window = 8192
	for _, rows := range []int{16 << 10, 256 << 10} {
		s := New()
		obs := seedObservations(1, rows)
		for i := 0; i < rows; i += 14 {
			s.AddAll(obs[i:min(i+14, rows)])
		}
		after := uint64(rows / 2)
		b.Run(fmt.Sprintf("rows=%dK", rows>>10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				for range s.ScanRange(Query{Round: -1}, after, after+window) {
					n++
				}
				if n != window {
					b.Fatalf("window yielded %d rows, want %d", n, window)
				}
			}
		})
	}
}
