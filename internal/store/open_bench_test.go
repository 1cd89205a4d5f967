package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkDurableOpen measures a writable OpenDurable (recovery plus
// the open's checkpoint) and Close of a 6-day directory: 60K rows in
// daily buckets, five of them cold and gzipped. "clean" opens it as a
// graceful shutdown leaves it; "dirty-tail" adds a 9K-row WAL tail (15%)
// in the active bucket, as a crash or a Close without compaction leaves
// it. Every iteration opens a fresh copy of the directory, made outside
// the timer.
func BenchmarkDurableOpen(b *testing.B) {
	const days, perDay, tailRows = 6, 10_000, 9_000
	opts := DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1, BucketDuration: 24 * time.Hour}
	for _, tc := range []struct {
		name string
		tail int
	}{{"clean", 0}, {"dirty-tail", tailRows}} {
		b.Run(tc.name, func(b *testing.B) {
			src := b.TempDir()
			d, _, err := OpenDurable(src, opts)
			if err != nil {
				b.Fatal(err)
			}
			for day := 0; day < days; day++ {
				d.AddAll(dayBatch(day, perDay))
			}
			if err := d.Compact(); err != nil {
				b.Fatal(err)
			}
			if tc.tail > 0 {
				d.AddAll(dayBatch(days-1, tc.tail))
			}
			if err := d.Close(); err != nil { // Close leaves the tail logged
				b.Fatal(err)
			}
			dir := filepath.Join(b.TempDir(), "data")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				d, rep, err := OpenDurable(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
				if rep.Rows() != days*perDay+tc.tail || rep.WALRows != tc.tail {
					b.Fatalf("recovered %+v", rep)
				}
			}
		})
	}
}
