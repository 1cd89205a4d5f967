package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recoveryFixtures builds one data directory per recovery case the
// durable tests cover: clean and torn log tails, damaged and missing
// segments, a segment named twice, log rows at or below the manifest's
// MaxSeq, retention holes, out-of-order logs from concurrent writers,
// a directory written by encoding/json, an empty directory, and a log
// that cannot be read.
func recoveryFixtures() []struct {
	name  string
	build func(t *testing.T) string
} {
	return []struct {
		name  string
		build func(t *testing.T) string
	}{
		{"empty", func(t *testing.T) string { return t.TempDir() }},
		{"wal-only", func(t *testing.T) string {
			dir := t.TempDir()
			d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
			addVariedBatches(d, seedObservations(3, 1500), 3)
			d.crash()
			return dir
		}},
		{"snapshot-and-tail", func(t *testing.T) string {
			dir := t.TempDir()
			d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever, SegmentBytes: 8192})
			addVariedBatches(d, seedObservations(4, 1200), 4)
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
			addVariedBatches(d, seedObservations(5, 300), 5)
			d.crash()
			return dir
		}},
		{"concurrent-writers", func(t *testing.T) string {
			dir := t.TempDir()
			d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for b := 0; b < 20; b++ {
						batch := make([]Observation, 7)
						for i := range batch {
							domain := "shared.example"
							if w%2 == 1 {
								domain = fmt.Sprintf("writer%d.example", w)
							}
							batch[i] = obs(domain, fmt.Sprintf("S-%d", b), "vp", int64(b*10+i), -1, SourceCrowd, true)
						}
						d.AddAll(batch)
					}
				}(w)
			}
			wg.Wait()
			d.crash()
			return dir
		}},
		{"torn-wal-garbage", func(t *testing.T) string {
			dir := tornWALDir(t)
			f, err := os.OpenFile(walPaths(t, dir)[0], os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
				t.Fatal(err)
			}
			f.Close()
			return dir
		}},
		{"torn-wal-truncated", func(t *testing.T) string {
			dir := tornWALDir(t)
			path := walPaths(t, dir)[0]
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-11); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"truncated-segment", func(t *testing.T) string {
			dir, man := segmentedDir(t)
			victim := man.Buckets[0].Segments[1]
			if err := os.Truncate(filepath.Join(dir, victim.Name), victim.Bytes/2); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"missing-segment", func(t *testing.T) string {
			dir, man := segmentedDir(t)
			if err := os.Remove(filepath.Join(dir, man.Buckets[0].Segments[2].Name)); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"cold-segment-truncated", func(t *testing.T) string {
			dir := coldDir(t)
			seg, _ := coldSegment(t, dir)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, info.Size()/2); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"cold-segment-header-destroyed", func(t *testing.T) string {
			dir := coldDir(t)
			seg, _ := coldSegment(t, dir)
			if err := os.WriteFile(seg, []byte("not gzip at all"), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"duplicate-segment", func(t *testing.T) string {
			dir := coldDir(t)
			man, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			b := &man.Buckets[len(man.Buckets)-1]
			b.Segments = append(b.Segments, b.Segments[0])
			b.Rows *= 2
			man.Rows += uint64(b.Segments[0].Rows)
			if err := commitManifest(dir, man); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"wal-at-or-below-maxseq", func(t *testing.T) string {
			// Records that repeat snapshot sequences, one straddling the
			// manifest's MaxSeq, one wholly above it and one repeating a
			// row above it, spread over two logs whose shards do not
			// match the rows' domains.
			dir := coldDir(t)
			man, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			m := man.MaxSeq
			rows := seedObservations(17, 9)
			var log0, log1 []byte
			for _, rec := range []struct {
				log  *[]byte
				seqs []uint64
				obs  []Observation
			}{
				{&log0, []uint64{1, 2, m - 1}, rows[0:3]},
				{&log1, []uint64{m - 1, m, m + 1}, rows[3:6]},
				{&log0, []uint64{m + 3, m + 2, m + 4}, rows[6:9]},
				{&log0, []uint64{m + 1}, rows[5:6]},
			} {
				var err error
				if *rec.log, err = appendWALRecord(*rec.log, rec.seqs, rec.obs); err != nil {
					t.Fatal(err)
				}
			}
			writeFile(t, filepath.Join(dir, walFile(man.Generation, 0)), log0)
			writeFile(t, filepath.Join(dir, walFile(man.Generation, 1)), log1)
			return dir
		}},
		{"retention-holes", func(t *testing.T) string {
			dir := t.TempDir()
			d, _ := openDurable(t, dir, DurableOptions{
				Fsync: FsyncNever, BucketDuration: 24 * time.Hour, RetainAge: 2 * 24 * time.Hour,
			})
			for day := 0; day < 8; day++ {
				d.AddAll(dayBatch(day, 60))
			}
			if d.Stats().PrunedBuckets == 0 {
				t.Fatal("retention pruned nothing; the fixture needs holes")
			}
			// The first batch of day 8 checkpoints; the second stays in
			// the log.
			d.AddAll(dayBatch(8, 30))
			d.AddAll(dayBatch(8, 20))
			d.crash()
			return dir
		}},
		{"old-writer", oldWriterDir},
		{"unreadable-wal", func(t *testing.T) string {
			dir := coldDir(t)
			man, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, walFile(man.Generation, 5))
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
	}
}

// tornWALDir writes 20 five-row batches of one domain, so every record
// lands in one log, and leaves them un-checkpointed.
func tornWALDir(t *testing.T) string {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	for b := 0; b < 20; b++ {
		batch := make([]Observation, 5)
		for i := range batch {
			batch[i] = obs("torn.example", fmt.Sprintf("S-%d-%d", b, i), "us-bos", int64(b*100+i), -1, SourceCrowd, true)
		}
		d.AddAll(batch)
	}
	d.crash()
	return dir
}

// segmentedDir commits 600 rows as one bucket of several small plain
// segments, then leaves a 40-row log tail.
func segmentedDir(t *testing.T) (string, *manifest) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever, SegmentBytes: 4096, CompactWALBytes: -1,
		BucketDuration: 1000 * 24 * time.Hour})
	d.AddAll(seedObservations(11, 600))
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d.AddAll(seedObservations(13, 40))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Buckets) != 1 || len(man.Buckets[0].Segments) < 3 {
		t.Fatalf("want one bucket of at least 3 segments, got %+v", man.Buckets)
	}
	return dir, man
}

// coldDir commits four daily buckets, three of them cold and gzipped,
// with no log tail.
func coldDir(t *testing.T) string {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1, BucketDuration: 24 * time.Hour})
	for day := 0; day < 4; day++ {
		d.AddAll(dayBatch(day, 40))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// oldWriterDir lays out TestOldWriterDataDirCompat's directory: a cold
// gzipped and an active plain segment written by encoding/json, and a
// log tail interleaved over two shard logs that do not match the rows'
// domains.
func oldWriterDir(t *testing.T) string {
	dir := t.TempDir()
	day := time.Date(2013, 1, 10, 0, 0, 0, 0, time.UTC)
	rows := seedObservations(23, 98)
	for i := range rows {
		rows[i].Time = day.Add(time.Duration(i) * 30 * time.Minute)
	}
	segment := func(name string, firstSeq uint64, rows []Observation, compressed bool) bucketInfo {
		var raw bytes.Buffer
		enc := json.NewEncoder(&raw)
		for i := range rows {
			if err := enc.Encode(segRow{Seq: firstSeq + uint64(i), Obs: rows[i]}); err != nil {
				t.Fatal(err)
			}
		}
		data := raw.Bytes()
		if compressed {
			var gz bytes.Buffer
			zw := gzip.NewWriter(&gz)
			if _, err := zw.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			data = gz.Bytes()
		}
		writeFile(t, filepath.Join(dir, name), data)
		return bucketInfo{
			Start: bucketOf(rows[0].Time, 86400), Rows: len(rows), Bytes: int64(len(data)), Compressed: compressed,
			Segments: []segmentInfo{{Name: name, Rows: len(rows), Bytes: int64(len(data))}},
		}
	}
	cold, active, tail := rows[:40], rows[40:70], rows[70:]
	man := &manifest{Version: manifestVersion, Generation: 1, Rows: 70, MaxSeq: 70, BucketSeconds: 86400}
	man.Buckets = []bucketInfo{
		segment(fmt.Sprintf("seg-%08d-b%d-%05d.jsonl.gz", 1, cold[0].Time.Unix()/86400*86400, 0), 1, cold, true),
		segment(fmt.Sprintf("seg-%08d-b%d-%05d.jsonl", 1, active[0].Time.Unix()/86400*86400, 0), 41, active, false),
	}
	if err := commitManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	logs := map[int][]byte{}
	for b := 0; b*14 < len(tail); b++ {
		recRows := tail[b*14 : min(len(tail), (b+1)*14)]
		payload, err := json.Marshal(walRecord{Seqs: seqRange(71+uint64(b*14), len(recRows)), Obs: recRows})
		if err != nil {
			t.Fatal(err)
		}
		frame := append(make([]byte, FrameHeaderSize), payload...)
		if err := SealFrame(frame); err != nil {
			t.Fatal(err)
		}
		logs[b%2] = append(logs[b%2], frame...)
	}
	for shard, data := range logs {
		writeFile(t, filepath.Join(dir, walFile(1, shard)), data)
	}
	return dir
}

// writeFile writes data to path and fails the test on error.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertSameStore compares everything a reader can see of two stores:
// the JSONL bytes, the watermark, the bucket statistics, the newest
// observation time, the counters, and every index a query walks.
func assertSameStore(t *testing.T, got, want *Store) {
	t.Helper()
	if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, want)) {
		t.Fatal("WriteJSONL bytes differ")
	}
	if got.Watermark() != want.Watermark() || got.seq.Load() != want.seq.Load() {
		t.Fatalf("watermark %d (counter %d), want %d (counter %d)",
			got.Watermark(), got.seq.Load(), want.Watermark(), want.seq.Load())
	}
	if g, w := got.bucketStats(), want.bucketStats(); !reflect.DeepEqual(g, w) {
		t.Fatalf("bucket stats %v, want %v", g, w)
	}
	if g, w := got.maxUnix.Load(), want.maxUnix.Load(); g != w {
		t.Fatalf("newest observation %d, want %d", g, w)
	}
	if got.Len() != want.Len() || got.LenOK() != want.LenOK() {
		t.Fatalf("Len/LenOK %d/%d, want %d/%d", got.Len(), got.LenOK(), want.Len(), want.LenOK())
	}
	if g, w := got.TenantCounts(), want.TenantCounts(); !reflect.DeepEqual(g, w) {
		t.Fatalf("tenant counts %v, want %v", g, w)
	}
	if g, w := got.Domains(), want.Domains(); !reflect.DeepEqual(g, w) {
		t.Fatalf("domains %v, want %v", g, w)
	}
	for _, d := range want.Domains() {
		if g, w := got.Products(d), want.Products(d); !reflect.DeepEqual(g, w) {
			t.Fatalf("products of %s: %v, want %v", d, g, w)
		}
		q := Query{Domain: d, Round: -1}
		if g, w := got.Filter(q), want.Filter(q); !reflect.DeepEqual(g, w) {
			t.Fatalf("rows of domain %s differ", d)
		}
	}
	for _, src := range []string{"", SourceCrowd, SourceCrawl, SourceLogin, SourcePersona} {
		gt, gok := got.LenSource(src)
		wt, wok := want.LenSource(src)
		if gt != wt || gok != wok {
			t.Fatalf("LenSource(%q) %d/%d, want %d/%d", src, gt, gok, wt, wok)
		}
		if g, w := groupMap(got, src), groupMap(want, src); !reflect.DeepEqual(g, w) {
			t.Fatalf("groups of source %q differ", src)
		}
	}
	assertIndexesSorted(t, got)
}

// assertExactlySized checks that recovery allocated every list it built
// at its final size.
func assertExactlySized(t *testing.T, s *Store) {
	t.Helper()
	for si := range s.shards {
		sh := &s.shards[si]
		exact := func(what string, n, c int) {
			if n != c {
				t.Fatalf("shard %d %s: len %d, cap %d", si, what, n, c)
			}
		}
		exact("order", len(sh.order), cap(sh.order))
		for k, g := range sh.groups {
			exact(fmt.Sprintf("group %v obs", k), len(g.obs), cap(g.obs))
			exact(fmt.Sprintf("group %v seqs", k), len(g.seqs), cap(g.seqs))
			for src, list := range g.bySource {
				exact(fmt.Sprintf("group %v source %s", k, src), len(list), cap(list))
			}
		}
		for d, di := range sh.byDomain {
			exact("domain "+d, len(di.order), cap(di.order))
		}
		for src, list := range sh.bySource {
			exact("source "+src, len(list), cap(list))
		}
		for b, list := range sh.byBucket {
			exact(fmt.Sprintf("bucket %d", b), len(list), cap(list))
		}
	}
}

// TestRecoverMatchesSerial holds the parallel recovery to the serial
// one it replaced, on every recovery fixture and at the manifest's
// bucket width as well as another: the same report, the same first
// error, and stores no reader can tell apart — also after one more
// batch grows the lists recovery sized exactly.
func TestRecoverMatchesSerial(t *testing.T) {
	for _, fx := range recoveryFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			dir := fx.build(t)
			for _, width := range []int64{0, 3600} {
				got, _, gotRep, gotErr := recoverDir(dir, width)
				want, _, wantRep, wantErr := recoverDirSerial(dir, width)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("width %d: error %v, want %v", width, gotErr, wantErr)
				}
				if gotRep != wantRep {
					t.Fatalf("width %d: report %+v, want %+v", width, gotRep, wantRep)
				}
				if wantErr != nil {
					continue
				}
				assertSameStore(t, got, want)
				assertExactlySized(t, got)
				more := seedObservations(29, 60)
				got.AddAll(more)
				want.AddAll(more)
				assertSameStore(t, got, want)
			}
		})
	}
}

// TestRecoveryIndependentOfGOMAXPROCS recovers the same directories on
// one worker and on four: the stores must serialize to the same bytes,
// with the same report, and prune the same way.
func TestRecoveryIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, fx := range recoveryFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			dir := fx.build(t)
			var stores [2]*Store
			var reps [2]RecoveryReport
			var errs [2]error
			for i, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				stores[i], _, reps[i], errs[i] = recoverDir(dir, 0)
			}
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || reps[0] != reps[1] {
				t.Fatalf("GOMAXPROCS 1: %+v, %v; GOMAXPROCS 4: %+v, %v", reps[0], errs[0], reps[1], errs[1])
			}
			if errs[0] != nil {
				return
			}
			if !bytes.Equal(jsonlBytes(t, stores[0]), jsonlBytes(t, stores[1])) {
				t.Fatal("recovered bytes differ by GOMAXPROCS")
			}
			// Drop every other bucket, rebuilding at each setting.
			dropped := make(map[int64]struct{})
			for b := range stores[0].bucketStats() {
				if (b/stores[0].bucketSecs)%2 == 0 {
					dropped[b] = struct{}{}
				}
			}
			var pruned [2]*Store
			var prunedRows [2]uint64
			for i, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				pruned[i], prunedRows[i] = stores[i].rebuildWithout(dropped)
			}
			if prunedRows[0] != prunedRows[1] || !bytes.Equal(jsonlBytes(t, pruned[0]), jsonlBytes(t, pruned[1])) {
				t.Fatalf("prune differs by GOMAXPROCS: %d vs %d rows dropped", prunedRows[0], prunedRows[1])
			}
		})
	}
}
