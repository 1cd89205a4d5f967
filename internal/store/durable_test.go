package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// crash simulates process death: every descriptor closes (the kernel
// does exactly this on kill -9) without any flush, sync or checkpoint —
// written bytes stay, the flock releases, nothing graceful happens.
// Abandoning the struct without this is NOT a faithful crash in-process:
// the flock stays held (or releases at the GC's whim via finalizers).
func (d *Durable) crash() {
	if d.stopSync != nil {
		d.stopOnce.Do(func() {
			close(d.stopSync)
			<-d.syncDone
		})
	}
	d.writeGate.Lock()
	defer d.writeGate.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	for si := range d.wals {
		d.wals[si].f.Close()
	}
	if d.lock != nil {
		d.lock.Close()
	}
}

// openDurable opens a writable durable store and fails the test on error.
func openDurable(t *testing.T, dir string, opts DurableOptions) (*Durable, RecoveryReport) {
	t.Helper()
	d, rep, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("open durable %s: %v", dir, err)
	}
	return d, rep
}

// jsonlBytes serializes a backend and fails the test on error.
func jsonlBytes(t *testing.T, r Reader) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walPaths lists the data directory's non-empty log files.
func walPaths(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > 0 {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestDurableCrashRecovery simulates the kill -9 case: a store that is
// never closed (its WAL simply stops mid-life) must reopen with every
// completed batch intact and in admission order.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	obs := seedObservations(3, 2000)
	oracle := New()
	for i := 0; i < len(obs); i += 14 {
		end := min(i+14, len(obs))
		d.AddAll(obs[i:end])
		oracle.AddAll(obs[i:end])
	}
	want := jsonlBytes(t, oracle)
	// The process "dies" here: descriptors close un-flushed, the written
	// bytes stay — exactly what kill -9 leaves behind (fsync policy only
	// matters across power loss).
	d.crash()
	back, rep, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(obs) || rep.Rows() != len(obs) {
		t.Fatalf("recovered %d rows (report %d), want %d", back.Len(), rep.Rows(), len(obs))
	}
	if rep.WALBytesDiscarded != 0 || rep.SegmentRowsLost != 0 {
		t.Fatalf("clean crash reported losses: %+v", rep)
	}
	if !bytes.Equal(jsonlBytes(t, back), want) {
		t.Fatal("recovered dataset is not byte-identical to the admission order")
	}
	// A writable reopen must see the same dataset and keep accepting.
	d2, rep2 := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	if rep2.Rows() != len(obs) {
		t.Fatalf("writable reopen recovered %d rows, want %d", rep2.Rows(), len(obs))
	}
	if !bytes.Equal(jsonlBytes(t, d2), want) {
		t.Fatal("writable reopen dataset diverged")
	}
	d2.AddAll(obs[:1])
	if d2.Len() != len(obs)+1 {
		t.Fatalf("post-recovery write lost: Len = %d", d2.Len())
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableTornWALTail pins the torn-write case: a crash mid-append
// leaves a half-written record (or trailing garbage) at a log's end;
// recovery must keep every complete record and discard only the tail.
func TestDurableTornWALTail(t *testing.T) {
	for _, tear := range []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"garbage-appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{"record-truncated", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// Chop into the final record's payload: the frame header
			// promises more bytes than the file holds.
			if err := os.Truncate(path, info.Size()-11); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
			// One domain: every record lands in one shard's log, so the
			// tear provably hits the same log the data lives in.
			var batches [][]Observation
			for b := 0; b < 20; b++ {
				batch := make([]Observation, 5)
				for i := range batch {
					batch[i] = obs("torn.example", fmt.Sprintf("S-%d-%d", b, i), "us-bos",
						int64(b*100+i), -1, SourceCrowd, true)
				}
				batches = append(batches, batch)
				d.AddAll(batch)
			}
			logs := walPaths(t, dir)
			if len(logs) != 1 {
				t.Fatalf("expected 1 non-empty log, found %d", len(logs))
			}
			d.crash()
			tear.tear(t, logs[0])

			back, rep, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.WALBytesDiscarded == 0 {
				t.Fatalf("tear not detected: %+v", rep)
			}
			// Complete records survive whole; the torn record is gone
			// entirely — batch atomicity, no partial batches.
			if back.Len()%5 != 0 {
				t.Fatalf("partial batch recovered: %d rows", back.Len())
			}
			wantBatches := back.Len() / 5
			if tear.name == "garbage-appended" && wantBatches != 20 {
				t.Fatalf("appended garbage cost real records: %d/20 batches", wantBatches)
			}
			if tear.name == "record-truncated" && wantBatches != 19 {
				t.Fatalf("truncation must cost exactly the last record: %d/20 batches", wantBatches)
			}
			rows := back.Filter(Query{Round: -1})
			for i, o := range rows {
				want := batches[i/5][i%5]
				o.Time, want.Time = want.Time, o.Time // JSONL time equality checked elsewhere
				if o != want {
					t.Fatalf("row %d diverged after recovery", i)
				}
			}
			// A writable open heals the directory: the torn tail is
			// compacted away and a further reopen reports no loss.
			d2, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			_, rep3, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep3.WALBytesDiscarded != 0 || rep3.Rows() != back.Len() {
				t.Fatalf("healed directory still reports damage: %+v", rep3)
			}
		})
	}
}

// TestDurableTruncatedSegment pins snapshot damage: a segment that lost
// its tail costs exactly the unrecoverable rows of that segment — the
// rest of the snapshot and the whole log tail still load.
func TestDurableTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a multi-segment snapshot; one huge bucket keeps
	// every segment in the (uncompressed) active bucket, so truncation
	// hits plain JSONL mid-row. Compressed-segment damage has its own
	// test in bucket_test.go.
	opts := DurableOptions{Fsync: FsyncNever, SegmentBytes: 4096, CompactWALBytes: -1,
		BucketDuration: 1000 * 24 * time.Hour}
	d, _ := openDurable(t, dir, opts)
	obs := seedObservations(11, 600)
	d.AddAll(obs)
	if err := d.Compact(); err != nil { // snapshot the 600 rows
		t.Fatal(err)
	}
	extra := seedObservations(13, 40) // live log tail on top of the snapshot
	d.AddAll(extra)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Buckets) != 1 {
		t.Fatalf("want one bucket, got %d", len(man.Buckets))
	}
	segs := man.Buckets[0].Segments
	if len(segs) < 3 {
		t.Fatalf("want a multi-segment snapshot, got %d segments", len(segs))
	}
	// Truncate the middle segment mid-row.
	victim := segs[1]
	if err := os.Truncate(filepath.Join(dir, victim.Name), victim.Bytes/2); err != nil {
		t.Fatal(err)
	}

	back, rep, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentRowsLost == 0 || rep.SegmentRowsLost >= victim.Rows {
		t.Fatalf("half-truncated segment must lose some but not all of its %d rows: %+v", victim.Rows, rep)
	}
	wantRows := 600 + len(extra) - rep.SegmentRowsLost
	if back.Len() != wantRows || rep.Rows() != wantRows {
		t.Fatalf("recovered %d rows (report %d), want %d", back.Len(), rep.Rows(), wantRows)
	}
	// The log tail must survive segment damage untouched.
	if rep.WALRows != len(extra) {
		t.Fatalf("wal tail lost: replayed %d rows, want %d", rep.WALRows, len(extra))
	}
	// Surviving rows keep their order: the recovered store is the oracle
	// minus the lost span.
	oracle := New()
	oracle.AddAll(obs)
	oracle.AddAll(extra)
	all, ref := back.Filter(Query{Round: -1}), oracle.Filter(Query{Round: -1})
	j := 0
	matched := 0
	for i := range all {
		for j < len(ref) {
			a, b := all[i], ref[j]
			a.Time, b.Time = b.Time, a.Time
			j++
			if a == b {
				matched++
				break
			}
		}
	}
	if matched != len(all) {
		t.Fatalf("recovered rows are not an ordered subsequence of the oracle: %d/%d", matched, len(all))
	}
}

// TestDurableCompactionCycle walks the generation lifecycle: snapshots
// commit, logs empty, files the manifest no longer names sweep away, and
// the dataset's bytes never change across any of it.
func TestDurableCompactionCycle(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1})
	obs := seedObservations(5, 1500)
	var want []byte
	for i := 0; i < len(obs); i += 500 {
		d.AddAll(obs[i : i+500])
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		stats := d.Stats()
		if stats.WALBytes != 0 || stats.SnapshotRows != uint64(i+500) {
			t.Fatalf("after compaction %d: %+v", i/500, stats)
		}
	}
	want = jsonlBytes(t, d)
	stats := d.Stats()
	// Opening a fresh dir commits generation 1; the three compactions
	// each advance it.
	if stats.Generation != 4 {
		t.Fatalf("generation = %d, want 4", stats.Generation)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Only manifest-named segments and the current generation's logs
	// remain (an unchanged bucket keeps its older segment files).
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, b := range man.Buckets {
		for _, seg := range b.Segments {
			named[seg.Name] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "seg-") && !named[n] {
			t.Fatalf("segment the manifest does not name survived sweep: %s", n)
		}
		if strings.HasPrefix(n, "wal-") && !strings.HasPrefix(n, fmt.Sprintf("wal-%08d-", stats.Generation)) {
			t.Fatalf("stale generation log survived sweep: %s", n)
		}
	}
	back, rep, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotRows != len(obs) || rep.WALRows != 0 {
		t.Fatalf("post-compaction recovery: %+v", rep)
	}
	if !bytes.Equal(jsonlBytes(t, back), want) {
		t.Fatal("dataset bytes changed across compactions")
	}
}

// TestDurableCleanReopenSkipsRewrite pins the clean-restart fast path: a
// reopen that recovered nothing from the logs commits a new generation
// that carries every segment forward instead of rewriting the whole
// dataset — a multi-GB clean restart must not pay an O(dataset) boot tax.
func TestDurableCleanReopenSkipsRewrite(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1})
	d.AddAll(seedObservations(19, 400))
	if err := d.Compact(); err != nil { // commit the rows, empty logs
		t.Fatal(err)
	}
	want := jsonlBytes(t, d)
	gen := d.Stats().Generation
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Buckets) == 0 || len(man.Buckets[0].Segments) == 0 {
		t.Fatalf("committed manifest names no segments: %+v", man)
	}
	seg := filepath.Join(dir, man.Buckets[0].Segments[0].Name)
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	d2, rep := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	if rep.SnapshotRows != 400 || rep.WALRows != 0 {
		t.Fatalf("clean reopen recovery: %+v", rep)
	}
	if got := d2.Stats().Generation; got != gen+1 {
		t.Fatalf("clean reopen moved the generation from %d to %d, want %d", gen, got, gen+1)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("clean reopen rewrote the committed segment")
	}
	if !bytes.Equal(jsonlBytes(t, d2), want) {
		t.Fatal("clean reopen changed the dataset")
	}
	// And the new generation still accepts and recovers new writes.
	d2.AddAll(seedObservations(23, 50))
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	back, rep2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 450 || rep2.WALRows != 50 {
		t.Fatalf("post-reuse writes lost: %d rows (report %+v)", back.Len(), rep2)
	}
}

// TestDurableAutoCompaction asserts the WAL-size trigger fires on its
// own and costs no data. The 100-day buckets keep each checkpoint to one
// or two bucket rewrites, so the race-enabled CI runs stay short.
func TestDurableAutoCompaction(t *testing.T) {
	const trigger = 64 << 10
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever, CompactWALBytes: trigger, BucketDuration: 100 * 24 * time.Hour})
	opened := d.Stats().Generation
	obs := seedObservations(17, 3000)
	// The batch that crosses the trigger checkpoints before it returns:
	// after every AddAll either the logs are still under the threshold
	// in the same generation, or a new generation starts empty logs.
	for i := 0; i < len(obs); i += 100 {
		before := d.Stats().Generation
		d.AddAll(obs[i : i+100])
		st := d.Stats()
		if st.Generation == before && st.WALBytes >= trigger {
			t.Fatalf("batch %d crossed the trigger (%d wal bytes) without a checkpoint", i/100, st.WALBytes)
		}
		if st.Generation != before && (st.Generation != before+1 || st.WALBytes != 0) {
			t.Fatalf("batch %d: generation %d -> %d, %d wal bytes", i/100, before, st.Generation, st.WALBytes)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Generation <= opened {
		t.Fatalf("auto compaction never fired: %+v", d.Stats())
	}
	back, rep, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(obs) {
		t.Fatalf("recovered %d rows, want %d (report %+v)", back.Len(), len(obs), rep)
	}
}

// TestDurableFsyncPolicies exercises each flush policy end to end.
func TestDurableFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			d, _ := openDurable(t, dir, DurableOptions{Fsync: p, SyncInterval: time.Millisecond})
			d.AddAll(seedObservations(int64(p)+1, 300))
			if p == FsyncAlways {
				if got := d.Stats().SyncedSeq; got != 300 {
					t.Fatalf("FsyncAlways watermark = %d, want 300", got)
				}
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := d.Stats().SyncedSeq; got != 300 {
				t.Fatalf("post-Sync watermark = %d, want 300", got)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			back, _, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != 300 {
				t.Fatalf("recovered %d rows, want 300", back.Len())
			}
		})
	}
}

// TestDurableWriteAfterClose pins the failure mode: no panic, no silent
// success — a sticky error.
func TestDurableWriteAfterClose(t *testing.T) {
	d, _ := openDurable(t, t.TempDir(), DurableOptions{Fsync: FsyncNever})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d.AddAll([]Observation{obs("a.com", "A-1", "x", 1, -1, SourceCrawl, true)})
	if d.Err() == nil {
		t.Fatal("write after close went unrecorded")
	}
	if d.Len() != 0 {
		t.Fatalf("write after close landed: Len = %d", d.Len())
	}
}

// TestDurableConcurrentWritersRecover pins that batches logged from
// concurrent writers re-merge into exactly the order live readers saw.
// With a domain per writer the batches spread over shard logs; with one
// domain they all land in one shard's log, in whichever order the
// writers took its lock — so that log holds records out of sequence
// order.
func TestDurableConcurrentWritersRecover(t *testing.T) {
	for _, tc := range []struct {
		name   string
		domain func(w int) string
	}{
		{"domain-per-writer", func(w int) string { return fmt.Sprintf("writer%d.example", w) }},
		{"one-domain", func(int) string { return "shared.example" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
			done := make(chan struct{})
			for w := 0; w < 8; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					for b := 0; b < 30; b++ {
						batch := make([]Observation, 7)
						for i := range batch {
							batch[i] = obs(tc.domain(w), fmt.Sprintf("S-%d", b), "vp", int64(b*10+i), -1, SourceCrowd, true)
						}
						d.AddAll(batch)
					}
				}(w)
			}
			for w := 0; w < 8; w++ {
				<-done
			}
			want := jsonlBytes(t, d) // the order live readers observed
			d.crash()
			back, rep, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != 8*30*7 || rep.Rows() != back.Len() {
				t.Fatalf("recovered %d rows, want %d", back.Len(), 8*30*7)
			}
			if !bytes.Equal(jsonlBytes(t, back), want) {
				t.Fatal("concurrent batches recovered out of admission order")
			}
			for w := 0; w < 8; w++ {
				q := Query{Domain: tc.domain(w), Round: -1}
				if !reflect.DeepEqual(back.Filter(q), d.Filter(q)) {
					t.Fatalf("per-domain rows diverged for writer %d", w)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoverDuplicateSegment pins recovery over rows that repeat a
// sequence number: a manifest naming one segment twice recovers every
// row once, under its own sequence number — and returns instead of
// looping on the tied runs. A writable open then commits the rows once.
func TestRecoverDuplicateSegment(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	rows := seedObservations(9, 10)
	day := time.Date(2013, 1, 10, 0, 0, 0, 0, time.UTC)
	for i := range rows {
		rows[i].Time = day.Add(time.Duration(i) * time.Minute)
	}
	d.AddAll(rows)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Buckets) != 1 || len(man.Buckets[0].Segments) != 1 {
		t.Fatalf("want one bucket with one segment, got %+v", man.Buckets)
	}
	b := &man.Buckets[0]
	b.Segments = append(b.Segments, b.Segments[0])
	b.Rows *= 2
	man.Rows *= 2
	if err := commitManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	type result struct {
		st  *Store
		rep RecoveryReport
		err error
	}
	ch := make(chan result, 1)
	go func() {
		st, rep, err := OpenReadOnly(dir)
		ch <- result{st, rep, err}
	}()
	var res result
	select {
	case res = <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("recovery of a twice-named segment did not return")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	assertOnce := func(st Reader, rep RecoveryReport) {
		t.Helper()
		if st.Len() != len(rows) || rep.Rows() != st.Len() {
			t.Fatalf("recovered %d rows (report %+v), want %d", st.Len(), rep, len(rows))
		}
		var seqs []uint64
		var got []Observation
		for seq, o := range st.ScanRange(Query{Round: -1}, 0, st.Watermark()) {
			seqs = append(seqs, seq)
			got = append(got, o)
		}
		if len(seqs) != len(rows) {
			t.Fatalf("scanned %d rows, want %d", len(seqs), len(rows))
		}
		for i := range rows {
			if seqs[i] != uint64(i+1) || !reflect.DeepEqual(got[i], rows[i]) {
				t.Fatalf("row %d: seq %d %+v, want seq %d %+v", i, seqs[i], got[i], i+1, rows[i])
			}
		}
	}
	assertOnce(res.st, res.rep)

	// The writable open commits what it recovered: 10 rows, once.
	d2, rep := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	assertOnce(d2, rep)
	if st := d2.Stats(); st.SnapshotRows != uint64(len(rows)) {
		t.Fatalf("committed %d rows, want %d", st.SnapshotRows, len(rows))
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	back, rep, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertOnce(back, rep)
}

// TestOpenReadOnlyRequiresDir pins the read-only contract: it inspects
// existing data, it does not invent directories.
func TestOpenReadOnlyRequiresDir(t *testing.T) {
	if _, _, err := OpenReadOnly(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir opened read-only")
	}
}

// TestDurableRejectsCorruptManifest pins that manifest damage is fatal,
// not papered over: the manifest is written atomically, so a broken one
// means something other than a crash happened.
func TestDurableRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	d.AddAll(seedObservations(1, 10))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenReadOnly(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if _, _, err := OpenDurable(dir, DurableOptions{}); err == nil {
		t.Fatal("corrupt manifest accepted by writable open")
	}
}
