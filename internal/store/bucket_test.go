package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// bucketBase is 2013-01-10 00:00 UTC — exactly on a 24h bucket boundary
// (unix 1357776000 is divisible by 86400), so "day k" below is bucket k.
var bucketBase = time.Date(2013, 1, 10, 0, 0, 0, 0, time.UTC)

// dayBatch builds perDay observations inside simulated day `day`, spread
// over enough domains that every shard holding data holds every day.
func dayBatch(day, perDay int) []Observation {
	out := make([]Observation, perDay)
	for i := range out {
		domain := fmt.Sprintf("www.shop%02d.example", i%32)
		out[i] = Observation{
			Domain: domain, SKU: fmt.Sprintf("P-%d", i%10),
			VP: fmt.Sprintf("vp-%d", i%6), Country: "US", City: "Boston",
			PriceUnits: int64(1000 + day*100 + i), Currency: "USD",
			Time:  bucketBase.Add(time.Duration(day)*24*time.Hour + time.Duration(i)*time.Second),
			Round: -1, Source: SourceCrowd, OK: true,
		}
	}
	return out
}

// TestRetentionPruneTable drives the retention edge cases through a real
// checkpoint: each case writes `days` daily buckets, compacts, and
// checks what survived — in memory, in the manifest, and after both a
// writable re-open and a read-only one (pruned buckets must never be
// replayed again, and the pruning totals must persist).
func TestRetentionPruneTable(t *testing.T) {
	const perDay = 50
	cases := []struct {
		name       string
		days       int
		opts       DurableOptions
		wantRows   int
		wantPruned int // buckets
		wantPrRows uint64
	}{
		// A checkpoint over an empty store: no buckets to write, none to
		// prune, and the empty manifest must re-open cleanly.
		{name: "empty-store", days: 0, opts: DurableOptions{RetainBytes: 1}},
		// A byte budget no bucket can fit: everything but the active
		// bucket is evicted, the active bucket itself is untouchable.
		{name: "prune-all-but-active", days: 6, opts: DurableOptions{RetainBytes: 1},
			wantRows: perDay, wantPruned: 5, wantPrRows: 5 * perDay},
		// The budget is smaller than the one bucket that exists: nothing
		// to evict (the active bucket is never a victim), nothing pruned.
		{name: "budget-smaller-than-one-bucket", days: 1, opts: DurableOptions{RetainBytes: 1},
			wantRows: perDay},
		// Age cutoff: newest observation is early on day 5; minus 48h
		// lands inside day 3, so days 0-2 (whose whole range is older)
		// go and days 3-5 stay.
		{name: "age-cutoff", days: 6, opts: DurableOptions{RetainAge: 48 * time.Hour},
			wantRows: 3 * perDay, wantPruned: 3, wantPrRows: 3 * perDay},
		// An age wider than the dataset: retention is on (checkpoints at
		// every rollover) but never finds a victim.
		{name: "age-keeps-all", days: 4, opts: DurableOptions{RetainAge: 30 * 24 * time.Hour},
			wantRows: 4 * perDay},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := tc.opts
			opts.Fsync = FsyncNever
			opts.CompactWALBytes = -1
			opts.BucketDuration = 24 * time.Hour
			d, _ := openDurable(t, dir, opts)
			for day := 0; day < tc.days; day++ {
				d.AddAll(dayBatch(day, perDay))
			}
			if err := d.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			if got := d.Len(); got != tc.wantRows {
				t.Fatalf("live rows after prune = %d, want %d", got, tc.wantRows)
			}
			st := d.Stats()
			if int(st.PrunedBuckets) != tc.wantPruned || st.PrunedRows != tc.wantPrRows {
				t.Fatalf("pruned totals = %d buckets / %d rows, want %d / %d",
					st.PrunedBuckets, st.PrunedRows, tc.wantPruned, tc.wantPrRows)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// Re-open writable: recovery must replay only live buckets and
			// keep the cumulative pruning totals.
			d2, rep := openDurable(t, dir, opts)
			if d2.Len() != tc.wantRows {
				t.Fatalf("writable re-open recovered %d rows, want %d", d2.Len(), tc.wantRows)
			}
			if rep.PrunedBuckets != uint64(tc.wantPruned) || rep.PrunedRows != tc.wantPrRows {
				t.Fatalf("re-open report pruned %d buckets / %d rows, want %d / %d",
					rep.PrunedBuckets, rep.PrunedRows, tc.wantPruned, tc.wantPrRows)
			}
			if err := d2.Close(); err != nil {
				t.Fatalf("re-close: %v", err)
			}

			ro, roRep, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatalf("read-only open: %v", err)
			}
			if ro.Len() != tc.wantRows || roRep.PrunedBuckets != uint64(tc.wantPruned) {
				t.Fatalf("read-only recovered %d rows / %d pruned buckets, want %d / %d",
					ro.Len(), roRep.PrunedBuckets, tc.wantRows, tc.wantPruned)
			}
		})
	}
}

// TestSingleWriterRetentionFollowsWrites pins the rollover checkpoint
// to the write sequence: one writer logs 8 days of 20 ten-row batches
// under a byte budget. The first batch of each day checkpoints before it
// returns (so the budget sees exactly the rows written so far), no other
// batch does, and every run leaves the same manifest.
func TestSingleWriterRetentionFollowsWrites(t *testing.T) {
	const days, batches, perBatch = 8, 20, 10
	type outcome struct {
		Generation uint64
		Buckets    []bucketInfo
		Pruned     PruneTotals
	}
	var first outcome
	for run := 0; run < 10; run++ {
		dir := t.TempDir()
		opts := DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1, RetainBytes: 12000}
		d, _ := openDurable(t, dir, opts)
		opened := d.Stats().Generation
		for day := 0; day < days; day++ {
			rows := dayBatch(day, batches*perBatch)
			for b := 0; b < batches; b++ {
				d.AddAll(rows[b*perBatch : (b+1)*perBatch])
				if got, want := d.Stats().Generation, opened+uint64(day)+1; got != want {
					t.Fatalf("run %d day %d batch %d: generation %d, want %d", run, day, b, got, want)
				}
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		man, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{man.Generation, man.Buckets, man.Pruned}
		if run == 0 {
			if got.Pruned.Buckets == 0 {
				t.Fatalf("the budget pruned nothing: %+v", got)
			}
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d left manifest %+v, run 0 left %+v", run, got, first)
		}
	}
}

// TestScanRangeTimeWindowPushdown asserts the cold-bucket skip with the
// store's own counters: a query bounded to one day must scan only that
// day's bucket lists and skip every other bucket unopened. The fixture
// reuses one domain set across days, so every shard that holds data
// holds all seven buckets — making the scanned:skipped ratio exact.
func TestScanRangeTimeWindowPushdown(t *testing.T) {
	const days, perDay = 7, 160
	st := New()
	for day := 0; day < days; day++ {
		st.AddAll(dayBatch(day, perDay))
	}
	q := Query{
		Round: -1,
		Since: bucketBase.Add(6 * 24 * time.Hour),
		Until: bucketBase.Add(7 * 24 * time.Hour),
	}
	before := st.ScanStats()
	rows := 0
	for _, o := range st.ScanRange(q, 0, st.Watermark()) {
		if o.Time.Before(q.Since) || !o.Time.Before(q.Until) {
			t.Fatalf("row at %v outside [%v, %v)", o.Time, q.Since, q.Until)
		}
		rows++
	}
	after := st.ScanStats()
	if rows != perDay {
		t.Fatalf("window returned %d rows, want %d", rows, perDay)
	}
	scanned := after.SegmentsScanned - before.SegmentsScanned
	skipped := after.SegmentsSkipped - before.SegmentsSkipped
	if scanned == 0 || scanned > 16 {
		t.Fatalf("scanned %d bucket lists, want 1..16 (one bucket across the shards)", scanned)
	}
	if skipped != uint64(days-1)*scanned {
		t.Fatalf("skipped %d bucket lists, want exactly %d (the %d cold buckets of each scanned shard)",
			skipped, uint64(days-1)*scanned, days-1)
	}
}

// coldSegment returns the path and row count of one compressed segment.
func coldSegment(t *testing.T, dir string) (string, int) {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range man.Buckets {
		if !b.Compressed {
			continue
		}
		return filepath.Join(dir, b.Segments[0].Name), b.Rows
	}
	t.Fatal("no compressed bucket in the manifest")
	return "", 0
}

// TestCompressedSegmentDamage covers recovery over damaged cold
// segments: a truncated gzip stream yields the rows decoded before the
// tear (shortfall counted as lost), and a destroyed header loses exactly
// that segment's rows — in both cases recovery proceeds instead of
// refusing the directory.
func TestCompressedSegmentDamage(t *testing.T) {
	const days, perDay = 3, 40
	build := func(t *testing.T) string {
		dir := t.TempDir()
		d, _ := openDurable(t, dir, DurableOptions{
			Fsync: FsyncNever, CompactWALBytes: -1, BucketDuration: 24 * time.Hour,
		})
		for day := 0; day < days; day++ {
			d.AddAll(dayBatch(day, perDay))
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("truncated-stream", func(t *testing.T) {
		dir := build(t)
		seg, rows := coldSegment(t, dir)
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, info.Size()/2); err != nil {
			t.Fatal(err)
		}
		st, rep, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatalf("open over truncated gzip: %v", err)
		}
		if rep.SegmentRowsLost == 0 || rep.SegmentRowsLost > rows {
			t.Fatalf("lost %d rows, want 1..%d", rep.SegmentRowsLost, rows)
		}
		if st.Len()+rep.SegmentRowsLost != days*perDay {
			t.Fatalf("recovered %d + lost %d != written %d", st.Len(), rep.SegmentRowsLost, days*perDay)
		}
	})

	t.Run("destroyed-header", func(t *testing.T) {
		dir := build(t)
		seg, rows := coldSegment(t, dir)
		if err := os.WriteFile(seg, []byte("not gzip at all"), 0o644); err != nil {
			t.Fatal(err)
		}
		st, rep, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatalf("open over destroyed gzip header: %v", err)
		}
		if rep.SegmentRowsLost != rows {
			t.Fatalf("lost %d rows, want the whole segment (%d)", rep.SegmentRowsLost, rows)
		}
		if st.Len() != days*perDay-rows {
			t.Fatalf("recovered %d rows, want %d", st.Len(), days*perDay-rows)
		}
	})
}

// TestSweepRemovesOrphans plants the debris an interrupted compaction
// can leave — a segment from an uncommitted generation, a torn manifest
// temp file, a stale-generation WAL — and asserts the next open removes
// all of it while keeping every manifest-named file.
func TestSweepRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1, BucketDuration: 24 * time.Hour}
	d, _ := openDurable(t, dir, opts)
	for day := 0; day < 3; day++ {
		d.AddAll(dayBatch(day, 30))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	orphans := []string{
		segmentFile(99, bucketOf(bucketBase, 86400), 0, false),
		segmentFile(99, bucketOf(bucketBase, 86400), 1, true),
		manifestName + ".tmp",
		"wal-00000042-03.log",
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2, _ := openDurable(t, dir, opts)
	defer d2.Close()
	if d2.Len() != 90 {
		t.Fatalf("recovered %d rows, want 90", d2.Len())
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the sweep (err=%v)", name, err)
		}
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range man.Buckets {
		for _, s := range b.Segments {
			if _, err := os.Stat(filepath.Join(dir, s.Name)); err != nil {
				t.Fatalf("manifest-named segment %s missing after sweep: %v", s.Name, err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s survived", e.Name())
		}
	}
}

// segState is one segment file as a test saw it on disk.
type segState struct {
	size  int64
	mtime time.Time
}

// coldSegments maps each committed cold segment's name to its on-disk
// size and mtime.
func coldSegments(t *testing.T, dir string) map[string]segState {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]segState)
	for _, b := range man.Buckets {
		if !b.Compressed {
			continue
		}
		for _, seg := range b.Segments {
			fi, err := os.Stat(filepath.Join(dir, seg.Name))
			if err != nil {
				t.Fatal(err)
			}
			out[seg.Name] = segState{size: fi.Size(), mtime: fi.ModTime()}
		}
	}
	return out
}

// assertSegmentsKept fails unless every segment in want is still named
// by the manifest and unchanged on disk (name, size, mtime).
func assertSegmentsKept(t *testing.T, dir string, want map[string]segState) {
	t.Helper()
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
	for name, st := range want {
		if !named[name] {
			t.Fatalf("unchanged cold segment %s dropped from the manifest (rewritten)", name)
		}
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != st.size || !fi.ModTime().Equal(st.mtime) {
			t.Fatalf("unchanged cold segment %s touched: %d bytes @ %v, was %d @ %v",
				name, fi.Size(), fi.ModTime(), st.size, st.mtime)
		}
	}
}

// TestDirtyOpenCarriesColdSegments pins the checkpoint's carry rule on
// the common restart: a WAL tail that lands only in the active bucket
// must not rewrite a single cold segment, while the active bucket and
// the dataset absorb the tail. A later day then turns that active bucket
// cold, and the next checkpoint must compress it.
func TestDirtyOpenCarriesColdSegments(t *testing.T) {
	const days, perDay, tailRows = 4, 40, 25
	dir := t.TempDir()
	opts := DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1, BucketDuration: 24 * time.Hour}
	oracle := New()
	d, _ := openDurable(t, dir, opts)
	for day := 0; day < days; day++ {
		d.AddAll(dayBatch(day, perDay))
		oracle.AddAll(dayBatch(day, perDay))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	tail := dayBatch(days-1, tailRows) // the active bucket only
	d.AddAll(tail)
	oracle.AddAll(tail)
	if err := d.Close(); err != nil { // leaves the tail in the logs
		t.Fatal(err)
	}
	cold := coldSegments(t, dir)
	if len(cold) != days-1 {
		t.Fatalf("want %d cold segments, got %d", days-1, len(cold))
	}

	d2, rep := openDurable(t, dir, opts)
	if rep.WALRows != tailRows {
		t.Fatalf("dirty open replayed %d tail rows, want %d", rep.WALRows, tailRows)
	}
	assertSegmentsKept(t, dir, cold)
	st := d2.Stats()
	if st.SnapshotRows != days*perDay+tailRows || st.SnapshotBuckets != days || st.CompressedBuckets != days-1 {
		t.Fatalf("dirty open committed %+v", st)
	}
	next := dayBatch(days, perDay)
	d2.AddAll(next)
	oracle.AddAll(next)
	if err := d2.Compact(); err != nil {
		t.Fatal(err)
	}
	assertSegmentsKept(t, dir, cold)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := man.Buckets[len(man.Buckets)-1].Start
	for _, b := range man.Buckets {
		if cold := b.Start != newest; b.Compressed != cold || strings.HasSuffix(b.Segments[0].Name, ".gz") != cold {
			t.Fatalf("bucket %d: compressed=%v segment %s, want cold=%v", b.Start, b.Compressed, b.Segments[0].Name, cold)
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	back, rep2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.WALRows != 0 || rep2.SegmentRowsLost != 0 {
		t.Fatalf("tail not checkpointed: %+v", rep2)
	}
	if !bytes.Equal(jsonlBytes(t, back), jsonlBytes(t, oracle)) {
		t.Fatal("dataset after the dirty open differs from the oracle")
	}
}

// TestTruncatedColdSegmentRewritten pins the other half of the carry
// rule: a cold segment that lost k rows is rewritten, and so is one
// whose bucket also gained k rows from the WAL tail — it matches its
// committed row count yet holds different rows. Carrying it would
// commit the damaged file and drop the tail rows with the emptied logs.
func TestTruncatedColdSegmentRewritten(t *testing.T) {
	const k = 6
	// With no tail rows the bucket simply lost rows; with 2k it gained
	// more than it lost.
	for _, tailRows := range []int{0, k, 2 * k} {
		t.Run(fmt.Sprintf("tail=%d", tailRows), func(t *testing.T) { truncatedColdSegment(t, k, tailRows) })
	}
}

// truncatedColdSegment cuts k rows from a cold segment whose bucket also
// gets tailRows rows from the WAL tail, and checks one writable open.
func truncatedColdSegment(t *testing.T, k, tailRows int) {
	const days, perDay = 4, 40
	dir := t.TempDir()
	opts := DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1, BucketDuration: 24 * time.Hour}
	var all []Observation
	d, _ := openDurable(t, dir, opts)
	for day := 0; day < days; day++ {
		batch := dayBatch(day, perDay)
		d.AddAll(batch)
		all = append(all, batch...)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// Late rows for day 1, a cold bucket, later in the day than any
	// committed row there.
	tail := dayBatch(1, perDay+tailRows)[perDay:]
	d.AddAll(tail)
	all = append(all, tail...)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	victimStart := bucketOf(bucketBase.Add(24*time.Hour), 86400)
	victim, dropped := cutColdRows(t, dir, victimStart, k)
	if victim.Rows != perDay {
		t.Fatalf("day 1 bucket: %+v", victim)
	}
	others := coldSegments(t, dir)
	delete(others, victim.Segments[0].Name)

	// The oracle: every row in admission order (sequence i+1 is all[i])
	// except the k cut ones.
	oracle := New()
	for i, o := range all {
		if !dropped[uint64(i+1)] {
			oracle.AddAll([]Observation{o})
		}
	}

	d2, rep := openDurable(t, dir, opts)
	if rep.SegmentRowsLost != k || rep.WALRows != tailRows {
		t.Fatalf("open over the cut segment: %+v", rep)
	}
	assertSegmentsKept(t, dir, others)
	man2, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range man2.Buckets {
		if b.Start == victimStart && b.Segments[0].Name == victim.Segments[0].Name {
			t.Fatal("the cut segment was carried forward instead of rewritten")
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	back, rep2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SegmentRowsLost != 0 || rep2.WALRows != 0 || back.Len() != days*perDay-k+tailRows {
		t.Fatalf("reopened %d rows: %+v", back.Len(), rep2)
	}
	if !bytes.Equal(jsonlBytes(t, back), jsonlBytes(t, oracle)) {
		t.Fatal("reopened dataset differs from the oracle")
	}
}

// cutColdRows cuts the last k rows out of the one gzipped segment of
// the cold bucket starting at start, leaving the manifest's row count as
// it was. It returns the bucket as committed and the cut rows' sequence
// numbers.
func cutColdRows(t *testing.T, dir string, start int64, k int) (bucketInfo, map[uint64]bool) {
	t.Helper()
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim bucketInfo
	for _, b := range man.Buckets {
		if b.Start == start {
			victim = b
		}
	}
	if !victim.Compressed || len(victim.Segments) != 1 {
		t.Fatalf("bucket %d is not one gzipped segment: %+v", start, victim)
	}
	path := filepath.Join(dir, victim.Segments[0].Name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty split after the last newline
	dropped := make(map[uint64]bool)
	for _, line := range lines[len(lines)-k:] {
		var row segRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		dropped[row.Seq] = true
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(bytes.Join(lines[:len(lines)-k], nil))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return victim, dropped
}

// TestWidthChangeRewritesEveryBucket pins why a checkpoint carries
// nothing across a bucket-width change. Widening 24h to 48h merges day
// 1 (which lost k rows to a cut) with day 2 (k rows): the merged bucket
// starts where day 1 did and holds day 1's committed row count, all
// below the committed sequence counter, in the same cold state — yet
// carrying day 1's segment would lose day 2.
func TestWidthChangeRewritesEveryBucket(t *testing.T) {
	const perDay, k = 40, 5
	dir := t.TempDir()
	opts := DurableOptions{Fsync: FsyncNever, CompactWALBytes: -1, BucketDuration: 24 * time.Hour}
	// Day 1 starts on a 48h boundary (bucketBase itself does not).
	day1 := bucketOf(bucketBase.Add(24*time.Hour), 2*86400)
	if day1 != bucketOf(bucketBase.Add(24*time.Hour), 86400) {
		t.Fatal("fixture: day 1 must start a 48h bucket")
	}
	var all []Observation
	d, _ := openDurable(t, dir, opts)
	for day, n := range []int{perDay, perDay, k, perDay, perDay} {
		batch := dayBatch(day, n)
		d.AddAll(batch)
		all = append(all, batch...)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, dropped := cutColdRows(t, dir, day1, k)
	oracle := New()
	for i, o := range all {
		if !dropped[uint64(i+1)] {
			oracle.AddAll([]Observation{o})
		}
	}

	opts.BucketDuration = 48 * time.Hour
	d2, rep := openDurable(t, dir, opts)
	if rep.SegmentRowsLost != k {
		t.Fatalf("open over the cut segment: %+v", rep)
	}
	gen := d2.Stats().Generation
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range man.Buckets {
		for _, seg := range b.Segments {
			if !strings.HasPrefix(seg.Name, fmt.Sprintf("seg-%08d-", gen)) {
				t.Fatalf("segment %s carried across the width change (generation %d)", seg.Name, gen)
			}
		}
	}
	back, rep2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SegmentRowsLost != 0 || !bytes.Equal(jsonlBytes(t, back), jsonlBytes(t, oracle)) {
		t.Fatalf("dataset after the width change differs from the oracle (%d rows, %+v)", back.Len(), rep2)
	}
}
