package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// pump replicates primary's rows in (last, watermark] into follower
// through the public Chunks/ApplyAt pair and returns the new cursor —
// the in-process skeleton of what the HTTP stream does.
func pump(t *testing.T, primary Reader, follower *Store, last uint64) uint64 {
	t.Helper()
	upto := primary.Watermark()
	applyChunks(t, primary, follower, last, upto)
	return upto
}

// applyChunks applies primary's rows in (after, upto] to follower chunk
// by chunk and returns the chunk end sequences.
func applyChunks(t *testing.T, primary Reader, follower *Store, after, upto uint64) []uint64 {
	t.Helper()
	var ends []uint64
	for seqs, obs := range Chunks(primary.ScanRange(Query{Round: -1}, after, upto)) {
		if err := follower.ApplyAt(seqs, obs); err != nil {
			t.Fatalf("ApplyAt: %v", err)
		}
		ends = append(ends, seqs[len(seqs)-1])
	}
	return ends
}

// addVariedBatches feeds obs to the store in deterministic, varied batch
// sizes (including single-row batches) and returns the batch sizes used.
func addVariedBatches(b Backend, obs []Observation, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var sizes []int
	for i := 0; i < len(obs); {
		n := 1 + rng.Intn(40)
		if i+n > len(obs) {
			n = len(obs) - i
		}
		b.AddAll(obs[i : i+n])
		sizes = append(sizes, n)
		i += n
	}
	return sizes
}

// addProductRounds appends about n rows the way campaigns write them:
// whole crawl product-rounds (up to 14 vantage points of one product in
// one round, one AddAll each) mixed with single crowd rows, spread over
// 30 simulated days so retention has buckets to prune.
func addProductRounds(b Backend, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2013, 1, 10, 8, 0, 0, 0, time.UTC)
	for rows := 0; rows < n; {
		day := rng.Intn(30)
		o := Observation{
			Domain: fmt.Sprintf("www.shop%02d.example", rng.Intn(9)),
			SKU:    fmt.Sprintf("P-%d", rng.Intn(12)),
			Time:   base.Add(time.Duration(day) * 24 * time.Hour),
			Round:  -1, Source: SourceCrowd,
			PriceUnits: int64(1000 + rng.Intn(500)), Currency: "USD", OK: true,
		}
		if rng.Intn(4) == 0 {
			o.VP = "user"
			b.AddAll([]Observation{o})
			rows++
			continue
		}
		o.Source, o.Round = SourceCrawl, day
		batch := make([]Observation, 1+rng.Intn(14))
		for i := range batch {
			batch[i] = o
			batch[i].VP = fmt.Sprintf("vp-%02d", i)
		}
		b.AddAll(batch)
		rows += len(batch)
	}
}

func TestChunksKeepProductRoundsWhole(t *testing.T) {
	primary := New()
	addProductRounds(primary, 5, 6000)

	var chunks [][]Observation
	var seqs []uint64
	for cs, obs := range Chunks(primary.ScanRange(Query{Round: -1}, 0, primary.Watermark())) {
		if len(cs) != len(obs) {
			t.Fatalf("chunk carries %d seqs for %d rows", len(cs), len(obs))
		}
		chunks = append(chunks, obs)
		seqs = append(seqs, cs...)
	}
	if len(chunks) < 4 {
		t.Fatalf("%d chunks; the test needs several", len(chunks))
	}
	for i, c := range chunks {
		if i < len(chunks)-1 && len(c) < readBatch {
			t.Fatalf("chunk %d holds %d rows, below the %d-row floor", i, len(c), readBatch)
		}
		if i > 0 && SameProductRound(&chunks[i-1][len(chunks[i-1])-1], &c[0]) {
			t.Fatalf("chunk %d starts inside the product-round chunk %d ends", i, i-1)
		}
	}
	// Every row once, in sequence order — and the kept chunks are fresh
	// slices: nothing later overwrote them.
	var all []Observation
	for _, c := range chunks {
		all = append(all, c...)
	}
	if want := primary.Filter(Query{Round: -1}); !reflect.DeepEqual(all, want) {
		t.Fatalf("chunks carry %d rows that differ from the %d-row scan", len(all), len(want))
	}
	if want := scanSeqs(primary); !reflect.DeepEqual(seqs, want) {
		t.Fatal("chunk sequences differ from the scan's")
	}
}

func TestChunksResumesMidStream(t *testing.T) {
	primary := New()
	addProductRounds(primary, 11, 5000)
	wm := primary.Watermark()
	ends := applyChunks(t, primary, New(), 0, wm)
	if len(ends) < 4 {
		t.Fatalf("%d chunks; the test needs several", len(ends))
	}
	// A follower cut at any chunk end resumes with the identical tail:
	// the same chunks, nothing at or below the cursor, the same rows.
	for i, cut := range ends[:len(ends)-1] {
		follower := New()
		applyChunks(t, primary, follower, 0, cut)
		resumed := applyChunks(t, primary, follower, cut, wm)
		if !reflect.DeepEqual(resumed, ends[i+1:]) {
			t.Fatalf("resumed at %d: chunk ends %v, want %v", cut, resumed, ends[i+1:])
		}
		if got := follower.Watermark(); got != wm {
			t.Fatalf("resumed follower watermark = %d, want %d", got, wm)
		}
		if !bytes.Equal(jsonlBytes(t, follower), jsonlBytes(t, primary)) {
			t.Fatalf("follower resumed at %d differs from the primary", cut)
		}
	}
}

func TestApplyAtReplicatesByteIdentical(t *testing.T) {
	primary := New()
	follower := New()
	obs := seedObservations(3, 1200)

	// Replicate incrementally, pumping every few admitted batches so the
	// stream is exercised mid-flight, not only once at the end.
	var cursor uint64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < len(obs); {
		n := 1 + rng.Intn(60)
		if i+n > len(obs) {
			n = len(obs) - i
		}
		primary.AddAll(obs[i : i+n])
		i += n
		if rng.Intn(3) == 0 {
			cursor = pump(t, primary, follower, cursor)
		}
	}
	cursor = pump(t, primary, follower, cursor)

	if got, want := follower.Watermark(), primary.Watermark(); got != want {
		t.Fatalf("follower watermark = %d, want %d", got, want)
	}
	if cursor != primary.Watermark() {
		t.Fatalf("cursor = %d, want %d", cursor, primary.Watermark())
	}
	if !bytes.Equal(jsonlBytes(t, follower), jsonlBytes(t, primary)) {
		t.Fatal("caught-up follower JSONL differs from the primary")
	}
	if got, want := follower.LenOK(), primary.LenOK(); got != want {
		t.Fatalf("follower LenOK = %d, want %d", got, want)
	}
	// The follower must itself be a valid replication source (chained
	// followers stream from it with the same frames).
	second := New()
	pump(t, follower, second, 0)
	if !bytes.Equal(jsonlBytes(t, second), jsonlBytes(t, primary)) {
		t.Fatal("chained follower JSONL differs from the primary")
	}
}

func TestApplyAtRejectsBadSequences(t *testing.T) {
	s := New()
	s.AddAll(seedObservations(5, 10))
	o := seedObservations(6, 3)

	if err := s.ApplyAt([]uint64{5, 6, 7}, o); err == nil {
		t.Fatal("ApplyAt accepted sequences at or below the counter")
	}
	if err := s.ApplyAt([]uint64{11, 13, 12}, o); err == nil {
		t.Fatal("ApplyAt accepted non-increasing sequences")
	}
	if err := s.ApplyAt([]uint64{11, 12}, o); err == nil {
		t.Fatal("ApplyAt accepted a seq/observation count mismatch")
	}
	if err := s.ApplyAt(nil, nil); err != nil {
		t.Fatalf("empty ApplyAt: %v", err)
	}
	// Gaps above the counter are legal (retention holes on the primary).
	if err := s.ApplyAt([]uint64{20, 30, 40}, o); err != nil {
		t.Fatalf("gapped ApplyAt: %v", err)
	}
	if got := s.Watermark(); got != 40 {
		t.Fatalf("watermark after gapped apply = %d, want 40", got)
	}
}

func TestWALFrameCodecRoundTrip(t *testing.T) {
	obs := seedObservations(9, 120)
	frames := []WALFrame{
		{Seqs: []uint64{1, 2, 3}, Obs: obs[:3], Watermark: 3},
		{Watermark: 3}, // heartbeat
		{Seqs: []uint64{4}, Obs: obs[3:4], Watermark: 90},
		{Seqs: seqRange(5, len(obs)-4), Obs: obs[4:], Watermark: uint64(len(obs))},
	}
	var buf []byte
	var err error
	for _, f := range frames {
		if buf, err = EncodeWALFrame(buf, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewWALFrameReader(bytes.NewReader(buf))
	for i, want := range frames {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Watermark != want.Watermark || len(got.Seqs) != len(want.Seqs) || len(got.Obs) != len(want.Obs) {
			t.Fatalf("frame %d: got %d seqs wm %d, want %d seqs wm %d",
				i, len(got.Seqs), got.Watermark, len(want.Seqs), want.Watermark)
		}
		for j := range got.Seqs {
			if got.Seqs[j] != want.Seqs[j] {
				t.Fatalf("frame %d seq %d: %d != %d", i, j, got.Seqs[j], want.Seqs[j])
			}
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func seqRange(start uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)
	}
	return out
}

func TestWALFrameReaderTornStream(t *testing.T) {
	full, err := EncodeWALFrame(nil, WALFrame{Seqs: []uint64{1, 2}, Obs: seedObservations(2, 2), Watermark: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, FrameHeaderSize - 1, FrameHeaderSize + 1, len(full) - 1} {
		fr := NewWALFrameReader(bytes.NewReader(full[:cut]))
		if _, err := fr.Next(); err == nil || err == io.EOF {
			t.Fatalf("cut at %d: err = %v, want a torn-frame error", cut, err)
		}
	}
	// A flipped payload byte must fail the checksum, not decode.
	corrupt := append([]byte(nil), full...)
	corrupt[FrameHeaderSize+2] ^= 0x40
	if _, err := NewWALFrameReader(bytes.NewReader(corrupt)).Next(); err == nil || err == io.EOF {
		t.Fatalf("corrupt payload: err = %v, want a torn-frame error", err)
	}
}

func TestRecoveryPreservesSequences(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	obs := seedObservations(13, 700)
	addVariedBatches(d, obs, 13)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	wantSeqs := scanSeqs(d)
	wantWM := d.Watermark()
	epoch := d.Epoch()
	if epoch == 0 {
		t.Fatal("durable store minted no replication epoch")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _ := openDurable(t, dir, DurableOptions{Fsync: FsyncNever})
	defer d2.Close()
	if got := d2.Epoch(); got != epoch {
		t.Fatalf("epoch changed across reopen: %d != %d", got, epoch)
	}
	if got := d2.Watermark(); got != wantWM {
		t.Fatalf("recovered watermark = %d, want %d", got, wantWM)
	}
	gotSeqs := scanSeqs(d2)
	if len(gotSeqs) != len(wantSeqs) {
		t.Fatalf("recovered %d rows, want %d", len(gotSeqs), len(wantSeqs))
	}
	for i := range gotSeqs {
		if gotSeqs[i] != wantSeqs[i] {
			t.Fatalf("row %d recovered under sequence %d, originally %d", i, gotSeqs[i], wantSeqs[i])
		}
	}
	// A follower that had caught up before the restart resumes cleanly:
	// nothing to replay, and new writes stream from the old cursor.
	follower := New()
	cursor := pump(t, d2, follower, 0)
	d2.AddAll(seedObservations(14, 50))
	pump(t, d2, follower, cursor)
	if got, want := follower.Len(), d2.Len(); got != want {
		t.Fatalf("follower has %d rows after post-restart writes, want %d", got, want)
	}
}

func scanSeqs(r Reader) []uint64 {
	var out []uint64
	for seq := range r.ScanRange(Query{Round: -1}, 0, ^uint64(0)) {
		out = append(out, seq)
	}
	return out
}

func TestChunksStreamAcrossRetentionHoles(t *testing.T) {
	// Retention leaves sequence holes: a store rebuilt without old
	// buckets still streams its surviving rows in chunks that run across
	// the holes, and a follower applies them.
	s := New()
	addProductRounds(s, 21, 6000)
	// Drop every other bucket, so holes fall inside chunks.
	victims := make(map[int64]struct{})
	active := s.activeBucket()
	for b := range s.bucketStats() {
		if b != active && (b/s.bucketSecs)%2 == 0 {
			victims[b] = struct{}{}
		}
	}
	if len(victims) == 0 {
		t.Fatal("test needs at least one prunable bucket")
	}
	pruned, _ := s.rebuildWithout(victims)

	follower := New()
	rows, chunks, holes := 0, 0, 0
	for seqs, o := range Chunks(pruned.ScanRange(Query{Round: -1}, 0, pruned.Watermark())) {
		rows += len(seqs)
		chunks++
		for i := 1; i < len(seqs); i++ {
			if seqs[i] != seqs[i-1]+1 {
				holes++
			}
		}
		if err := follower.ApplyAt(seqs, o); err != nil {
			t.Fatal(err)
		}
	}
	if chunks < 2 || holes == 0 {
		t.Fatalf("%d chunks spanning %d holes; the test needs several of each", chunks, holes)
	}
	if rows != pruned.Len() {
		t.Fatalf("streamed %d rows, pruned store holds %d", rows, pruned.Len())
	}
	if !bytes.Equal(jsonlBytes(t, follower), jsonlBytes(t, pruned)) {
		t.Fatal("follower of a pruned primary differs")
	}
}
