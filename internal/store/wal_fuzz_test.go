package store

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzWALRecord throws arbitrary bytes at the WAL record decoder — the
// one parser in the system that is fed post-crash disk contents, so it
// must never panic, never over-read, and accept only frames it can later
// re-produce.
func FuzzWALRecord(f *testing.F) {
	// Seeds: a valid single-observation record, a valid two-shard batch
	// suffix, an empty record, classic tears.
	rec, err := appendWALRecord(nil, []uint64{1}, []Observation{{
		Domain: "seed.example", SKU: "S-1", VP: "us-bos", PriceUnits: 999,
		Currency: "USD", Time: time.Date(2013, 1, 10, 8, 0, 0, 0, time.UTC),
		Round: -1, Source: SourceCrowd, OK: true,
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(rec[:len(rec)-3])                   // torn payload
	f.Add(rec[:4])                            // torn header
	f.Add(append(rec, rec...))                // two records back to back
	f.Add(append(rec, 0xde, 0xad))            // record + garbage tail
	f.Add([]byte{})                           // empty log
	f.Add([]byte("{\"seqs\":[],\"obs\":[]}")) // unframed JSON

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, discarded := replayWAL(data, nil)
		if discarded < 0 || discarded > int64(len(data)) {
			t.Fatalf("discarded %d of %d bytes", discarded, len(data))
		}
		// Every accepted record must uphold the replay invariant the
		// recovery path relies on, and must re-encode into a frame the
		// decoder accepts again (the round-trip recovery performs when a
		// recovered store is checkpointed and later re-opened).
		for _, r := range recs {
			if len(r.Seqs) != len(r.Obs) {
				t.Fatalf("accepted record with %d seqs, %d obs", len(r.Seqs), len(r.Obs))
			}
			buf, err := appendWALRecord(nil, r.Seqs, r.Obs)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			back, rest, err := parseWALRecord(buf, nil)
			if err != nil || len(rest) != 0 {
				t.Fatalf("re-encoded record does not re-parse: %v (%d trailing)", err, len(rest))
			}
			if len(back.Seqs) != len(r.Seqs) {
				t.Fatalf("round trip changed record shape: %d -> %d seqs", len(r.Seqs), len(back.Seqs))
			}
		}
		// Re-encoding all accepted records and replaying must accept at
		// least as much as the first pass (a healed log loses nothing).
		var healed []byte
		for _, r := range recs {
			healed, _ = appendWALRecord(healed, r.Seqs, r.Obs)
		}
		again, discarded2 := replayWAL(healed, nil)
		if len(again) != len(recs) || discarded2 != 0 {
			t.Fatalf("healed log replayed %d records (%d torn bytes), want %d (0)",
				len(again), discarded2, len(recs))
		}
	})
}

// FuzzWALFrameReader checks the replication stream decoder against the
// recovery decoder: for any bytes, Next yields exactly the records
// replayWAL accepts, in order, then io.EOF when replayWAL discarded
// nothing and ErrTornFrame otherwise — and it never panics.
func FuzzWALFrameReader(f *testing.F) {
	rec, err := EncodeWALFrame(nil, WALFrame{Seqs: []uint64{1, 2}, Obs: seedObservations(2, 2), Watermark: 2})
	if err != nil {
		f.Fatal(err)
	}
	heartbeat, err := EncodeWALFrame(nil, WALFrame{Watermark: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(append(rec, heartbeat...))         // rows, then a heartbeat
	f.Add(rec[:len(rec)-3])                  // torn payload
	f.Add(rec[:FrameHeaderSize-1])           // torn header
	f.Add(append(heartbeat, 0xde, 0xad))     // frame + garbage tail
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0}) // absurd length
	f.Add([]byte{})                          // empty stream

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, discarded := replayWAL(data, nil)
		fr := NewWALFrameReader(bytes.NewReader(data))
		for i, r := range recs {
			got, err := fr.Next()
			if err != nil {
				t.Fatalf("frame %d: %v, want the record replay accepted", i, err)
			}
			if want := (WALFrame{Seqs: r.Seqs, Obs: r.Obs, Watermark: r.W}); !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, want)
			}
		}
		_, err := fr.Next()
		switch {
		case discarded == 0 && err != io.EOF:
			t.Fatalf("after %d intact frames: %v, want io.EOF", len(recs), err)
		case discarded > 0 && !errors.Is(err, ErrTornFrame):
			t.Fatalf("after %d intact frames and %d torn bytes: %v, want ErrTornFrame", len(recs), discarded, err)
		}
	})
}

// TestWALRecordRejectsOversizedFrame pins the allocation guard: a frame
// header promising an absurd payload must be treated as torn, not obeyed.
func TestWALRecordRejectsOversizedFrame(t *testing.T) {
	frame := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}
	if _, _, err := parseWALRecord(frame, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if recs, discarded := replayWAL(frame, nil); len(recs) != 0 || discarded != int64(len(frame)) {
		t.Fatalf("oversized frame not discarded whole: %d recs, %d bytes", len(recs), discarded)
	}
}

// TestWALRecordWriteLimitMatchesReadLimit pins that the append path
// refuses any frame the recovery path would reject: a record written and
// claimed durable but unreadable on replay is the worst of both worlds.
func TestWALRecordWriteLimitMatchesReadLimit(t *testing.T) {
	big := Observation{Domain: "x", SKU: strings.Repeat("s", maxWALRecord), Round: -1}
	if _, err := appendWALRecord(nil, []uint64{1}, []Observation{big}); err == nil {
		t.Fatal("oversized record accepted by the write path")
	}
}

// TestWALRecordChecksum pins that a flipped payload bit is caught.
func TestWALRecordChecksum(t *testing.T) {
	rec, err := appendWALRecord(nil, []uint64{7}, []Observation{{Domain: "x", SKU: "s", Round: -1}})
	if err != nil {
		t.Fatal(err)
	}
	rec[len(rec)-2] ^= 0x40
	if _, _, err := parseWALRecord(rec, nil); err == nil {
		t.Fatal("corrupt payload passed the checksum")
	}
	if !bytes.Contains([]byte(errTornRecord.Error()), []byte("torn")) {
		t.Fatal("sentinel lost its meaning")
	}
}
