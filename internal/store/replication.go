package store

// Replication ships the write-ahead log over HTTP: a primary streams its
// rows in sequence order — the same CRC-framed records the durable log
// uses, cut into Chunks — and a follower applies them into its own
// memory engine under the primary's sequence numbers. Derived state is a
// function of the sequence-ordered log under any cut that keeps crawl
// product-rounds whole (see SameProductRound), so a caught-up follower
// is byte-identical to its primary whatever the primary's batching was.
//
// The wire unit is a WALFrame: the walRecord framing from wal.go (uint32
// length + CRC-32C + JSON payload) with the sender's applied watermark
// riding along for lag accounting. An empty frame carrying only the
// watermark is a heartbeat. Resume is by sequence number — a follower
// reconnects with ?after=<last applied seq> and the primary replays
// every row above it — so a follower may die and restart at any point
// without coordination.

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
)

// HTTP surface of the replication stream.
const (
	// ReplicationContentType marks a WAL frame stream body.
	ReplicationContentType = "application/x-sheriff-wal"
	// ReplicationEpochHeader carries the primary's replication epoch; a
	// follower pins the first value it sees and refuses a primary whose
	// epoch changed (a replaced or reset data directory).
	ReplicationEpochHeader = "X-Sheriff-Replication-Epoch"
	// ReplicationWatermarkHeader carries the primary's applied watermark
	// at response time, before any frame arrives.
	ReplicationWatermarkHeader = "X-Sheriff-Watermark"
)

// ErrTornFrame marks a replication frame that ends (or breaks) before
// completing — a cut connection mid-frame, not corruption to die over;
// the follower reconnects and resumes from its last applied sequence.
var ErrTornFrame = errors.New("store: torn replication frame")

// WALFrame is one replication stream unit: a chunk of rows with their
// original sequence numbers, plus the sender's applied watermark. A
// frame with no rows is a heartbeat (watermark only).
type WALFrame struct {
	Seqs      []uint64
	Obs       []Observation
	Watermark uint64
}

// EncodeWALFrame appends the frame onto buf in the WAL record framing
// and returns the extended slice.
func EncodeWALFrame(buf []byte, f WALFrame) ([]byte, error) {
	return appendFramed(buf, walRecord{Seqs: f.Seqs, Obs: f.Obs, W: f.Watermark})
}

// WALFrameReader decodes a stream of WAL frames from r.
type WALFrameReader struct {
	r   io.Reader
	hdr [FrameHeaderSize]byte
	buf []byte
}

// NewWALFrameReader returns a reader decoding frames from r.
func NewWALFrameReader(r io.Reader) *WALFrameReader {
	return &WALFrameReader{r: r}
}

// Next reads one frame. It returns io.EOF on a clean end of stream
// (between frames) and ErrTornFrame on any defect — a short or broken
// frame cannot be resynchronized past, so the caller must drop the
// connection and resume by sequence number.
func (fr *WALFrameReader) Next() (WALFrame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return WALFrame{}, io.EOF
		}
		return WALFrame{}, fmt.Errorf("%w: short header: %v", ErrTornFrame, err)
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if n > maxWALRecord {
		return WALFrame{}, fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", ErrTornFrame, n, maxWALRecord)
	}
	need := FrameHeaderSize + int(n)
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	frame := fr.buf[:need]
	copy(frame, fr.hdr[:])
	if _, err := io.ReadFull(fr.r, frame[FrameHeaderSize:]); err != nil {
		return WALFrame{}, fmt.Errorf("%w: short payload: %v", ErrTornFrame, err)
	}
	rec, _, err := parseWALRecord(frame, nil)
	if err != nil {
		return WALFrame{}, fmt.Errorf("%w: bad frame", ErrTornFrame)
	}
	return WALFrame{Seqs: rec.Seqs, Obs: rec.Obs, Watermark: rec.W}, nil
}

// NewReplicationEpoch mints a random nonzero epoch.
func NewReplicationEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("store: replication epoch: %v", err))
		}
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
}

// ApplyAt appends a replicated batch under the primary's sequence
// numbers: seqs must be strictly increasing and entirely above this
// store's current sequence counter (gaps are fine — retention on the
// primary leaves holes). It is the follower-side counterpart of AddAll
// and applies through the same path: rows become visible, the observer
// (the incremental analysis fold) runs, and only then does the watermark
// move to the batch's last sequence. A store has exactly one applier —
// ApplyAt must not run concurrently with itself or with AddAll.
func (s *Store) ApplyAt(seqs []uint64, obs []Observation) error {
	if len(seqs) == 0 {
		return nil
	}
	if len(seqs) != len(obs) {
		return fmt.Errorf("store: ApplyAt: %d seqs for %d observations", len(seqs), len(obs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return fmt.Errorf("store: ApplyAt: sequence numbers not strictly increasing (%d after %d)", seqs[i], seqs[i-1])
		}
	}
	// Reserve the batch's whole range: the counter jumps to the batch
	// end, and the batch applies in the turn after cur.
	last := seqs[len(seqs)-1]
	s.wmMu.Lock()
	cur := s.seq.Load()
	if seqs[0] <= cur {
		s.wmMu.Unlock()
		return fmt.Errorf("store: ApplyAt: sequence %d not above the applied counter %d", seqs[0], cur)
	}
	s.seq.Store(last)
	s.wmMu.Unlock()
	s.apply(obs, seqs, cur)
	return nil
}

// SameProductRound reports whether two adjacent rows belong to one crawl
// product-round: one crawled product's rows for one round, which the
// crawler appends as a single AddAll. The incremental analysis engine
// judges strategy verdicts only where a product-round ends, so any cut
// of the log that never separates two such rows yields the same events.
func SameProductRound(a, b *Observation) bool {
	return a.Source == SourceCrawl && b.Source == SourceCrawl &&
		a.Round == b.Round && a.SKU == b.SKU && a.Domain == b.Domain
}

// Chunks groups a sequence-ordered row stream (a ScanRange) into
// batches of at least readBatch rows — the last may be shorter — cut
// only between product-rounds, each with its rows' sequence numbers.
// Every yielded pair is a fresh slice the consumer may keep. Both the
// replication stream and the analysis rebuild fold through it; sequence
// holes retention left are simply absent, and a follower's ApplyAt jumps
// them.
func Chunks(rows iter.Seq2[uint64, Observation]) iter.Seq2[[]uint64, []Observation] {
	return func(yield func([]uint64, []Observation) bool) {
		var seqs []uint64
		var obs []Observation
		for seq, o := range rows {
			if n := len(obs); n >= readBatch && !SameProductRound(&obs[n-1], &o) {
				if !yield(seqs, obs) {
					return
				}
				// The next chunk is most likely as long as this one.
				seqs, obs = make([]uint64, 0, n), make([]Observation, 0, n)
			}
			seqs = append(seqs, seq)
			obs = append(obs, o)
		}
		if len(obs) > 0 {
			yield(seqs, obs)
		}
	}
}

// Epoch returns the directory's replication identity.
func (d *Durable) Epoch() uint64 { return d.epoch }
