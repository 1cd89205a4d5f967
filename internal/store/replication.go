package store

// Replication ships the write-ahead log over HTTP: a primary streams its
// admitted batches — the same CRC-framed records the durable log uses,
// cut at the same batch boundaries — and a follower applies them into
// its own memory engine under the primary's sequence numbers. Keeping
// the original batching matters beyond efficiency: derived state that
// folds per batch (the incremental analysis engine's strategy events)
// is batching-dependent, so identical frames are what make a caught-up
// follower byte-identical to its primary.
//
// The wire unit is a WALFrame: the walRecord framing from wal.go (uint32
// length + CRC-32C + JSON payload) with the sender's applied watermark
// riding along for lag accounting. An empty frame carrying only the
// watermark is a heartbeat. Resume is by sequence number — a follower
// reconnects with ?after=<last applied seq> and the primary replays
// every batch above it — so a follower may die and restart at any point
// without coordination.

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"sort"
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

// WALFrame is one replication stream unit: an admitted batch with its
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
	hdr [walHeaderSize]byte
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
	need := walHeaderSize + int(n)
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	frame := fr.buf[:need]
	copy(frame, fr.hdr[:])
	if _, err := io.ReadFull(fr.r, frame[walHeaderSize:]); err != nil {
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
	s.batchEnds = append(s.batchEnds, last)
	s.wmMu.Unlock()
	s.apply(obs, seqs, cur)
	return nil
}

// batchScanWindow bounds how many sequence numbers one ScanBatches
// gather materializes at a time (it extends to cover a single oversized
// batch).
const batchScanWindow = 8192

// ScanBatches streams the store's admitted batches whose last sequence
// number falls in (after, upto], each with its rows' sequence numbers,
// in admission order — the replication source. Batch boundaries are the
// original AddAll cuts; rows retention has since pruned are simply
// absent (a fully pruned batch yields nothing), and the follower's
// ApplyAt jumps the hole. Pair upto with Watermark() so no in-flight
// batch can straddle the cut.
func (s *Store) ScanBatches(after, upto uint64) iter.Seq2[[]uint64, []Observation] {
	return func(yield func([]uint64, []Observation) bool) {
		if after >= upto {
			return
		}
		s.wmMu.Lock()
		lo := sort.Search(len(s.batchEnds), func(i int) bool { return s.batchEnds[i] > after })
		hi := sort.Search(len(s.batchEnds), func(i int) bool { return s.batchEnds[i] > upto })
		ends := append([]uint64(nil), s.batchEnds[lo:hi]...)
		s.wmMu.Unlock()

		start := after
		for i := 0; i < len(ends); {
			// One gather covers every batch ending within the window; a
			// batch bigger than the window gets a window of its own.
			winEnd := start + batchScanWindow
			j := i
			for j < len(ends) && ends[j] <= winEnd {
				j++
			}
			if j == i {
				j = i + 1
			}
			winEnd = ends[j-1]
			var seqs []uint64
			var obs []Observation
			for seq, o := range s.ScanRange(Query{Round: -1}, start, winEnd) {
				seqs = append(seqs, seq)
				obs = append(obs, o)
			}
			k := 0
			for _, end := range ends[i:j] {
				m := k
				for m < len(seqs) && seqs[m] <= end {
					m++
				}
				if m > k && !yield(seqs[k:m], obs[k:m]) {
					return
				}
				k = m
			}
			start, i = winEnd, j
		}
	}
}

// ScanBatches delegates to the memory engine (see Store.ScanBatches) —
// the durable primary serves the replication stream off its read path.
func (d *Durable) ScanBatches(after, upto uint64) iter.Seq2[[]uint64, []Observation] {
	return d.mem.Load().ScanBatches(after, upto)
}

// Epoch returns the directory's replication identity.
func (d *Durable) Epoch() uint64 { return d.epoch }
