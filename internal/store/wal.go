package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The write-ahead log is a sequence of framed records, one per AddAll
// batch per shard:
//
//	offset 0  uint32 LE  payload length
//	offset 4  uint32 LE  CRC-32C (Castagnoli) of the payload
//	offset 8  payload    JSON walRecord (codec.go)
//
// A record is the unit of atomicity: recovery replays complete records
// and discards everything from the first frame that is short, oversized,
// checksum-broken or undecodable — the torn tail a crash mid-write (or a
// lost page-cache flush) leaves behind. Torn tails are expected crash
// artifacts, not corruption errors; recovery reports how many bytes it
// discarded and carries on.

// walRecord is one logged batch: the observations of a single AddAll
// call that landed in one shard, with the global sequence numbers the
// memory engine assigned them. Sequences let recovery re-interleave
// concurrent batches across the per-shard logs in admission order.
type walRecord struct {
	Seqs []uint64      `json:"seqs"`
	Obs  []Observation `json:"obs"`
	// W is the sender's applied watermark at frame time — replication
	// streams use it for lag accounting and heartbeats (an empty record
	// with only W set). Durable logs never set it, so on-disk WAL bytes
	// are unchanged.
	W uint64 `json:"w,omitempty"`
}

// FrameHeaderSize is the framing overhead per record.
const FrameHeaderSize = 8

// maxWALRecord bounds a single record's payload. The largest real batch
// is a JSONL bulk load chunk (readBatch observations); 64 MiB is far
// above any legitimate record and small enough that a corrupt length
// field cannot make recovery attempt a giant allocation.
const maxWALRecord = 64 << 20

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// errTornRecord marks a frame that ends (or breaks) before completing —
// the signal to stop replaying a log and truncate mentally at this point.
var errTornRecord = errors.New("store: torn wal record")

// SealFrame writes the header of frame: FrameHeaderSize reserved bytes
// followed by the payload. The reader's frame limit is enforced here: a
// frame that NextFrame would reject as torn must never be written (and
// claimed durable) in the first place. The WAL, the replication stream
// and the tenant journal all frame their records through it.
func SealFrame(frame []byte) error {
	payload := frame[FrameHeaderSize:]
	if len(payload) > maxWALRecord {
		return fmt.Errorf("store: frame payload of %d bytes exceeds the %d-byte limit", len(payload), maxWALRecord)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRC))
	return nil
}

// NextFrame splits the first frame off b, returning its payload and the
// bytes that follow it. A short header, an absurd length, a short payload
// or a checksum mismatch is a torn frame: the frame boundary cannot be
// trusted past it, so the caller must stop there.
func NextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeaderSize {
		return nil, b, errTornRecord
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n > maxWALRecord || uint64(FrameHeaderSize)+uint64(n) > uint64(len(b)) {
		return nil, b, errTornRecord
	}
	payload = b[FrameHeaderSize : FrameHeaderSize+n]
	if crc32.Checksum(payload, walCRC) != sum {
		return nil, b, errTornRecord
	}
	return payload, b[FrameHeaderSize+n:], nil
}

// appendWALRecord frames a record onto buf and returns the extended
// slice.
func appendWALRecord(buf []byte, seqs []uint64, obs []Observation) ([]byte, error) {
	return appendFramed(buf, walRecord{Seqs: seqs, Obs: obs})
}

// appendFramed frames an arbitrary record — the shared encoder behind
// the durable log and the replication stream.
func appendFramed(buf []byte, rec walRecord) ([]byte, error) {
	var hdr [FrameHeaderSize]byte
	out, err := appendWALPayload(append(buf, hdr[:]...), &rec)
	if err != nil {
		return buf, fmt.Errorf("store: encode wal record: %w", err)
	}
	if err := SealFrame(out[len(buf):]); err != nil {
		return buf, err
	}
	return out, nil
}

// parseWALRecord decodes the first framed record of b, returning the
// record and the bytes that follow it. Any defect — a torn frame (see
// NextFrame), broken JSON, sequence count not matching the observation
// count — returns errTornRecord, and the caller must stop. Decoded
// strings are interned in strs when it is non-nil.
func parseWALRecord(b []byte, strs map[string]string) (rec walRecord, rest []byte, err error) {
	payload, rest, err := NextFrame(b)
	if err != nil {
		return walRecord{}, b, err
	}
	if err := unmarshal(payload, &rec, (*decoder).walRecord, strs); err != nil {
		return walRecord{}, b, errTornRecord
	}
	if len(rec.Seqs) != len(rec.Obs) {
		return walRecord{}, b, errTornRecord
	}
	return rec, rest, nil
}

// replayWAL parses every complete record of one shard's log and reports
// how many tail bytes were discarded as torn.
func replayWAL(data []byte, strs map[string]string) (recs []walRecord, discarded int64) {
	for len(data) > 0 {
		rec, rest, err := parseWALRecord(data, strs)
		if err != nil {
			return recs, int64(len(data))
		}
		recs = append(recs, rec)
		data = rest
	}
	return recs, 0
}
