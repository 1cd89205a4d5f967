package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// recoverDirSerial is the serial recovery recoverDir replaced, kept as
// the oracle of TestRecoverMatchesSerial: one intern table, segments
// then logs decoded in order on the calling goroutine, every ref pushed
// into one refRuns, and one global merge placing each row with
// serialAdd.
func recoverDirSerial(dir string, width int64) (*Store, *manifest, RecoveryReport, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, nil, RecoveryReport{}, err
	}
	rep := RecoveryReport{
		Generation:    man.Generation,
		PrunedBuckets: man.Pruned.Buckets,
		PrunedRows:    man.Pruned.Rows,
	}
	if width <= 0 {
		width = man.BucketSeconds
	}
	strs := make(map[string]string)

	rows := make([]segRow, 0, man.Rows)
	for _, b := range man.Buckets {
		rep.SnapshotBuckets++
		if b.Compressed {
			rep.CompressedBuckets++
		}
		for _, info := range b.Segments {
			lost, err := loadSegment(dir, info, &rows, strs)
			if err != nil {
				return nil, nil, rep, err
			}
			rep.SegmentRowsLost += lost
			rep.SnapshotRows += info.Rows - lost
		}
	}
	rr := refRuns{refs: make([]seqRef, 0, len(rows))}
	for i := range rows {
		rr.push(rows[i].Seq, &rows[i].Obs)
	}

	for shard := 0; shard < numShards; shard++ {
		data, err := os.ReadFile(filepath.Join(dir, walFile(man.Generation, shard)))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, nil, rep, fmt.Errorf("store: read wal: %w", err)
		}
		recs, discarded := replayWAL(data, strs)
		rep.WALBytesDiscarded += discarded
		rep.WALRecords += len(recs)
		for _, rec := range recs {
			for i, seq := range rec.Seqs {
				if seq > man.MaxSeq {
					rr.push(seq, &rec.Obs[i])
					rep.WALRows++
				}
			}
		}
	}
	rr.cut()

	mem := newBucketed(width)
	var last uint64
	rr.merge(func(r seqRef) bool {
		switch {
		case r.seq != last:
			mem.serialAdd(*r.obs, r.seq)
			last = r.seq
		case r.seq > man.MaxSeq:
			rep.WALRows--
		default:
			rep.SnapshotRows--
		}
		return true
	})
	mem.seq.Store(max(man.MaxSeq, last))
	mem.applied.Store(mem.seq.Load())
	return mem, man, rep, nil
}

// serialAdd appends one row under an explicit sequence number, growing
// each list by append: the placement recoverDirSerial used.
func (s *Store) serialAdd(o Observation, seq uint64) {
	sh := &s.shards[shardIdx(o.Domain)]
	sh.add(o, seq, bucketOf(o.Time, s.bucketSecs))
	maxUnixUpdate(&s.maxUnix, o.Time.Unix())
}
