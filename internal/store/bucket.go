package store

// Time buckets partition the dataset for the storage lifecycle: durable
// segments are keyed by (time bucket, generation), retention prunes
// whole buckets, and time-bounded queries push their range predicate
// down to bucket selection instead of scanning every row. A bucket is
// the half-open interval [start, start+width) in simulated observation
// time — the paper's campaigns run on the world clock, so retention and
// slicing follow that clock, never the wall clock of the host.

import (
	"runtime"
	"sync/atomic"
	"time"

	"sheriff/internal/par"
)

// DefaultBucketSeconds is the default bucket width: one simulated day.
// The crawler advances one round per day and the crowd harness steps its
// clock a day per round barrier, so daily buckets line up with campaign
// structure.
const DefaultBucketSeconds = 24 * 60 * 60

// bucketOf maps an observation time to its bucket start (unix seconds,
// floor division so pre-epoch times bucket correctly).
func bucketOf(t time.Time, secs int64) int64 {
	u := t.Unix()
	b := u / secs
	if u%secs < 0 {
		b--
	}
	return b * secs
}

// ScanStats counts time-range pushdown decisions: how many bucket
// partitions a time-bounded scan visited versus skipped outright. The
// unit is one (shard, bucket) partition per scan — a skipped partition
// is data a cold segment would have held that the query never touched,
// which is what makes pushdown assertable from /api/v1/stats. Unbounded
// scans bump neither counter.
type ScanStats struct {
	// SegmentsScanned counts partitions a time-bounded scan walked.
	SegmentsScanned uint64 `json:"segments_scanned"`
	// SegmentsSkipped counts partitions whose bucket fell entirely
	// outside the query's time range.
	SegmentsSkipped uint64 `json:"segments_skipped"`
}

// ScanStats snapshots the pushdown counters.
func (s *Store) ScanStats() ScanStats {
	return ScanStats{
		SegmentsScanned: s.segScanned.Load(),
		SegmentsSkipped: s.segSkipped.Load(),
	}
}

// BucketSeconds reports the store's bucket width.
func (s *Store) BucketSeconds() int64 { return s.bucketSecs }

// maxUnixUpdate lifts the newest-observation clock to u.
func maxUnixUpdate(a *atomic.Int64, u int64) {
	for {
		cur := a.Load()
		if cur >= u || a.CompareAndSwap(cur, u) {
			return
		}
	}
}

// activeBucket is the newest bucket holding data — the one retention
// never prunes and compression never touches. On an empty store it is
// the bucket of maxUnix's sentinel, below every real one.
func (s *Store) activeBucket() int64 {
	return bucketOf(time.Unix(s.maxUnix.Load(), 0), s.bucketSecs)
}

// bucketStat is one bucket's row count and newest sequence number.
type bucketStat struct {
	rows   int
	maxSeq uint64
}

// bucketStats summarizes every bucket across the shards. Each shard's
// bucket list is seq-sorted, so its last ref is the shard's newest row.
func (s *Store) bucketStats() map[int64]bucketStat {
	stats := make(map[int64]bucketStat)
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for b, refs := range sh.byBucket {
			st := stats[b]
			st.rows += len(refs)
			st.maxSeq = max(st.maxSeq, refs[len(refs)-1].seq())
			stats[b] = st
		}
		sh.mu.RUnlock()
	}
	return stats
}

// dumpBucket feeds one bucket's observations to emit in global sequence
// order (a merge of the shards' seq-sorted bucket lists), with each
// row's sequence number — the segment writer's core.
func (s *Store) dumpBucket(start int64, emit func(uint64, *Observation) error) error {
	return s.dumpOrdered(func(sh *shard) []gref { return sh.byBucket[start] }, emit)
}

// rebuildWithout builds a fresh store holding every row except those in
// the dropped buckets, preserving each surviving row's original sequence
// number — live cursors keep meaning the same rows, holes in the
// sequence space are invisible to every read path. Each shard walks its
// own seq-sorted order list, skips the dropped buckets and fills its
// counterpart, in parallel (par.Do): a row stays in its shard. The
// sequence counter (as the watermark too), observer hook and scan
// counters carry over. The caller must exclude writers (the durable
// engine holds its write gate); concurrent readers of the old store are
// safe — it is never mutated.
func (s *Store) rebuildWithout(dropped map[int64]struct{}) (*Store, uint64) {
	ns := newBucketed(s.bucketSecs)
	var pruned [numShards]uint64
	par.Do(runtime.GOMAXPROCS(0), numShards, func() func(int) {
		return func(si int) {
			sh := &s.shards[si]
			sh.mu.RLock()
			refs := make([]seqRef, 0, len(sh.order))
			for _, r := range sh.order {
				o := r.obs()
				if _, drop := dropped[bucketOf(o.Time, s.bucketSecs)]; drop {
					pruned[si]++
					continue
				}
				refs = append(refs, seqRef{seq: r.seq(), obs: o})
			}
			sh.mu.RUnlock()
			maxUnixUpdate(&ns.maxUnix, ns.shards[si].fill(refs, s.bucketSecs))
		}
	})
	var prunedRows uint64
	for _, n := range pruned {
		prunedRows += n
	}
	ns.seq.Store(s.seq.Load())
	ns.applied.Store(s.seq.Load())
	ns.observer = s.observer
	ns.segScanned.Store(s.segScanned.Load())
	ns.segSkipped.Store(s.segSkipped.Load())
	return ns, prunedRows
}
