package store

import (
	"fmt"
	"slices"
)

// Every ordered read — ScanRange, WriteJSONL, the segment writer and
// recovery — is one shape: gather refs as seq-sorted runs (under the
// shard locks, from seq-sorted index lists; or, in recovery, one
// refRuns per shard from loaded segment and log rows, cut wherever the
// sequence falls); then k-way merge the runs by sequence number. No
// read path sorts rows.

// seqRef is one row picked for an ordered read: its sequence number and
// a pointer into its group's storage (or, in recovery, into the rows
// loaded from disk). The pointer is taken under the shard lock and
// addresses an element that is never mutated, so it stays valid once
// the lock is released — unlike gref.obs, which re-reads the group's
// live slice header.
type seqRef struct {
	seq uint64
	obs *Observation
}

// refRuns gathers seq-sorted runs of refs into one buffer for merge.
type refRuns struct {
	refs []seqRef
	// ends holds each run's end offset in refs.
	ends []int
}

// push appends one ref, first cutting the open run when seq does not
// extend it — so refs pushed in any order still form seq-sorted runs.
func (rr *refRuns) push(seq uint64, o *Observation) {
	if n := len(rr.refs); n > 0 && seq <= rr.refs[n-1].seq {
		rr.cut()
	}
	rr.refs = append(rr.refs, seqRef{seq: seq, obs: o})
}

// cut closes the run appended since the previous cut, if it is non-empty.
func (rr *refRuns) cut() {
	start := 0
	if n := len(rr.ends); n > 0 {
		start = rr.ends[n-1]
	}
	if len(rr.refs) > start {
		rr.ends = append(rr.ends, len(rr.refs))
	}
}

// appendWindow appends, as one run, the refs of a seq-sorted index list
// whose sequence numbers fall in (after, upto] and that match q: two
// binary searches bound the window, and only the window is walked.
// Caller holds the list's shard lock.
func (rr *refRuns) appendWindow(list []gref, q *Query, after, upto uint64) {
	list = list[searchSeq(list, after):]
	list = list[:searchSeq(list, upto)]
	rr.refs = slices.Grow(rr.refs, len(list))
	for _, r := range list {
		if o := r.obs(); q.match(o) {
			rr.refs = append(rr.refs, seqRef{seq: r.seq(), obs: o})
		}
	}
	rr.cut()
}

// merge feeds every gathered ref to emit in global sequence order — a
// k-way merge over a min-heap of runs keyed by their head sequence
// number — until emit returns false. Runs may share a sequence number
// (rows read from disk can repeat one); tied rows are all emitted, in
// no particular order. The top run emits every row up to the
// next-smallest head before the heap is touched again, so a run of
// consecutive sequences (a batch on one shard) costs one sift, a single
// run none, and every pass emits at least one row.
func (rr *refRuns) merge(emit func(seqRef) bool) {
	h := make([][]seqRef, 0, len(rr.ends))
	start := 0
	for _, end := range rr.ends {
		h = append(h, rr.refs[start:end])
		start = end
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		run := h[0]
		next := ^uint64(0)
		for _, c := range h[1:min(3, len(h))] {
			next = min(next, c[0].seq)
		}
		i := 0
		for ; i < len(run) && run[i].seq <= next; i++ {
			if !emit(run[i]) {
				return
			}
		}
		if i < len(run) {
			h[0] = run[i:]
		} else {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
		}
		siftDown(h, 0)
	}
}

// siftDown restores the min-heap order (by head sequence number) of the
// runs below position i.
func siftDown(h [][]seqRef, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l][0].seq < h[least][0].seq {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r][0].seq < h[least][0].seq {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// dumpOrdered feeds every row of the index lists pick selects, one per
// shard, to emit in global sequence order with its sequence number — the
// shared core of WriteJSONL and the segment writer (dumpBucket). The refs are gathered under every shard's read lock
// at once, so the dump is one globally consistent snapshot; the locks
// are released before the first emit, so emit may call into the store.
func (s *Store) dumpOrdered(pick func(*shard) []gref, emit func(uint64, *Observation) error) error {
	rr := s.snapshotRuns(pick)
	var err error
	n := 0
	rr.merge(func(r seqRef) bool {
		if err = emit(r.seq, r.obs); err != nil {
			err = fmt.Errorf("store: encode observation %d: %w", n, err)
			return false
		}
		n++
		return true
	})
	return err
}

// snapshotRuns gathers every shard's picked list as one run, holding all
// shard read locks together.
func (s *Store) snapshotRuns(pick func(*shard) []gref) refRuns {
	for si := range s.shards {
		s.shards[si].mu.RLock()
		defer s.shards[si].mu.RUnlock()
	}
	n := 0
	for si := range s.shards {
		n += len(pick(&s.shards[si]))
	}
	rr := refRuns{refs: make([]seqRef, 0, n), ends: make([]int, 0, numShards)}
	all := Query{Round: -1}
	for si := range s.shards {
		rr.appendWindow(pick(&s.shards[si]), &all, 0, ^uint64(0))
	}
	return rr
}
