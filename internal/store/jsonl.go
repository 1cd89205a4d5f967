package store

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"sort"
)

// WriteJSONL streams the store as JSON Lines in insertion order: the
// per-shard order lists are merged by sequence number with a k-way heap,
// emitting bytes identical to what the historical single-slice engine
// produced for the same sequence of adds. Like that engine, writing
// holds the store's read locks for the duration of the dump, so the
// snapshot is globally consistent.
func (s *Store) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	err := s.dumpOrdered(func(_ uint64, o *Observation) error {
		line, err := AppendJSONL(bw.AvailableBuffer(), o)
		if err != nil {
			return err
		}
		_, err = bw.Write(line)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// dumpOrdered holds every shard's read lock and feeds each observation
// (with its sequence number) to emit in global sequence order — the
// shared core of WriteJSONL, the retention rebuild and the durable
// engine's snapshot writer. The callback must not call back into the
// store (every lock is held).
func (s *Store) dumpOrdered(emit func(uint64, *Observation) error) error {
	for si := range s.shards {
		s.shards[si].mu.RLock()
		defer s.shards[si].mu.RUnlock()
	}
	var lists [][]gref
	for si := range s.shards {
		if order := orderedBySeq(s.shards[si].order); len(order) > 0 {
			lists = append(lists, order)
		}
	}
	return mergeEmit(lists, emit)
}

// mergeEmit k-way merges seq-ordered gref lists and feeds each row to
// emit in global sequence order. Callers hold the shard locks covering
// every list.
func mergeEmit(lists [][]gref, emit func(uint64, *Observation) error) error {
	h := make(shardHeap, 0, len(lists))
	for _, order := range lists {
		h = append(h, shardCursor{order: order, seq: order[0].seq()})
	}
	heap.Init(&h)

	for n := 0; h.Len() > 0; n++ {
		cur := h[0]
		if err := emit(cur.seq, cur.order[cur.pos].obs()); err != nil {
			return fmt.Errorf("store: encode observation %d: %w", n, err)
		}
		if next := cur.pos + 1; next < len(cur.order) {
			h[0] = shardCursor{order: cur.order, pos: next, seq: cur.order[next].seq()}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// orderedBySeq returns the shard's order list in ascending sequence
// order, which the k-way merge requires. Append order already is
// sequence order for serial writers; only concurrent AddAll batches that
// reserve sequence blocks before taking the shard lock can interleave
// out of order, and then a sorted copy restores the contract that every
// read path — queries and serialization alike — yields sequence order.
func orderedBySeq(order []gref) []gref {
	for i := 1; i < len(order); i++ {
		if order[i-1].seq() > order[i].seq() {
			sorted := append([]gref(nil), order...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a].seq() < sorted[b].seq() })
			return sorted
		}
	}
	return order
}

// shardCursor is one shard's read position during the k-way merge.
type shardCursor struct {
	order []gref
	pos   int
	seq   uint64
}

// shardHeap is a min-heap of cursors ordered by next sequence number.
type shardHeap []shardCursor

func (h shardHeap) Len() int           { return len(h) }
func (h shardHeap) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h shardHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *shardHeap) Push(x any)        { *h = append(*h, x.(shardCursor)) }
func (h *shardHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// readBatch is the AddAll chunk size for JSONL loads: large enough to
// amortize sequence reservation and shard locking, small enough to keep
// peak decode memory flat.
const readBatch = 1024

// ReadJSONL loads a store previously written with WriteJSONL, batching
// decoded observations into the shards. Round-tripping a dataset through
// ReadJSONL and WriteJSONL reproduces it byte for byte. A row that does
// not decode fails the load, naming the 1-based line it starts on.
func ReadJSONL(r io.Reader) (*Store, error) {
	s := New()
	in := newJSONStream(r, make(map[string]string))
	batch := make([]Observation, 0, readBatch)
	var o Observation
	for {
		err := in.next(func(d *decoder) error {
			o = Observation{}
			return d.observation(&o)
		})
		if err != nil {
			if err == io.EOF {
				s.AddAll(batch)
				return s, nil
			}
			return nil, fmt.Errorf("store: decode line %d: %w", in.line(), err)
		}
		batch = append(batch, o)
		if len(batch) == readBatch {
			s.AddAll(batch)
			batch = batch[:0]
		}
	}
}
