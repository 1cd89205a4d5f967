package store

import (
	"bufio"
	"fmt"
	"io"
)

// WriteJSONL streams the store as JSON Lines in insertion order: the
// per-shard order lists, already seq-sorted, are k-way merged by
// sequence number, emitting bytes identical to what the historical
// single-slice engine produced for the same sequence of adds. The rows
// are picked under all of the store's read locks at once, so the
// snapshot is globally consistent; encoding runs after they are
// released.
func (s *Store) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	err := s.dumpOrdered(shardOrder, func(_ uint64, o *Observation) error {
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

// shardOrder picks a shard's whole order list for dumpOrdered.
func shardOrder(sh *shard) []gref { return sh.order }

// readBatch is the AddAll chunk size for JSONL loads and the row floor
// of a Chunks batch: large enough to amortize sequence reservation,
// shard locking and frame overhead, small enough to keep peak memory
// flat.
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
