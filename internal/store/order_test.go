package store

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// seqModel is the linear oracle plus each row's sequence number: rows in
// sequence order, the order every read path must yield.
type seqModel struct {
	linearRef
	seqs []uint64
}

// put records a batch admitted under base (row i gets base+i+1). Call in
// base order.
func (m *seqModel) put(base uint64, batch []Observation) {
	for i, o := range batch {
		m.add(o)
		m.seqs = append(m.seqs, base+uint64(i)+1)
	}
}

// without is the model of rebuildWithout: the rows outside the dropped
// buckets, keeping their sequence numbers.
func (m *seqModel) without(dropped map[int64]struct{}, secs int64) *seqModel {
	out := &seqModel{}
	for i, o := range m.obs {
		if _, drop := dropped[bucketOf(o.Time, secs)]; !drop {
			out.add(o)
			out.seqs = append(out.seqs, m.seqs[i])
		}
	}
	return out
}

// window is ScanRange's oracle.
func (m *seqModel) window(q Query, after, upto uint64) (seqs []uint64, obs []Observation) {
	for i, o := range m.obs {
		if m.seqs[i] > after && m.seqs[i] <= upto && refKeep(q, o) {
			seqs = append(seqs, m.seqs[i])
			obs = append(obs, o)
		}
	}
	return seqs, obs
}

// assertIndexesSorted checks the invariant ordered reads rest on: every
// gref index list of every shard is strictly increasing in sequence.
func assertIndexesSorted(t *testing.T, s *Store) {
	t.Helper()
	for si := range s.shards {
		sh := &s.shards[si]
		check := func(name string, list []gref) {
			for i := 1; i < len(list); i++ {
				if a, b := list[i-1].seq(), list[i].seq(); a >= b {
					t.Fatalf("shard %d %s list: seq %d at %d precedes seq %d", si, name, a, i-1, b)
				}
			}
		}
		check("order", sh.order)
		for d, di := range sh.byDomain {
			check("domain "+d, di.order)
		}
		for src, list := range sh.bySource {
			check("source "+src, list)
		}
		for b, list := range sh.byBucket {
			check(fmt.Sprintf("bucket %d", b), list)
		}
	}
}

// assertWindowsMatch compares ScanRange over every (after, upto] pair,
// for every query, with the model.
func assertWindowsMatch(t *testing.T, s *Store, m *seqModel, qs []Query) {
	t.Helper()
	top := s.seq.Load() + 1
	for _, q := range qs {
		for after := uint64(0); after < top; after++ {
			for upto := after + 1; upto <= top; upto++ {
				var seqs []uint64
				var obs []Observation
				for seq, o := range s.ScanRange(q, after, upto) {
					seqs = append(seqs, seq)
					obs = append(obs, o)
				}
				wantSeqs, wantObs := m.window(q, after, upto)
				if !reflect.DeepEqual(seqs, wantSeqs) || !reflect.DeepEqual(obs, wantObs) {
					t.Fatalf("ScanRange(%+v, %d, %d): seqs %v, want %v", q, after, upto, seqs, wantSeqs)
				}
			}
		}
	}
}

// sameShardDomain returns a domain other than d that hashes to d's shard.
func sameShardDomain(t *testing.T, d string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		c := fmt.Sprintf("www.twin%03d.example", i)
		if shardIdx(c) == shardIdx(d) {
			return c
		}
	}
	t.Fatalf("no domain shares %s's shard", d)
	return ""
}

// TestConcurrentBatchesKeepSeqOrder reserves batches on one shard and
// applies them from concurrent goroutines started newest first — the
// interleaving in which a later-reserved batch reaches the shard first —
// and checks that the index lists stay seq-sorted and that every
// ordered read path (ScanRange windows of each query shape, Scan,
// WriteJSONL, and the same after a retention hole) yields sequence
// order.
func TestConcurrentBatchesKeepSeqOrder(t *testing.T) {
	s := New()
	m := &seqModel{}
	// concurrent reserves the batches in order, then applies them on one
	// goroutine each, the last-reserved started first.
	concurrent := func(batches ...[]Observation) {
		bases := make([]uint64, len(batches))
		for i, b := range batches {
			bases[i] = s.reserve(len(b))
		}
		var wg sync.WaitGroup
		for i := len(batches) - 1; i >= 0; i-- {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.apply(batches[i], nil, bases[i])
			}(i)
		}
		wg.Wait()
		for i, b := range batches {
			m.put(bases[i], b)
		}
	}

	const d = "www.shop03.example"
	twin := sameShardDomain(t, d)
	day := time.Date(2013, 2, 5, 9, 0, 0, 0, time.UTC)
	// mk builds a batch sharing domain, source and time bucket, so
	// concurrent batches contend for the tail of all four index lists.
	mk := func(domain, source string, skus ...string) []Observation {
		out := make([]Observation, len(skus))
		for i, sku := range skus {
			out[i] = Observation{
				Domain: domain, SKU: sku, URL: "http://" + domain + "/product/" + sku,
				VP: fmt.Sprintf("vp-%d", i%3), PriceUnits: int64(100 + i), Currency: "USD",
				Time: day.Add(time.Duration(i) * time.Minute), Round: -1, Source: source, OK: i%4 != 3,
			}
		}
		return out
	}

	obs := seedObservations(7, 24)
	concurrent(obs[:8])
	concurrent(mk(d, SourceCrowd, "P-1", "P-2", "P-1", "P-3"), mk(d, SourceCrowd, "P-1", "P-2", "P-4"))
	concurrent(obs[8:16])
	concurrent(mk(d, SourceCrawl, "P-2", "P-1"), mk(twin, SourceCrawl, "P-9", "P-9", "P-8"))
	concurrent(mk(d, SourceCrowd, "P-1"), mk(d, SourceCrowd, "P-1", "P-2"), mk(d, SourceCrawl, "P-1"))
	concurrent(obs[16:])

	since := time.Date(2013, 1, 25, 12, 30, 0, 0, time.UTC)
	until := time.Date(2013, 3, 20, 6, 0, 0, 0, time.UTC)
	qs := []Query{
		{Round: -1},
		{Round: -1, OnlyOK: true, VP: "vp-1"},
		{Round: -1, Domain: d},
		{Round: -1, Source: SourceCrowd},
		{Round: -1, Domain: d, SKU: "P-1"},
		{Round: -1, Domain: d, SKU: "P-1", Source: SourceCrowd},
		{Round: -1, Since: since, Until: until},
		{Round: -1, Since: day},
	}

	assertIndexesSorted(t, s)
	assertWindowsMatch(t, s, m, qs)
	if got, want := s.Filter(Query{Round: -1}), m.filter(Query{Round: -1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan: %d rows, want %d in sequence order", len(got), len(want))
	}
	var got, want bytes.Buffer
	if err := s.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := m.writeJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteJSONL differs from the model's sequence-order bytes")
	}

	// A retention hole: drop two buckets of the serial rows.
	dropped := map[int64]struct{}{
		bucketOf(obs[3].Time, s.bucketSecs):  {},
		bucketOf(obs[18].Time, s.bucketSecs): {},
	}
	if _, hit := dropped[bucketOf(day, s.bucketSecs)]; hit {
		t.Fatal("retention hole would drop the concurrent batches")
	}
	ns, pruned := s.rebuildWithout(dropped)
	nm := m.without(dropped, s.bucketSecs)
	if want := uint64(len(m.obs) - len(nm.obs)); pruned != want || pruned == 0 {
		t.Fatalf("rebuildWithout pruned %d rows, want %d", pruned, want)
	}
	assertIndexesSorted(t, ns)
	assertWindowsMatch(t, ns, nm, qs)
}
