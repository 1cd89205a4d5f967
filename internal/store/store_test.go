package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func obs(domain, sku, vp string, units int64, round int, src string, ok bool) Observation {
	return Observation{
		Domain: domain, SKU: sku, URL: "http://" + domain + "/product/" + sku,
		VP: vp, VPLabel: vp, Country: "US", City: "Boston",
		PriceUnits: units, Currency: "USD",
		Time:  time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, round),
		Round: round, Source: src, OK: ok,
	}
}

func TestAddFilterAndLen(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		s := newBackend(t)
		s.AddAll([]Observation{obs("a.com", "A-1", "us-bos", 100, 0, SourceCrawl, true)})
		s.AddAll([]Observation{obs("a.com", "A-1", "fi-tam", 120, 0, SourceCrawl, true)})
		s.AddAll([]Observation{obs("a.com", "A-2", "us-bos", 200, 1, SourceCrawl, false)})
		s.AddAll([]Observation{obs("b.com", "B-1", "us-bos", 300, -1, SourceCrowd, true)})

		if s.Len() != 4 || s.LenOK() != 3 {
			t.Fatalf("Len=%d LenOK=%d", s.Len(), s.LenOK())
		}
		if got := len(s.Filter(Query{Domain: "a.com", Round: -1})); got != 3 {
			t.Fatalf("domain filter = %d", got)
		}
		if got := len(s.Filter(Query{Domain: "a.com", Round: 0})); got != 2 {
			t.Fatalf("round filter = %d", got)
		}
		if got := len(s.Filter(Query{Source: SourceCrowd, Round: -1})); got != 1 {
			t.Fatalf("source filter = %d", got)
		}
		if got := len(s.Filter(Query{OnlyOK: true, Round: -1})); got != 3 {
			t.Fatalf("ok filter = %d", got)
		}
		if got := len(s.Filter(Query{VP: "fi-tam", Round: -1})); got != 1 {
			t.Fatalf("vp filter = %d", got)
		}
		if got := len(s.Filter(Query{SKU: "A-2", Round: -1})); got != 1 {
			t.Fatalf("sku filter = %d", got)
		}
	})
}

func TestDomainsAndProducts(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		s := newBackend(t)
		s.AddAll([]Observation{obs("b.com", "B-2", "x", 1, -1, SourceCrawl, true)})
		s.AddAll([]Observation{obs("a.com", "A-1", "x", 1, -1, SourceCrawl, true)})
		s.AddAll([]Observation{obs("b.com", "B-1", "x", 1, -1, SourceCrawl, true)})
		s.AddAll([]Observation{obs("b.com", "B-1", "y", 2, -1, SourceCrawl, true)})

		if got := s.Domains(); len(got) != 2 || got[0] != "a.com" || got[1] != "b.com" {
			t.Fatalf("Domains = %v", got)
		}
		ps := s.Products("b.com")
		if len(ps) != 2 || ps[0].SKU != "B-1" || ps[1].SKU != "B-2" {
			t.Fatalf("Products = %v", ps)
		}
	})
}

// groupMap collects Groups into a map keyed by product.
func groupMap(r Reader, source string) map[Key][]Observation {
	out := make(map[Key][]Observation)
	for k, g := range r.Groups(source) {
		out[k] = g
	}
	return out
}

func TestGroupByProduct(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		s := newBackend(t)
		for round := 0; round < 3; round++ {
			s.AddAll([]Observation{obs("a.com", "A-1", "us-bos", 100, round, SourceCrawl, true)})
			s.AddAll([]Observation{obs("a.com", "A-1", "fi-tam", 130, round, SourceCrawl, true)})
		}
		s.AddAll([]Observation{obs("a.com", "A-1", "user", 99, -1, SourceCrowd, true)})
		g := groupMap(s, SourceCrawl)[Key{Domain: "a.com", SKU: "A-1"}]
		if len(g) != 6 {
			t.Fatalf("group size = %d, want 6 (crowd obs excluded)", len(g))
		}
	})
}

func TestAmountReconstruction(t *testing.T) {
	o := obs("a.com", "A-1", "x", 12345, -1, SourceCrawl, true)
	a, ok := o.Amount()
	if !ok || a.Units != 12345 || a.Currency.Code != "USD" {
		t.Fatalf("Amount = %v %v", a, ok)
	}
	o.Currency = "XXX"
	if _, ok := o.Amount(); ok {
		t.Fatal("unknown currency reconstructed")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		s := newBackend(t)
		for i := 0; i < 50; i++ {
			o := obs("a.com", fmt.Sprintf("A-%d", i), "us-bos", int64(100+i), i%7, SourceCrawl, i%5 != 0)
			if i%5 == 0 {
				o.Err = "extract: no price found"
			}
			s.AddAll([]Observation{o})
		}
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != s.Len() || back.LenOK() != s.LenOK() {
			t.Fatalf("round trip: Len %d->%d OK %d->%d", s.Len(), back.Len(), s.LenOK(), back.LenOK())
		}
		a, b := s.Filter(Query{Round: -1}), back.Filter(Query{Round: -1})
		for i := range a {
			if !a[i].Time.Equal(b[i].Time) {
				t.Fatalf("time drift at %d", i)
			}
			a[i].Time, b[i].Time = time.Time{}, time.Time{}
			if a[i] != b[i] {
				t.Fatalf("observation %d mismatch:\n%+v\n%+v", i, a[i], b[i])
			}
		}
	})
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{not json}\n")); err == nil {
		t.Fatal("bad JSONL accepted")
	}
	s, err := ReadJSONL(bytes.NewBuffer(nil))
	if err != nil || s.Len() != 0 {
		t.Fatal("empty input should give empty store")
	}
}

func TestConcurrentAdd(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		s := newBackend(t)
		var wg sync.WaitGroup
		for i := 0; i < 20; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					s.AddAll([]Observation{obs("c.com", fmt.Sprintf("C-%d-%d", i, j), "x", 1, -1, SourceCrawl, true)})
				}
			}(i)
		}
		wg.Wait()
		if s.Len() != 1000 {
			t.Fatalf("Len = %d", s.Len())
		}
		// Twenty writers on one shard apply their reservations out of
		// order; every index list must still read back in sequence order.
		switch st := s.(type) {
		case *Store:
			assertIndexesSorted(t, st)
		case *Durable:
			assertIndexesSorted(t, st.mem.Load())
		}
		for _, q := range []Query{{Round: -1}, {Domain: "c.com", Round: -1}, {Source: SourceCrawl, Round: -1}} {
			n, prev := 0, uint64(0)
			for seq := range s.ScanRange(q, 0, s.Watermark()) {
				if seq <= prev {
					t.Fatalf("%+v: seq %d after %d", q, seq, prev)
				}
				n, prev = n+1, seq
			}
			if n != 1000 {
				t.Fatalf("%+v: %d rows, want 1000", q, n)
			}
		}
	})
}
