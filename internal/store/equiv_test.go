package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// seedObservations builds a deterministic pseudo-campaign mixing crawl
// rounds, crowd checks, failures and odd currencies across enough domains
// to populate every shard.
func seedObservations(seed int64, n int) []Observation {
	rng := rand.New(rand.NewSource(seed))
	domains := make([]string, 37)
	for i := range domains {
		domains[i] = fmt.Sprintf("www.shop%02d.example", i)
	}
	sources := []string{SourceCrowd, SourceCrawl, SourceLogin, SourcePersona}
	vps := []string{"us-bos", "us-nyc", "fi-tam", "uk-lon", "de-ber", "br-sao"}
	currencies := []string{"USD", "EUR", "GBP", "BRL", "XXX", ""}
	base := time.Date(2013, 1, 10, 8, 0, 0, 0, time.UTC)

	out := make([]Observation, n)
	for i := range out {
		d := domains[rng.Intn(len(domains))]
		src := sources[rng.Intn(len(sources))]
		round := -1
		if src == SourceCrawl {
			round = rng.Intn(7)
		}
		o := Observation{
			Domain: d, SKU: fmt.Sprintf("P-%d", rng.Intn(50)),
			URL: "http://" + d + "/product/x",
			VP:  vps[rng.Intn(len(vps))], VPLabel: "label",
			Country: "US", City: "Boston",
			PriceUnits: int64(rng.Intn(100000)),
			Currency:   currencies[rng.Intn(len(currencies))],
			Time:       base.Add(time.Duration(rng.Intn(100*24)) * time.Hour),
			Round:      round, Source: src,
			OK: rng.Intn(10) != 0,
		}
		if !o.OK {
			o.Err = "extract: no price found"
			o.PriceUnits, o.Currency = 0, ""
		}
		if src == SourceCrowd {
			o.UserCountry = "FI"
		}
		out[i] = o
	}
	return out
}

// fillBoth feeds the same observation sequence to the engine under test
// and the linear oracle, mixing Add and AddAll call shapes.
func fillBoth(t *testing.T, st Backend, obs []Observation) *linearRef {
	t.Helper()
	ref := &linearRef{}
	i := 0
	for i < len(obs) {
		if i%3 == 0 {
			end := i + 14
			if end > len(obs) {
				end = len(obs)
			}
			st.AddAll(obs[i:end])
			ref.addAll(obs[i:end])
			i = end
		} else {
			st.AddAll([]Observation{obs[i]})
			ref.add(obs[i])
			i++
		}
	}
	return ref
}

// equivQueries is the query matrix the engines are compared under.
func equivQueries() []Query {
	qs := []Query{
		{Round: -1},
		{Round: 3},
		{Round: -1, OnlyOK: true},
		{Round: -1, Source: SourceCrawl},
		{Round: -1, Source: SourceCrowd, OnlyOK: true},
		{Round: -1, VP: "fi-tam"},
		{Round: -1, SKU: "P-7"},
		{Round: -1, Domain: "www.shop03.example"},
		{Round: 2, Domain: "www.shop03.example", OnlyOK: true},
		{Round: -1, Domain: "www.shop11.example", SKU: "P-4"},
		{Round: -1, Domain: "www.shop11.example", SKU: "P-4", Source: SourceCrawl},
		{Round: -1, Domain: "no.such.domain"},
		{Round: -1, Domain: "www.shop05.example", SKU: "no-such-sku"},
		{Round: -1, Domain: "www.shop05.example", Source: SourceLogin, VP: "us-bos"},
	}
	return qs
}

// TestEquivalenceWithLinearScan asserts both engines answer every query
// exactly as the seed's linear scan did on the same data.
func TestEquivalenceWithLinearScan(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		st := newBackend(t)
		ref := fillBoth(t, st, seedObservations(42, 5000))
		assertMatchesOracle(t, st, ref)
	})
}

// assertMatchesOracle runs the full query matrix of an engine against the
// linear oracle.
func assertMatchesOracle(t *testing.T, st Reader, ref *linearRef) {
	t.Helper()
	if st.Len() != len(ref.obs) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(ref.obs))
	}
	if st.LenOK() != ref.lenOK() {
		t.Fatalf("LenOK = %d, want %d", st.LenOK(), ref.lenOK())
	}
	for _, q := range equivQueries() {
		got, want := st.Filter(q), ref.filter(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Filter(%+v): %d rows, want %d (or order mismatch)", q, len(got), len(want))
		}
		// Scan must stream the identical sequence.
		var scanned []Observation
		for o := range st.Scan(q) {
			scanned = append(scanned, o)
		}
		if !reflect.DeepEqual(scanned, want) {
			t.Fatalf("Scan(%+v) diverged from linear scan", q)
		}
	}
	if got, want := st.Domains(), ref.domains(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Domains: %v want %v", got, want)
	}
	for _, d := range ref.domains() {
		if got, want := st.Products(d), ref.products(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("Products(%s): %v want %v", d, got, want)
		}
	}
	for _, src := range []string{"", SourceCrowd, SourceCrawl, SourceLogin, SourcePersona} {
		got, want := groupMap(st, src), ref.groupByProduct(src)
		if len(got) != len(want) {
			t.Fatalf("Groups(%q): %d keys, want %d", src, len(got), len(want))
		}
		for k, g := range want {
			if !reflect.DeepEqual(got[k], g) {
				t.Fatalf("Groups(%q) key %v diverged", src, k)
			}
		}
		total, okN := st.LenSource(src)
		if src != "" {
			wantRows := ref.filter(Query{Round: -1, Source: src})
			wantOK := 0
			for _, o := range wantRows {
				if o.OK {
					wantOK++
				}
			}
			if total != len(wantRows) || okN != wantOK {
				t.Fatalf("LenSource(%q) = (%d,%d), want (%d,%d)", src, total, okN, len(wantRows), wantOK)
			}
		}
	}
	for _, vp := range []string{"us-bos", "fi-tam", "no-such-vp"} {
		if got, want := st.LenVP(vp), len(ref.filter(Query{Round: -1, VP: vp})); got != want {
			t.Fatalf("LenVP(%s) = %d, want %d", vp, got, want)
		}
	}
	// DomainGroups must equal the domain's slice of the full grouping.
	for _, d := range []string{"www.shop03.example", "www.shop11.example", "no.such.domain"} {
		for _, src := range []string{"", SourceCrawl} {
			want := map[Key][]Observation{}
			for k, g := range ref.groupByProduct(src) {
				if k.Domain == d {
					want[k] = g
				}
			}
			got := map[Key][]Observation{}
			for k, g := range st.DomainGroups(d, src) {
				got[k] = g
			}
			if len(got) != len(want) {
				t.Fatalf("DomainGroups(%s,%q): %d keys, want %d", d, src, len(got), len(want))
			}
			for k, g := range want {
				if !reflect.DeepEqual(got[k], g) {
					t.Fatalf("DomainGroups(%s,%q) key %v diverged", d, src, k)
				}
			}
		}
	}
}

// TestJSONLByteIdentical asserts both engines serialize to exactly the
// bytes the seed's single-slice engine produced for the same sequence of
// adds — the dataset format is unchanged, memory or durable.
func TestJSONLByteIdentical(t *testing.T) {
	runBackends(t, func(t *testing.T, newBackend newBackendFunc) {
		st := newBackend(t)
		ref := fillBoth(t, st, seedObservations(7, 3000))

		var got, want bytes.Buffer
		if err := st.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if err := ref.writeJSONL(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("JSONL bytes diverged: %d vs %d bytes", got.Len(), want.Len())
		}

		// Round trip: load the dataset back and re-serialize; the bytes must
		// survive unchanged (failed extractions and odd currencies included).
		back, err := ReadJSONL(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.WriteJSONL(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatal("JSONL round trip not byte-identical")
		}
	})
}

// TestJSONLPreservesFailuresAndUnknownCurrencies pins the edge cases a
// lossy index rebuild would drop: failed extractions keep their error
// text, unknown currencies survive verbatim, and the new user-country
// field round-trips (and is omitted when empty).
func TestJSONLPreservesFailuresAndUnknownCurrencies(t *testing.T) {
	runBackends(t, testJSONLPreservesEdgeRows)
}

func testJSONLPreservesEdgeRows(t *testing.T, newBackend newBackendFunc) {
	st := newBackend(t)
	fail := Observation{
		Domain: "a.com", SKU: "A-1", VP: "us-bos",
		Time:  time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC),
		Round: 2, Source: SourceCrawl,
		OK: false, Err: "extract: currency mismatch: page shows CZK",
	}
	weird := Observation{
		Domain: "a.com", SKU: "A-2", VP: "fi-tam",
		PriceUnits: 999, Currency: "ZZZ",
		Time:  time.Date(2013, 2, 2, 0, 0, 0, 0, time.UTC),
		Round: -1, Source: SourceCrowd, UserCountry: "BR", OK: true,
	}
	st.AddAll([]Observation{fail, weird})

	var buf bytes.Buffer
	if err := st.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"user_country"`)) != true {
		t.Fatal("user_country not serialized for crowd row")
	}
	if bytes.Count(buf.Bytes(), []byte(`"user_country"`)) != 1 {
		t.Fatal("user_country must be omitted when empty")
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	all := back.Filter(Query{Round: -1})
	if len(all) != 2 {
		t.Fatalf("round trip rows = %d", len(all))
	}
	if got := all[0]; !got.Time.Equal(fail.Time) || got.Err != fail.Err || got.OK {
		t.Fatalf("failure row mangled: %+v", got)
	}
	if got := all[1]; got.Currency != "ZZZ" || got.UserCountry != "BR" {
		t.Fatalf("unknown-currency row mangled: %+v", got)
	}
	if _, ok := all[1].Amount(); ok {
		t.Fatal("unknown currency must not reconstruct an amount")
	}
	if back.LenOK() != 1 {
		t.Fatalf("LenOK = %d", back.LenOK())
	}
}
