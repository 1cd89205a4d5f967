// Seeded-world equivalence tests for the sharded observation store: the
// indexed query paths must return exactly what the seed's linear scans
// returned on a dataset produced by real campaigns, and the JSONL a world
// writes must survive reload byte for byte.
package sheriff_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"sheriff"
	"sheriff/internal/store"
)

// worldDataset runs a reduced crowd+crawl campaign and returns its world.
func worldDataset(t *testing.T) *sheriff.World {
	t.Helper()
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 12, LongTail: 8})
	if _, err := w.RunCrowd(sheriff.CrowdOptions{Users: 15, Requests: 40, Span: 4 * 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := w.EnsureAnchors(w.Crawled[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunCrawl(sheriff.CrawlOptions{Domains: w.Crawled[:4], MaxProducts: 5, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorldIndexedQueriesMatchLinearScans compares every indexed query
// against a straightforward linear scan over All() on a campaign dataset.
func TestWorldIndexedQueriesMatchLinearScans(t *testing.T) {
	w := worldDataset(t)
	st := w.Store
	all := st.Filter(store.Query{Round: -1})
	if len(all) == 0 {
		t.Fatal("empty campaign dataset")
	}

	// LenOK vs linear count.
	okN := 0
	for _, o := range all {
		if o.OK {
			okN++
		}
	}
	if st.LenOK() != okN {
		t.Fatalf("LenOK = %d, linear scan says %d", st.LenOK(), okN)
	}

	// Domains vs linear set.
	domSet := map[string]bool{}
	for _, o := range all {
		domSet[o.Domain] = true
	}
	wantDoms := make([]string, 0, len(domSet))
	for d := range domSet {
		wantDoms = append(wantDoms, d)
	}
	sort.Strings(wantDoms)
	if got := st.Domains(); !reflect.DeepEqual(got, wantDoms) {
		t.Fatalf("Domains diverged: %d vs %d entries", len(got), len(wantDoms))
	}

	// Filter vs linear scan, across the shapes the analysis layer uses.
	queries := []sheriff.Query{
		{Source: store.SourceCrowd, Round: -1},
		{Source: store.SourceCrawl, Round: -1, OnlyOK: true},
		{Source: store.SourceCrawl, Round: 1},
		{Domain: w.Crawled[0], Round: -1},
		{Domain: w.Crawled[1], Round: 0, OnlyOK: true},
		{VP: "fi-tam", Round: -1},
	}
	for _, q := range queries {
		var want []sheriff.Observation
		for _, o := range all {
			if (q.Domain == "" || o.Domain == q.Domain) &&
				(q.SKU == "" || o.SKU == q.SKU) &&
				(q.Source == "" || o.Source == q.Source) &&
				(q.VP == "" || o.VP == q.VP) &&
				(q.Round < 0 || o.Round == q.Round) &&
				(!q.OnlyOK || o.OK) {
				want = append(want, o)
			}
		}
		if got := st.Filter(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("Filter(%+v) diverged: %d vs %d rows", q, len(got), len(want))
		}
	}

	// Groups vs linear grouping.
	for _, src := range []string{store.SourceCrowd, store.SourceCrawl} {
		want := map[sheriff.ProductKey][]sheriff.Observation{}
		for _, o := range all {
			if o.Source != src {
				continue
			}
			k := sheriff.ProductKey{Domain: o.Domain, SKU: o.SKU}
			want[k] = append(want[k], o)
		}
		got := map[sheriff.ProductKey][]sheriff.Observation{}
		for k, g := range st.Groups(src) {
			got[k] = g
		}
		if len(got) != len(want) {
			t.Fatalf("Groups(%s): %d keys, want %d", src, len(got), len(want))
		}
		for k, g := range want {
			if !reflect.DeepEqual(got[k], g) {
				t.Fatalf("Groups(%s) key %v diverged", src, k)
			}
		}
	}

	// Products vs linear per-domain SKU sets.
	for _, d := range w.Crawled[:4] {
		skuSet := map[string]bool{}
		for _, o := range all {
			if o.Domain == d {
				skuSet[o.SKU] = true
			}
		}
		if got := st.Products(d); len(got) != len(skuSet) {
			t.Fatalf("Products(%s) = %d, want %d", d, len(got), len(skuSet))
		}
	}
}

// TestWorldJSONLStableUnderReload asserts that a campaign dataset writes,
// reloads and re-writes byte-identically, and that the analysis pipeline
// computes identical figures from the reloaded store — the paper's
// collection/analysis separation.
func TestWorldJSONLStableUnderReload(t *testing.T) {
	w := worldDataset(t)

	var first bytes.Buffer
	if err := w.Store.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	back, err := sheriff.ReadDataset(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("reload not byte-identical: %d vs %d bytes", first.Len(), second.Len())
	}
	if back.Len() != w.Store.Len() || back.LenOK() != w.Store.LenOK() {
		t.Fatalf("reload counts: Len %d->%d OK %d->%d",
			w.Store.Len(), back.Len(), w.Store.LenOK(), back.LenOK())
	}

	// Crowd observations must carry the originating user's country.
	crowdTotal, _ := back.LenSource(store.SourceCrowd)
	if crowdTotal == 0 {
		t.Fatal("no crowd observations in dataset")
	}
	for o := range back.Scan(sheriff.Query{Source: store.SourceCrowd, Round: -1}) {
		if o.UserCountry == "" {
			t.Fatalf("crowd observation missing user country: %+v", o)
		}
	}
}
