// End-to-end durability through the public facade: a World recording
// into a durable backend must run the paper's campaigns unchanged, and
// the resulting data directory must reopen — after a clean close AND
// after a simulated crash — with the exact dataset live readers saw.
package sheriff_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"sheriff"
)

// durableWorld builds a small world on a durable store in a temp dir.
func durableWorld(t *testing.T, seed int64) (*sheriff.World, *sheriff.DurableStore, string) {
	t.Helper()
	dir := t.TempDir()
	d, rep, err := sheriff.OpenDataDir(dir, sheriff.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows() != 0 {
		t.Fatalf("fresh dir recovered %d rows", rep.Rows())
	}
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: seed, LongTail: 6, Store: d})
	return w, d, dir
}

func TestWorldOnDurableBackend(t *testing.T) {
	w, d, dir := durableWorld(t, 21)
	if _, err := w.RunCrowd(sheriff.CrowdOptions{Users: 12, Requests: 30, Span: 4 * 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	domains := []string{"www.digitalrev.com", "www.energie.it"}
	if err := w.EnsureAnchors(domains); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunCrawl(sheriff.CrawlOptions{Domains: domains, MaxProducts: 4, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	if w.Store.Len() == 0 {
		t.Fatal("campaigns recorded nothing")
	}
	var live bytes.Buffer
	if err := w.Store.WriteJSONL(&live); err != nil {
		t.Fatal(err)
	}

	// Crash first (no Close): the WAL alone must reproduce the dataset.
	crashed, rep, err := sheriff.OpenDataDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows() != w.Store.Len() || crashed.Len() != w.Store.Len() {
		t.Fatalf("crash recovery: %d rows (report %d), want %d", crashed.Len(), rep.Rows(), w.Store.Len())
	}
	var recovered bytes.Buffer
	if err := crashed.WriteJSONL(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
		t.Fatal("recovered dataset diverged from the live store")
	}

	// Then close cleanly and reopen writable: same dataset, and the
	// figures pipeline runs on the recovered backend via the Reader
	// surface exactly as it does on a memory store.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, rep2, err := sheriff.OpenDataDir(dir, sheriff.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rep2.Rows() != crashed.Len() {
		t.Fatalf("clean reopen recovered %d rows, want %d", rep2.Rows(), crashed.Len())
	}
	w2 := sheriff.NewWorld(sheriff.WorldOptions{Seed: 21, LongTail: 6, Store: d2})
	if len(w2.Fig3()) == 0 {
		t.Fatal("figures empty on recovered backend")
	}
}

func TestAPIStatsReportsDurability(t *testing.T) {
	w, d, _ := durableWorld(t, 33)
	srv := httptest.NewServer(sheriff.NewAPI(w))
	defer srv.Close()
	defer d.Close()

	if _, err := w.RunCrowd(sheriff.CrowdOptions{Users: 5, Requests: 8, Span: 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Observations int `json:"observations"`
		Durable      *struct {
			Fsync     string `json:"fsync"`
			SyncedSeq uint64 `json:"synced_seq"`
		} `json:"durable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Durable == nil {
		t.Fatal("stats missing the durable block on a durable backend")
	}
	if stats.Durable.Fsync != "always" {
		t.Fatalf("fsync = %q", stats.Durable.Fsync)
	}
	// Always-mode: everything stored is already durable at quiesce.
	if got := stats.Durable.SyncedSeq; got != uint64(stats.Observations) {
		t.Fatalf("synced_seq = %d, observations = %d", got, stats.Observations)
	}

	// A memory-backed world must NOT report a durable block.
	wm := sheriff.NewWorld(sheriff.WorldOptions{Seed: 33, LongTail: 6})
	srvm := httptest.NewServer(sheriff.NewAPI(wm))
	defer srvm.Close()
	respm, err := srvm.Client().Get(srvm.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer respm.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(respm.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["durable"]; ok {
		t.Fatal("memory backend reported a durable block")
	}
}
