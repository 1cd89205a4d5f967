// Differential proof of WAL-shipping replication: across every
// scenario-matrix world, a follower that caught up over the real HTTP
// replication stream must answer the v1 read surface BYTE-IDENTICAL to
// its primary — observations (paginated JSON and the NDJSON stream), the
// per-domain report, and the full analysis event history. Equivalence is
// the contract: a follower is the primary's reads, just elsewhere.
package sheriff_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sheriff"
)

// clusterPair is one primary world + its caught-up follower, both served
// over real HTTP.
type clusterPair struct {
	primary, follower *httptest.Server
	w, fw             *sheriff.World
	fol               *sheriff.Follower
}

// newClusterPair crawls one scenario world on the primary, then brings a
// follower (same seed, same configs, empty store) up to date over the
// replication stream.
func newClusterPair(t *testing.T, cfg sheriff.ShopConfig) *clusterPair {
	t.Helper()
	opts := sheriff.WorldOptions{
		Seed:    5,
		Configs: []sheriff.ShopConfig{cfg},
	}
	w := sheriff.NewWorld(opts)
	if err := w.EnsureAnchors(w.Crawled); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunCrawl(sheriff.CrawlOptions{MaxProducts: 8, Rounds: 7}); err != nil {
		t.Fatal(err)
	}
	return follow(t, w, opts)
}

// follow serves w as the primary and brings a follower world built from
// the same options (over an empty store) up to date over the replication
// stream.
func follow(t *testing.T, w *sheriff.World, opts sheriff.WorldOptions) *clusterPair {
	t.Helper()
	discard := log.New(io.Discard, "", 0)
	primary := httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{Logger: discard}))
	t.Cleanup(primary.Close)

	// The follower world must exist before the catch-up so its analysis
	// engine observes every applied batch — that fold, batch for batch,
	// is what makes the event history identical.
	fst := sheriff.NewStore()
	opts.Store = fst
	fw := sheriff.NewWorld(opts)
	fol := sheriff.NewFollower(primary.URL, fst, sheriff.FollowerOptions{})
	if err := fol.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower := httptest.NewServer(sheriff.NewAPIWithOptions(fw, sheriff.APIOptions{
		Logger:   discard,
		Follower: fol,
	}))
	t.Cleanup(follower.Close)
	return &clusterPair{primary: primary, follower: follower, w: w, fw: fw, fol: fol}
}

// get fetches one URL and returns the body.
func get(t *testing.T, url, accept string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, resp.StatusCode, body)
	}
	return body
}

// assertSameBody fetches the same path from both nodes and demands
// byte-identical answers.
func assertSameBody(t *testing.T, p *clusterPair, path, accept, label string) {
	t.Helper()
	pb := get(t, p.primary.URL+path, accept)
	fb := get(t, p.follower.URL+path, accept)
	if !bytes.Equal(pb, fb) {
		t.Errorf("%s: follower diverged on %s\n primary  %.300s\n follower %.300s", label, path, pb, fb)
	}
}

func TestReplicationByteIdenticalScenarioMatrix(t *testing.T) {
	cfgs := sheriff.ScenarioConfigs(5)
	if len(cfgs) == 0 {
		t.Fatal("no scenario configs")
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.Label, func(t *testing.T) {
			t.Parallel()
			p := newClusterPair(t, cfg)

			if pw, fw := p.w.Store.Watermark(), p.fw.Store.Watermark(); pw != fw || pw == 0 {
				t.Fatalf("watermarks: primary %d, follower %d", pw, fw)
			}

			// The full dataset, both read paths: page through the
			// paginated JSON (cursors included — they encode the same
			// sequence positions) and stream the NDJSON export.
			path := "/api/v1/observations?limit=100"
			for page := 0; ; page++ {
				pb := get(t, p.primary.URL+path, "")
				fb := get(t, p.follower.URL+path, "")
				if !bytes.Equal(pb, fb) {
					t.Fatalf("page %d diverged\n primary  %.300s\n follower %.300s", page, pb, fb)
				}
				var out struct {
					NextCursor string `json:"next_cursor"`
				}
				if err := json.Unmarshal(pb, &out); err != nil {
					t.Fatal(err)
				}
				if out.NextCursor == "" {
					break
				}
				path = "/api/v1/observations?limit=100&cursor=" + out.NextCursor
			}
			assertSameBody(t, p, "/api/v1/observations", "application/x-ndjson", "ndjson")

			// The analysis surface: per-domain report and the complete
			// event history, sequence numbers and simulated times included.
			assertSameBody(t, p, "/api/v1/domains/"+cfg.Domain+"/report", "", "report")
			assertSameBody(t, p, "/api/v1/events", "", "events")

			// And the follower knows what it is.
			var stats sheriff.APIStats
			if err := json.Unmarshal(get(t, p.follower.URL+"/api/v1/stats", ""), &stats); err != nil {
				t.Fatal(err)
			}
			r := stats.Replication
			if r == nil || r.Role != "follower" || r.LastApplied != p.w.Store.Watermark() || r.Lag != 0 {
				t.Fatalf("follower stats replication = %+v", r)
			}
		})
	}
}

// TestReplicationEventsUnderConcurrentLoad: concurrent crowd users write
// the primary in interleaved batches, and the primary folds them in
// sequence order inside each writer's turn — so a follower folding the
// same log in replicated chunks ends with a byte-identical event
// history, not merely the same event count.
func TestReplicationEventsUnderConcurrentLoad(t *testing.T) {
	opts := sheriff.WorldOptions{Seed: 3, LongTail: 6}
	w := sheriff.NewWorld(opts)
	if _, err := w.RunLoad(sheriff.LoadOptions{Users: 8, Requests: 160, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	if w.Analysis.Events().Len() == 0 {
		t.Fatal("crowd load emitted no events to compare")
	}
	p := follow(t, w, opts)
	assertSameBody(t, p, "/api/v1/events", "", "events")
	assertSameBody(t, p, "/api/v1/observations", "application/x-ndjson", "ndjson")
}

// TestReplicationLiveTail drives the serving mode end to end: a follower
// running against a live primary applies new writes as they land, without
// reconnecting between batches.
func TestReplicationLiveTail(t *testing.T) {
	discard := log.New(io.Discard, "", 0)
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6})
	primary := httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{Logger: discard}))
	defer primary.Close()

	fst := sheriff.NewStore()
	fol := sheriff.NewFollower(primary.URL, fst, sheriff.FollowerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()

	var batch []sheriff.Observation
	for i := 0; i < 3; i++ {
		batch = batch[:0]
		for j := 0; j < 5; j++ {
			batch = append(batch, sheriff.Observation{
				Domain: "tail.example.com", SKU: "SKU", Round: -1, Currency: "USD",
			})
		}
		w.Store.AddAll(batch)
		want := w.Store.Watermark()
		waitFor(t, func() bool { return fst.Watermark() == want })
	}
	if fst.Len() != w.Store.Len() {
		t.Fatalf("follower tailed %d rows, want %d", fst.Len(), w.Store.Len())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// waitFor polls cond until true or the test deadline budget (5s) runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
