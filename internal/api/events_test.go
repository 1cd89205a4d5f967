// Handler-level tests of GET /api/v1/events: the JSON history page, the
// non-following NDJSON replay, the SSE framing with Last-Event-ID
// resumption, and the events epoch across a retention prune. The live-tail path is driven end to end by the SDK test in
// sheriff/client.
package api_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sheriff"
	"sheriff/internal/api"
	"sheriff/internal/store"
)

// eventsServer spins a world server with three known events appended on
// top of whatever the (empty) world starts with.
func eventsServer(t *testing.T) (*sheriff.World, *httptest.Server) {
	t.Helper()
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6})
	srv := httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{
		Logger: log.New(io.Discard, "", 0),
	}))
	t.Cleanup(srv.Close)
	log := w.Analysis.Events()
	log.Append(sheriff.Event{Type: sheriff.EventVariation, Domain: "a.example", SKU: "S1", Ratio: 1.2})
	log.Append(sheriff.Event{Type: sheriff.EventVariation, Domain: "b.example", SKU: "S2", Ratio: 1.4})
	log.Append(sheriff.Event{Type: sheriff.EventStrategy, Domain: "a.example", Family: "geo", Flagged: true, Affected: 3, Eligible: 4})
	return w, srv
}

func TestEventsHistoryPage(t *testing.T) {
	_, srv := eventsServer(t)
	var page sheriff.APIEventsPage
	resp, err := http.Get(srv.URL + "/api/v1/events?after=1&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Count != 1 || page.Events[0].Seq != 2 || page.LatestSeq != 3 {
		t.Fatalf("page = %+v", page)
	}

	// A bad cursor is the structured 400 envelope.
	resp, err = http.Get(srv.URL + "/api/v1/events?after=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor status = %d", resp.StatusCode)
	}
}

func TestEventsNDJSONReplayNoFollow(t *testing.T) {
	_, srv := eventsServer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/events?follow=false", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// follow=false terminates at the end of history — the body is finite.
	var seqs []uint64
	dec := json.NewDecoder(resp.Body)
	for {
		var e sheriff.Event
		if err := dec.Decode(&e); err != nil {
			break
		}
		seqs = append(seqs, e.Seq)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("replayed seqs = %v", seqs)
	}
}

func TestEventsSSEFramingAndResume(t *testing.T) {
	w, srv := eventsServer(t)
	// Seal the log so the SSE response terminates after the final drain;
	// appends before the seal are still replayed.
	w.Analysis.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var ids, types, datas []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			types = append(types, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			datas = append(datas, strings.TrimPrefix(line, "data: "))
		}
	}
	// Last-Event-ID: 2 resumes at seq 3 — exactly one frame.
	if len(ids) != 1 || ids[0] != "3" || types[0] != "strategy" {
		t.Fatalf("frames: ids=%v types=%v", ids, types)
	}
	var e sheriff.Event
	if err := json.Unmarshal([]byte(datas[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Domain != "a.example" || !e.Flagged {
		t.Fatalf("data frame = %+v", e)
	}
}

// varyingDay is one simulated day of crowd rows whose every product
// varies by 20% across two vantage points, so each product group fires
// a variation event.
func varyingDay(k int) []store.Observation {
	when := time.Date(2013, 2, 1+k, 12, 0, 0, 0, time.UTC)
	var out []store.Observation
	for p := 0; p < 4; p++ {
		for i, units := range []int64{1000, 1200} {
			out = append(out, store.Observation{
				Domain: "epoch.example", SKU: fmt.Sprintf("D%d-P%d", k, p),
				VP: fmt.Sprintf("vp-%d", i), Country: "US", PriceUnits: units, Currency: "USD",
				Time: when, Round: -1, Source: store.SourceCrowd, OK: true,
			})
		}
	}
	return out
}

// prunedServer serves a world over a durable store that keeps one day:
// day 0 is written, then a tail is opened by the caller, then prune()
// writes days 1-2 and checkpoints, which prunes day 0.
func prunedServer(t *testing.T) (w *sheriff.World, srv *httptest.Server, prune func()) {
	t.Helper()
	d, _, err := sheriff.OpenDataDir(t.TempDir(), sheriff.DurableOptions{
		Fsync: store.FsyncNever, CompactWALBytes: -1, RetainAge: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	w = sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6, Store: d})
	srv = httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{
		Logger: log.New(io.Discard, "", 0),
	}))
	t.Cleanup(srv.Close)
	d.AddAll(varyingDay(0))
	return w, srv, func() {
		d.AddAll(varyingDay(1))
		d.AddAll(varyingDay(2))
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if d.Stats().PrunedRows == 0 {
			t.Fatal("the checkpoint pruned nothing")
		}
	}
}

// getEvents fetches the JSON history page at query, returning status
// and body.
func getEvents(t *testing.T, srv *httptest.Server, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/api/v1/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEventsEpochPinsTheLog: ?epoch= names the log a cursor belongs to.
// Before any prune the epoch is 0 and absent from the page (the wire is
// unchanged); after one, the old epoch is a 409 conflict, while the
// current epoch or none serves the same 200 page carrying it.
func TestEventsEpochPinsTheLog(t *testing.T) {
	_, srv, prune := prunedServer(t)
	status, plain := getEvents(t, srv, "")
	if status != http.StatusOK || bytes.Contains(plain, []byte(`"epoch"`)) {
		t.Fatalf("pre-prune page: status %d body %s", status, plain)
	}
	if status, pinned := getEvents(t, srv, "?epoch=0"); status != http.StatusOK || !bytes.Equal(pinned, plain) {
		t.Fatalf("?epoch=0 before a prune: status %d body %s, want %s", status, pinned, plain)
	}
	if status, _ := getEvents(t, srv, "?epoch=x"); status != http.StatusBadRequest {
		t.Fatalf("bad epoch status = %d", status)
	}

	prune()
	status, body := getEvents(t, srv, "?epoch=0")
	if status != http.StatusConflict || !bytes.Contains(body, []byte(`"code":"conflict"`)) {
		t.Fatalf("stale epoch: status %d body %s", status, body)
	}
	status, plain = getEvents(t, srv, "")
	var page sheriff.APIEventsPage
	if err := json.Unmarshal(plain, &page); err != nil || status != http.StatusOK {
		t.Fatalf("post-prune page: status %d err %v", status, err)
	}
	if page.Epoch == 0 || page.Count == 0 {
		t.Fatalf("post-prune page = %+v, want a nonzero epoch and the survivors' events", page)
	}
	if status, pinned := getEvents(t, srv, fmt.Sprintf("?epoch=%d", page.Epoch)); status != http.StatusOK || !bytes.Equal(pinned, plain) {
		t.Fatalf("current epoch: status %d body %s, want %s", status, pinned, plain)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/events?follow=false", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.EventsEpochHeader); got != fmt.Sprint(page.Epoch) {
		t.Fatalf("NDJSON epoch header = %q, want %d", got, page.Epoch)
	}
}

// TestEventsTailEndsAtPrune: a live tail opened before a prune delivers
// every event of its epoch's log — those appended while it was open
// included — and then ends, as a server drain ends it.
func TestEventsTailEndsAtPrune(t *testing.T) {
	w, srv, prune := prunedServer(t)
	old := w.Analysis.Events()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/v1/events?epoch=0", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(api.EventsEpochHeader); got != "0" {
		t.Fatalf("tail epoch header = %q", got)
	}

	prune()
	got, err := io.ReadAll(resp.Body) // returns only once the tail ends
	if err != nil {
		t.Fatalf("the tail did not end at the prune: %v", err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, e := range old.After(0, 0) {
		enc.Encode(e)
	}
	// Four variation events per day, days 0-2 all folded before the prune.
	if old.Len() != 12 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("tail delivered %q, want the old epoch's %d events %q", got, old.Len(), want.Bytes())
	}
	if w.Analysis.Events() == old {
		t.Fatal("the prune kept the old event log")
	}
}
