// Streaming and pagination-under-write tests — the acceptance criteria
// of the v1 redesign: a 100K-observation dataset streams as NDJSON off
// the store iterators without the HTTP layer materializing it, and
// cursors stay stable while writers append concurrently.
package api_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"sheriff"
	"sheriff/internal/store"
)

// synthObservations builds n campaign-shaped rows across several
// domains and vantage points.
func synthObservations(n, domains int, tag string) []store.Observation {
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	out := make([]store.Observation, n)
	for i := range out {
		out[i] = store.Observation{
			Domain: fmt.Sprintf("%s%02d.example.com", tag, i%domains),
			SKU:    fmt.Sprintf("P-%d", (i/domains)%90),
			VP:     fmt.Sprintf("vp-%d", i%14),
			Round:  i % 7, Source: store.SourceCrawl,
			PriceUnits: int64(1000 + i%4000), Currency: "USD",
			Time: day.AddDate(0, 0, i%7), OK: i%13 != 0,
		}
	}
	return out
}

// TestStream100KConstantMemory drives the acceptance criterion: 100K
// observations come back as NDJSON, row-for-row identical to the
// store's serialization, delivered chunked (no Content-Length — the
// server never buffered the dataset to measure it) and readable
// incrementally off the socket.
func TestStream100KConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("100K-row stream in -short mode")
	}
	ts := newTestServer(t, sheriff.APIOptions{})
	const n = 100_000
	ts.w.Store.AddAll(synthObservations(n, 40, "bulk"))

	req, err := http.NewRequest(http.MethodGet, ts.srv.URL+"/api/v1/observations", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// A materialized response would carry Content-Length; the streaming
	// one is chunked.
	if resp.ContentLength >= 0 {
		t.Fatalf("response carries Content-Length %d; expected a chunked stream", resp.ContentLength)
	}

	// Read incrementally and compare to the store's own dump.
	var want bytes.Buffer
	if err := ts.w.Store.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	wantScanner := bufio.NewScanner(&want)
	wantScanner.Buffer(make([]byte, 1<<20), 1<<20)
	gotScanner := bufio.NewScanner(resp.Body)
	gotScanner.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	for gotScanner.Scan() {
		if !wantScanner.Scan() {
			t.Fatalf("stream has more rows than the store after %d", rows)
		}
		if !bytes.Equal(gotScanner.Bytes(), wantScanner.Bytes()) {
			t.Fatalf("row %d differs:\n got %s\nwant %s", rows, gotScanner.Bytes(), wantScanner.Bytes())
		}
		rows++
	}
	if err := gotScanner.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("streamed %d rows, want %d", rows, n)
	}
}

// TestStreamEarlyDisconnect: a client closing mid-stream must not wedge
// or crash the server; subsequent requests keep working.
func TestStreamEarlyDisconnect(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	ts.w.Store.AddAll(synthObservations(20_000, 10, "dc"))

	req, err := http.NewRequest(http.MethodGet, ts.srv.URL+"/api/v1/observations", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few bytes, then hang up.
	buf := make([]byte, 4096)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status, _, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("server unhealthy after disconnect: %d", status)
	}
}

// TestCursorStableUnderConcurrentAppends walks pages while writers
// append: every row that existed when the walk began must appear
// exactly once, in order — the append-only store guarantees offsets
// before the cursor never shift.
func TestCursorStableUnderConcurrentAppends(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	initial := synthObservations(2_000, 8, "base")
	ts.w.Store.AddAll(initial)
	before := ts.w.Store.Filter(store.Query{Round: -1})

	// Concurrent writers append bounded batches while the walk pages
	// through (bounded, so the store cannot outgrow the walker and the
	// test stays O(small); a pause per batch keeps appends interleaving
	// with page reads instead of finishing before the first page).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ts.w.Store.AddAll(synthObservations(25, 8, fmt.Sprintf("w%d-%d", g, i)))
				time.Sleep(500 * time.Microsecond)
			}
		}(g)
	}

	var walked []store.Observation
	cursor := ""
	for {
		url := ts.srv.URL + "/api/v1/observations?limit=100"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		status, body, _ := doReq(t, http.MethodGet, url, "", nil)
		if status != http.StatusOK {
			t.Fatalf("page fetch: %d %s", status, body)
		}
		var page struct {
			Observations []store.Observation `json:"observations"`
			NextCursor   string              `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page.Observations...)
		// Stop once the original prefix is covered; the appenders extend
		// the tail forever, so a full drain is a race we need not win.
		if page.NextCursor == "" || len(walked) >= len(before)+1_000 {
			break
		}
		cursor = page.NextCursor
	}
	close(stop)
	wg.Wait()

	if len(walked) < len(before) {
		t.Fatalf("walk saw %d rows, want at least the initial %d", len(walked), len(before))
	}
	for i := range before {
		if walked[i] != before[i] {
			t.Fatalf("pre-existing row %d shifted under concurrent appends:\n got %+v\nwant %+v",
				i, walked[i], before[i])
		}
	}
}
