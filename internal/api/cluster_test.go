// Contract tests for the cluster-mode surface: the replication stream,
// the health probes, the follower's read-only rejection, and reads
// against a lagging follower.
package api_test

import (
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
	"sheriff/internal/replica"
	"sheriff/internal/store"
)

// memStore unwraps a world's backend into the concrete memory engine
// (every test world here is memory-backed).
func memStore(t *testing.T, w *sheriff.World) *store.Store {
	t.Helper()
	st, ok := w.Store.(*store.Store)
	if !ok {
		t.Fatalf("world store is %T, want *store.Store", w.Store)
	}
	return st
}

// pumpStores applies every primary batch in (follower's watermark, upto]
// into the follower — a test-local stand-in for the HTTP stream.
func pumpStores(t *testing.T, primary, follower *store.Store, upto uint64) {
	t.Helper()
	for seqs, obs := range primary.ScanBatches(follower.Watermark(), upto) {
		if err := follower.ApplyAt(seqs, obs); err != nil {
			t.Fatal(err)
		}
	}
}

// newFollowerServer builds a read-only follower world + API over the
// given store, fronting the (possibly nil) replication engine.
func newFollowerServer(t *testing.T, fst *store.Store, primaryURL string, fol *sheriff.Follower) *testServer {
	t.Helper()
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6, Store: fst})
	srv := httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{
		Logger:     log.New(io.Discard, "", 0),
		ReadOnly:   true,
		PrimaryURL: primaryURL,
		Follower:   fol,
	}))
	t.Cleanup(srv.Close)
	return &testServer{w: w, srv: srv}
}

func TestV1HealthEndpointsPrimary(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	for _, ep := range []string{"/api/v1/healthz", "/api/v1/readyz"} {
		status, body, hdr := doReq(t, http.MethodGet, ts.srv.URL+ep, "", nil)
		if status != http.StatusOK {
			t.Fatalf("%s = %d (%s)", ep, status, body)
		}
		var h sheriff.APIHealthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("%s body: %v (%s)", ep, err, body)
		}
		if h.Role != "primary" || h.Replication.Role != "primary" || h.Reason != "" {
			t.Fatalf("%s = %+v", ep, h)
		}
		if want := map[string]bool{"ok": true, "ready": true}; !want[h.Status] {
			t.Fatalf("%s status = %q", ep, h.Status)
		}
		if hdr.Get("X-Sheriff-Role") != "primary" || hdr.Get("X-Sheriff-Lag") != "0" {
			t.Fatalf("%s role headers = %q / %q", ep, hdr.Get("X-Sheriff-Role"), hdr.Get("X-Sheriff-Lag"))
		}
		// Probes answer GET only.
		status, body, _ = doReq(t, http.MethodPost, ts.srv.URL+ep, "", nil)
		wantEnvelope(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
	}
}

func TestV1ReplicationWALStream(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/checks", validCheckBody(t, ts.w), nil)
	if status != http.StatusOK {
		t.Fatalf("seed check = %d (%s)", status, body)
	}

	// Bad cursor → structured 400.
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/replication/wal?after=nope", "", nil)
	wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")

	// A catch-up pass ships every batch and stamps the stream identity.
	status, body, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/replication/wal", "", nil)
	if status != http.StatusOK {
		t.Fatalf("stream = %d (%s)", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != store.ReplicationContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	if hdr.Get(store.ReplicationEpochHeader) == "" || hdr.Get(store.ReplicationEpochHeader) == "0" {
		t.Fatalf("epoch header = %q", hdr.Get(store.ReplicationEpochHeader))
	}
	primary := memStore(t, ts.w)
	if wm := hdr.Get(store.ReplicationWatermarkHeader); wm != fmt.Sprint(primary.Watermark()) {
		t.Fatalf("watermark header = %q, want %d", wm, primary.Watermark())
	}
	var rows int
	fr := store.NewWALFrameReader(bytes.NewReader(body))
	for {
		frame, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += len(frame.Obs)
	}
	if rows != primary.Len() {
		t.Fatalf("stream carried %d rows, want %d", rows, primary.Len())
	}

	// The follower engine over the same endpoint lands an identical store.
	fst := store.New()
	fol := replica.New(ts.srv.URL, fst, replica.Options{})
	if err := fol.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, got := primary.All(), fst.All()
	if len(got) != len(want) {
		t.Fatalf("follower has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d disagrees", i)
		}
	}
	if st := fol.Status(); st.LastApplied != primary.Watermark() || st.Lag != 0 {
		t.Fatalf("follower status = %+v", st)
	}
}

func TestV1FollowerReadOnly(t *testing.T) {
	fst := store.New()
	ts := newFollowerServer(t, fst, "http://primary.example:8317", nil)

	// v1 write → typed read_only with a Location at the primary.
	status, body, hdr := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/checks", validCheckBody(t, ts.w), nil)
	wantEnvelope(t, status, body, http.StatusForbidden, "read_only")
	if loc := hdr.Get("Location"); loc != "http://primary.example:8317/api/v1/checks" {
		t.Fatalf("Location = %q", loc)
	}
	var env struct {
		Error struct {
			Detail string `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || !strings.Contains(env.Error.Detail, "http://primary.example:8317") {
		t.Fatalf("detail = %q (%v)", env.Error.Detail, err)
	}

	// Reads still serve, and carry the follower role headers.
	status, _, hdr = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/observations", "", nil)
	if status != http.StatusOK || hdr.Get("X-Sheriff-Role") != "follower" {
		t.Fatalf("read = %d, role %q", status, hdr.Get("X-Sheriff-Role"))
	}
}

func TestV1FollowerStatsAndReadyz(t *testing.T) {
	// A stub primary that advertises a huge watermark and then only
	// heartbeats: the follower connects and stays lagging, which is
	// exactly the state readyz must refuse traffic in.
	const primaryWM = 1_000_000
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set(store.ReplicationEpochHeader, "42")
		h.Set(store.ReplicationWatermarkHeader, fmt.Sprint(primaryWM))
		h.Set("Content-Type", store.ReplicationContentType)
		frame, err := store.EncodeWALFrame(nil, store.WALFrame{Watermark: primaryWM})
		if err != nil {
			t.Error(err)
			return
		}
		w.Write(frame)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer stub.Close()

	fst := store.New()
	fol := replica.New(stub.URL, fst, replica.Options{})
	ts := newFollowerServer(t, fst, stub.URL, fol)

	// Before the stream connects: alive but unready, disconnected reason.
	status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/readyz", "", nil)
	var h sheriff.APIHealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || h.Status != "unready" || !strings.Contains(h.Reason, "disconnected") {
		t.Fatalf("pre-connect readyz = %d %+v", status, h)
	}
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/healthz", "", nil)
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || h.Status != "ok" || h.Role != "follower" {
		t.Fatalf("healthz = %d %+v", status, h)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fol.Run(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := fol.Status(); st.Connected && st.Lag > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never connected: %+v", fol.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Connected but lagging past ReadyMaxLag: unready with the lag reason,
	// and the stats block reports the same numbers.
	status, body, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/readyz", "", nil)
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || h.Status != "unready" || !strings.Contains(h.Reason, "lag") {
		t.Fatalf("lagging readyz = %d %+v", status, h)
	}
	if hdr.Get("X-Sheriff-Role") != "follower" || hdr.Get("X-Sheriff-Lag") != fmt.Sprint(primaryWM) {
		t.Fatalf("role headers = %q / %q", hdr.Get("X-Sheriff-Role"), hdr.Get("X-Sheriff-Lag"))
	}

	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("stats = %d (%s)", status, body)
	}
	var stats sheriff.APIStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	r := stats.Replication
	if r == nil || r.Role != "follower" || r.Primary != stub.URL || !r.Connected ||
		r.PrimaryWatermark != primaryWM || r.Lag != primaryWM {
		t.Fatalf("stats replication = %+v", r)
	}
}

// TestV1LaggingFollowerReads: pagination and the NDJSON stream against a
// follower that has applied only part of the primary's history must stop
// at the follower's watermark — never a torn or future row — and a
// cursor taken mid-pagination resumes cleanly after the follower
// catches up.
func TestV1LaggingFollowerReads(t *testing.T) {
	primary := store.New()
	var batch []store.Observation
	for i := 0; i < 60; i++ {
		batch = append(batch, store.Observation{
			Domain: "lag.example.com", SKU: fmt.Sprintf("SKU-%03d", i), Round: -1, Currency: "USD",
		})
		if len(batch) == 7 || i == 59 {
			primary.AddAll(batch)
			batch = nil
		}
	}

	fst := store.New()
	pumpStores(t, primary, fst, 30)
	applied := fst.Len()
	if applied == 0 || applied >= 60 {
		t.Fatalf("lagging follower applied %d rows, want a strict prefix", applied)
	}
	ts := newFollowerServer(t, fst, "http://primary.example:8317", nil)

	// Paginate the lagging follower to exhaustion, keeping the first
	// page's cursor for the resume half of the test.
	var rows []string
	var resumeCursor string
	cursor := ""
	for page := 0; ; page++ {
		u := ts.srv.URL + "/api/v1/observations?limit=10"
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		status, body, _ := doReq(t, http.MethodGet, u, "", nil)
		if status != http.StatusOK {
			t.Fatalf("page %d = %d (%s)", page, status, body)
		}
		var out struct {
			Observations []store.Observation `json:"observations"`
			NextCursor   string              `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		for _, o := range out.Observations {
			rows = append(rows, o.SKU)
		}
		if page == 0 {
			resumeCursor = out.NextCursor
		}
		if out.NextCursor == "" {
			break
		}
		cursor = out.NextCursor
	}
	if len(rows) != applied {
		t.Fatalf("lagging pagination saw %d rows, want exactly the %d applied", len(rows), applied)
	}
	for i, sku := range rows {
		if want := fmt.Sprintf("SKU-%03d", i); sku != want {
			t.Fatalf("row %d = %q, want %q (a row past the watermark leaked)", i, sku, want)
		}
	}

	// The NDJSON stream is bounded the same way.
	status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/observations", "",
		map[string]string{"Accept": "application/x-ndjson"})
	if status != http.StatusOK {
		t.Fatalf("ndjson = %d", status)
	}
	if n := len(bytes.Split(bytes.TrimSpace(body), []byte("\n"))); n != applied {
		t.Fatalf("ndjson streamed %d rows, want %d", n, applied)
	}

	// Catch up, then resume from the cursor taken while lagging: the
	// remaining rows — late-applied ones included — arrive in order.
	pumpStores(t, primary, fst, primary.Watermark())
	cursor = resumeCursor
	resumed := 10 // rows already consumed before resumeCursor
	for {
		u := ts.srv.URL + "/api/v1/observations?limit=25&cursor=" + cursor
		status, body, _ := doReq(t, http.MethodGet, u, "", nil)
		if status != http.StatusOK {
			t.Fatalf("resume page = %d (%s)", status, body)
		}
		var out struct {
			Observations []store.Observation `json:"observations"`
			NextCursor   string              `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		for _, o := range out.Observations {
			if want := fmt.Sprintf("SKU-%03d", resumed); o.SKU != want {
				t.Fatalf("resumed row %d = %q, want %q", resumed, o.SKU, want)
			}
			resumed++
		}
		if out.NextCursor == "" {
			break
		}
		cursor = out.NextCursor
	}
	if resumed != 60 {
		t.Fatalf("resume reached %d rows, want all 60 after catch-up", resumed)
	}
}
