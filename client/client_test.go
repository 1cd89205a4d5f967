package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sheriff"
	"sheriff/client"
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// newWorldServer spins a real API server for end-to-end SDK tests.
func newWorldServer(t *testing.T) (*sheriff.World, *httptest.Server) {
	t.Helper()
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6})
	srv := httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{
		Logger: log.New(io.Discard, "", 0),
	}))
	t.Cleanup(srv.Close)
	return w, srv
}

// checkRequest builds the deterministic digitalrev check.
func checkRequest(t *testing.T, w *sheriff.World) sheriff.CheckRequest {
	t.Helper()
	r := w.Retailers["www.digitalrev.com"]
	p := r.Catalog().Products()[0]
	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := geo.AddrFor(loc, 61)
	if err != nil {
		t.Fatal(err)
	}
	amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: w.Clock.Now(), IP: addr.String()})
	return sheriff.CheckRequest{
		URL:       "http://www.digitalrev.com/product/" + p.SKU,
		Highlight: money.Format(amt, amt.Currency.Style()),
		UserAddr:  addr,
		UserID:    "sdk-test",
	}
}

func TestClientEndToEnd(t *testing.T) {
	w, srv := newWorldServer(t)
	cl := client.New(srv.URL, client.Options{})
	ctx := context.Background()

	res, err := cl.Check(ctx, checkRequest(t, w))
	if err != nil {
		t.Fatal(err)
	}
	if res.Domain != "www.digitalrev.com" || len(res.Prices) != 14 || !res.Varies {
		t.Fatalf("check = %+v", res)
	}

	// Typed errors: an unknown domain maps to code not_found.
	_, err = cl.Check(ctx, sheriff.CheckRequest{
		URL: "http://no.such.shop/product/X", Highlight: "$1.00",
		UserAddr: res14Addr(t),
	})
	if !client.IsCode(err, "not_found") {
		t.Fatalf("err = %v, want not_found APIError", err)
	}
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.RequestID == "" {
		t.Fatalf("APIError = %+v", ae)
	}

	// Batch: first succeeds, second fails item-local.
	outcomes, err := cl.CheckBatch(ctx, []sheriff.CheckRequest{
		checkRequest(t, w),
		{URL: "http://no.such.shop/product/X", Highlight: "$1.00", UserAddr: res14Addr(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 || outcomes[0].Result == nil || outcomes[1].Err == nil ||
		outcomes[1].Err.Code != "not_found" {
		t.Fatalf("outcomes = %+v", outcomes)
	}

	// Stats and anchors reflect the checks above.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checks != 2 || stats.Observations != 28 {
		t.Fatalf("stats = %+v", stats)
	}
	anchors, err := cl.Anchors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := anchors["www.digitalrev.com"]; !ok {
		t.Fatalf("anchors = %v", anchors)
	}

	// Observations: pagination helper and NDJSON stream must agree with
	// the store, row for row.
	want := w.Store.Filter(store.Query{Round: -1})
	var paged []sheriff.Observation
	for o, err := range cl.Observations(ctx, client.ObservationsQuery{PageSize: 5}) {
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, o)
	}
	var streamed []sheriff.Observation
	for o, err := range cl.StreamObservations(ctx, client.ObservationsQuery{}) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, o)
	}
	if len(paged) != len(want) || len(streamed) != len(want) {
		t.Fatalf("paged %d, streamed %d, want %d", len(paged), len(streamed), len(want))
	}
	for i := range want {
		if paged[i] != want[i] || streamed[i] != want[i] {
			t.Fatalf("row %d disagrees", i)
		}
	}

	// FetchDataset round-trips into a local store.
	st, err := cl.FetchDataset(ctx, client.ObservationsQuery{Domain: "www.digitalrev.com"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 28 {
		t.Fatalf("fetched dataset: %d rows", st.Len())
	}

	// DomainReport comes back typed.
	rep, err := cl.DomainReport(ctx, "www.digitalrev.com")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Domain != "www.digitalrev.com" || rep.Observations != 28 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := cl.DomainReport(ctx, "never.seen"); !client.IsCode(err, "not_found") {
		t.Fatalf("missing-domain report err = %v", err)
	}
}

// res14Addr is a valid fabric egress address for error-path checks.
func res14Addr(t *testing.T) netip.Addr {
	t.Helper()
	loc, err := geo.LocationOf("US", "Boston")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := geo.AddrFor(loc, 61)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func asAPIError(err error, target **client.APIError) bool {
	ae, ok := err.(*client.APIError)
	if ok {
		*target = ae
	}
	return ok
}

func TestClientRetryOn429(t *testing.T) {
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"slow down"}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"checks":7,"observations":0,"ok_prices":0,"domains":0,"cache":{"hits":0,"misses":0},"server":{"requests":2,"rate_limited":1}}`)
	}))
	defer stub.Close()

	cl := client.New(stub.URL, client.Options{BaseBackoff: time.Millisecond})
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checks != 7 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one retry)", got)
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"internal","message":"down"}}`)
	}))
	defer stub.Close()

	cl := client.New(stub.URL, client.Options{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	_, err := cl.Stats(context.Background())
	if err == nil {
		t.Fatal("expected failure")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want MaxAttempts=3", got)
	}
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
}

// TestClientPostNotRetriedOn5xx: a check POST is not idempotent at the
// HTTP layer; a 503 must surface immediately rather than re-submit.
func TestClientPostNotRetriedOn5xx(t *testing.T) {
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"internal","message":"down"}}`)
	}))
	defer stub.Close()

	cl := client.New(stub.URL, client.Options{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	_, err := cl.Check(context.Background(), sheriff.CheckRequest{URL: "http://x/product/1", Highlight: "$1"})
	if err == nil {
		t.Fatal("expected failure")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("POST retried: %d calls", got)
	}

	// But a 429 does retry a POST — the server told us it dropped the
	// request unprocessed.
	calls.Store(0)
	stub429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"slow down"}}`)
			return
		}
		fmt.Fprint(w, `{"domain":"x","sku":"1","prices":[],"ratio":1,"varies":false}`)
	}))
	defer stub429.Close()
	cl = client.New(stub429.URL, client.Options{BaseBackoff: time.Millisecond})
	if _, err := cl.Check(context.Background(), sheriff.CheckRequest{URL: "http://x/product/1", Highlight: "$1"}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("429 POST retry: %d calls, want 2", got)
	}
}

func TestClientLegacyTextErrorDegradesGracefully(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusBadRequest)
	}))
	defer stub.Close()

	cl := client.New(stub.URL, client.Options{})
	_, err := cl.Stats(context.Background())
	var ae *client.APIError
	if !asAPIError(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if ae.Code != "" || ae.Message != "plain text failure" || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("APIError = %+v", ae)
	}
}

func TestClientPaginationAgainstStub(t *testing.T) {
	// Three pages served purely off the cursor parameter, to pin the
	// client-side pagination loop without a world.
	rows := make([]store.Observation, 25)
	for i := range rows {
		rows[i] = store.Observation{Domain: "stub.example.com", SKU: strconv.Itoa(i), Round: -1, Currency: "USD"}
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off := 0
		if c := r.URL.Query().Get("cursor"); c != "" {
			fmt.Sscanf(c, "off-%d", &off)
		}
		limit := 10
		end := off + limit
		next := ""
		if end >= len(rows) {
			end = len(rows)
		} else {
			next = fmt.Sprintf("off-%d", end)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"observations": rows[off:end],
			"count":        end - off,
			"next_cursor":  next,
		})
	}))
	defer stub.Close()

	cl := client.New(stub.URL, client.Options{})
	var got []sheriff.Observation
	for o, err := range cl.Observations(context.Background(), client.ObservationsQuery{PageSize: 10}) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, o)
	}
	if len(got) != len(rows) {
		t.Fatalf("paginated %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].SKU != rows[i].SKU {
			t.Fatalf("row %d = %+v", i, got[i])
		}
	}
}

func TestClientCheckFuncDrivesLoadHarness(t *testing.T) {
	w, srv := newWorldServer(t)
	cl := client.New(srv.URL, client.Options{})

	// The SDK adapter is the crowd-load harness's CheckFunc: a small
	// frozen run against the in-process server exercises the whole
	// loadgen path without a separate process.
	rep, err := sheriff.RunLoad(cl.CheckFunc(context.Background()), w.Clock, w.Retailers,
		w.Interesting, w.Tail, sheriff.LoadOptions{
			Seed: 3, Users: 4, Requests: 12, Rounds: 2, Freeze: true,
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded == 0 || rep.Requests != 12 {
		t.Fatalf("load report = %+v", rep)
	}
}

// TestClientObservationsRerangeable: an iter.Seq2 may be ranged more
// than once; each range must walk from the query's own start, not from
// where the previous range stopped.
func TestClientObservationsRerangeable(t *testing.T) {
	w, srv := newWorldServer(t)
	w.Store.AddAll(func() []store.Observation {
		rows := make([]store.Observation, 30)
		for i := range rows {
			rows[i] = store.Observation{Domain: "re.example.com", SKU: strconv.Itoa(i), Round: -1, Currency: "USD"}
		}
		return rows
	}())
	cl := client.New(srv.URL, client.Options{})
	seq := cl.Observations(context.Background(), client.ObservationsQuery{PageSize: 7})
	count := func() int {
		n := 0
		for _, err := range seq {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	first, second := count(), count()
	if first != 30 || second != 30 {
		t.Fatalf("ranges saw %d then %d rows, want 30 both times", first, second)
	}
}

// TestClientEventsHistoryAndTail drives /api/v1/events end to end
// through the SDK: a real check seeds the engine, history pages resume
// from a cursor, and StreamEvents replays then follows live until the
// server-side engine drains — at which point the stream ends cleanly.
func TestClientEventsHistoryAndTail(t *testing.T) {
	w, srv := newWorldServer(t)
	cl := client.New(srv.URL, client.Options{})
	ctx := context.Background()

	// A real check exercises the full write path (store fold included);
	// whatever events it emitted are the baseline for the assertions.
	if _, err := cl.Check(ctx, checkRequest(t, w)); err != nil {
		t.Fatal(err)
	}
	base := w.Analysis.Events().Len()
	log := w.Analysis.Events()
	log.Append(sheriff.Event{Type: sheriff.EventVariation, Domain: "manual-1.example", SKU: "SKU-1", Ratio: 1.5})
	log.Append(sheriff.Event{Type: sheriff.EventStrategy, Domain: "manual-2.example", Family: "geo", Flagged: true, Affected: 3, Eligible: 4})

	// Full history.
	page, err := cl.Events(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(page.Count) != base+2 || page.LatestSeq != base+2 {
		t.Fatalf("history page = count %d latest %d, want %d/%d", page.Count, page.LatestSeq, base+2, base+2)
	}
	for i, e := range page.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want strictly increasing from 1", i, e.Seq)
		}
	}

	// Cursor resume: after the baseline, only the two manual events.
	page, err = cl.Events(ctx, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != 2 || page.Events[0].Domain != "manual-1.example" || page.Events[1].Family != "geo" {
		t.Fatalf("resumed page = %+v", page)
	}
	// Limit caps the page.
	page, err = cl.Events(ctx, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != 1 || page.Events[0].Domain != "manual-1.example" {
		t.Fatalf("limited page = %+v", page)
	}

	// Live tail: replay from the cursor, then follow appends, then end
	// cleanly when the engine drains.
	got := make(chan sheriff.Event, 16)
	tailErr := make(chan error, 1)
	go func() {
		defer close(got)
		for e, err := range cl.StreamEvents(ctx, base) {
			if err != nil {
				tailErr <- err
				return
			}
			got <- e
		}
	}()
	recv := func(wantDomain string) {
		t.Helper()
		select {
		case e := <-got:
			if e.Domain != wantDomain {
				t.Fatalf("tail saw %q, want %q", e.Domain, wantDomain)
			}
		case err := <-tailErr:
			t.Fatalf("tail error: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatalf("tail timed out waiting for %q", wantDomain)
		}
	}
	recv("manual-1.example") // replayed history
	recv("manual-2.example")
	log.Append(sheriff.Event{Type: sheriff.EventVariation, Domain: "live.example", SKU: "SKU-9", Ratio: 2})
	recv("live.example") // a live append reaches the tail

	// Graceful drain: sealing the log ends every tail without an error.
	w.Analysis.Close()
	select {
	case e, open := <-got:
		if open {
			t.Fatalf("unexpected trailing event %+v", e)
		}
	case err := <-tailErr:
		t.Fatalf("tail error on drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("tail did not end after engine close")
	}
}

// TestClientFollowerRouting: a follower-routing client sends idempotent
// GETs round-robin to the replicas and every write to the primary.
func TestClientFollowerRouting(t *testing.T) {
	var primaryGets, primaryPosts, followerGets atomic.Int32
	statsBody := `{"checks":0,"observations":0,"ok_prices":0,"domains":0,"cache":{"hits":0,"misses":0},"server":{"requests":0,"rate_limited":0}}`
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			primaryPosts.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"domain":"x","sku":"1","prices":[],"ratio":1,"varies":false}`)
			return
		}
		primaryGets.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, statsBody)
	}))
	defer primary.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followerGets.Add(1)
		w.Header().Set("X-Sheriff-Role", "follower")
		w.Header().Set("X-Sheriff-Lag", "0")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, statsBody)
	}))
	defer follower.Close()

	cl := client.New(primary.URL, client.Options{}).WithFollowers(follower.URL)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := cl.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Check(ctx, sheriff.CheckRequest{URL: "http://x/product/1", Highlight: "$1"}); err != nil {
		t.Fatal(err)
	}
	if g := followerGets.Load(); g != 3 {
		t.Fatalf("follower saw %d GETs, want 3", g)
	}
	if g, p := primaryGets.Load(), primaryPosts.Load(); g != 0 || p != 1 {
		t.Fatalf("primary saw %d GETs / %d POSTs, want 0 / 1", g, p)
	}
}

// TestClientFollowerFallback: a follower that is lagging past the bound,
// failing server-side, or unreachable is skipped within the same attempt
// and the primary answers — no retry budget or backoff spent.
func TestClientFollowerFallback(t *testing.T) {
	statsBody := `{"checks":9,"observations":0,"ok_prices":0,"domains":0,"cache":{"hits":0,"misses":0},"server":{"requests":0,"rate_limited":0}}`
	var primaryGets atomic.Int32
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryGets.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, statsBody)
	}))
	defer primary.Close()

	cases := []struct {
		name    string
		handler http.HandlerFunc
		close   bool
	}{
		{name: "lagging", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Sheriff-Lag", "999999")
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"checks":0,"observations":0,"ok_prices":0,"domains":0,"cache":{"hits":0,"misses":0},"server":{"requests":0,"rate_limited":0}}`)
		}},
		{name: "5xx", handler: func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
		}},
		{name: "unreachable", handler: func(w http.ResponseWriter, r *http.Request) {}, close: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			primaryGets.Store(0)
			follower := httptest.NewServer(tc.handler)
			if tc.close {
				follower.Close()
			} else {
				defer follower.Close()
			}
			cl := client.New(primary.URL, client.Options{MaxAttempts: 1}).WithFollowers(follower.URL)
			stats, err := cl.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Checks != 9 {
				t.Fatalf("stats = %+v (not the primary's answer)", stats)
			}
			if g := primaryGets.Load(); g != 1 {
				t.Fatalf("primary saw %d GETs, want 1 fallback", g)
			}
		})
	}
}

// TestClientFollowerAuthoritative4xx: a 4xx from a follower is a real
// answer, not a reason to re-ask the primary.
func TestClientFollowerAuthoritative4xx(t *testing.T) {
	var primaryGets atomic.Int32
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryGets.Add(1)
	}))
	defer primary.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Sheriff-Lag", "0")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such domain"}}`)
	}))
	defer follower.Close()

	cl := client.New(primary.URL, client.Options{MaxAttempts: 1}).WithFollowers(follower.URL)
	_, err := cl.DomainReport(context.Background(), "never.seen")
	if !client.IsCode(err, "not_found") {
		t.Fatalf("err = %v, want follower's not_found", err)
	}
	if g := primaryGets.Load(); g != 0 {
		t.Fatalf("primary saw %d GETs, want 0 (follower 4xx is authoritative)", g)
	}
}

// TestClientReadOnlyError: a write sent to a follower node comes back as
// the typed read_only code the SDK can branch on.
func TestClientReadOnlyError(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", "http://primary:8317"+r.URL.RequestURI())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		fmt.Fprint(w, `{"error":{"code":"read_only","message":"this node is a read-only follower; send writes to the primary","detail":"primary: http://primary:8317"}}`)
	}))
	defer stub.Close()

	cl := client.New(stub.URL, client.Options{})
	_, err := cl.Check(context.Background(), sheriff.CheckRequest{URL: "http://x/product/1", Highlight: "$1"})
	if !client.IsCode(err, "read_only") {
		t.Fatalf("err = %v, want read_only", err)
	}
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusForbidden || ae.Detail != "primary: http://primary:8317" {
		t.Fatalf("APIError = %+v", ae)
	}
}
