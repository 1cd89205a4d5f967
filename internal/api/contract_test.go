// Contract tests for every v1 endpoint: verbs, payload validation,
// error-code mapping, pagination, streaming. Each test builds its own
// world so the suite survives -shuffle=on.
package api_test

import (
	"bytes"
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
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// testServer is one world behind one API server.
type testServer struct {
	w   *sheriff.World
	srv *httptest.Server
}

func newTestServer(t *testing.T, opts sheriff.APIOptions) *testServer {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6})
	srv := httptest.NewServer(sheriff.NewAPIWithOptions(w, opts))
	t.Cleanup(srv.Close)
	return &testServer{w: w, srv: srv}
}

// validCheckBody builds the deterministic check submission every test
// reuses: digitalrev product 0, highlighted from Boston.
func validCheckBody(t *testing.T, w *sheriff.World) string {
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
	return fmt.Sprintf(
		`{"url":"http://www.digitalrev.com/product/%s","highlight":"%s","user_addr":"%s","user_id":"contract"}`,
		p.SKU, money.Format(amt, amt.Currency.Style()), addr)
}

// doReq issues one request and returns status and body.
func doReq(t *testing.T, method, url, body string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// wantEnvelope asserts a structured error with the expected status and
// code and returns the envelope.
func wantEnvelope(t *testing.T, status int, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", status, wantStatus, body)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v (%s)", err, body)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("error code = %q, want %q (body %s)", env.Error.Code, wantCode, body)
	}
	if env.Error.Message == "" {
		t.Fatalf("empty error message: %s", body)
	}
}

func TestV1ChecksContract(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	checks := ts.srv.URL + "/api/v1/checks"
	valid := validCheckBody(t, ts.w)

	t.Run("method_not_allowed", func(t *testing.T) {
		status, body, hdr := doReq(t, http.MethodGet, checks, "", nil)
		wantEnvelope(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
		if allow := hdr.Get("Allow"); !strings.Contains(allow, "POST") {
			t.Fatalf("Allow = %q, want POST", allow)
		}
	})
	t.Run("bad_json", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, checks, "{nope", nil)
		wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
	})
	t.Run("missing_fields", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, checks, `{"url":"http://x/product/1"}`, nil)
		wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
	})
	t.Run("bad_addr", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, checks,
			`{"url":"http://www.digitalrev.com/product/X","highlight":"$1.00","user_addr":"nope"}`, nil)
		wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
	})
	t.Run("bad_url", func(t *testing.T) {
		// A URL with no host is client input error, not an upstream one.
		status, body, _ := doReq(t, http.MethodPost, checks,
			`{"url":"not-a-url","highlight":"$1.00","user_addr":"10.0.1.50"}`, nil)
		wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
	})
	t.Run("nxdomain", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, checks,
			`{"url":"http://no.such.shop/product/X","highlight":"$1.00","user_addr":"10.0.1.50"}`, nil)
		wantEnvelope(t, status, body, http.StatusNotFound, "not_found")
	})
	t.Run("login_redirect", func(t *testing.T) {
		// The fabric GET follows no redirect: the login page's 302 is
		// the upstream's answer, not the home page it points at.
		status, body, _ := doReq(t, http.MethodPost, checks,
			`{"url":"http://www.digitalrev.com/login?user=alice","highlight":"$1.00","user_addr":"10.0.1.50"}`, nil)
		wantEnvelope(t, status, body, http.StatusBadGateway, "upstream_error")
		if !strings.Contains(string(body), "status 302") {
			t.Fatalf("detail does not name the 302: %s", body)
		}
	})
	t.Run("extraction_failed", func(t *testing.T) {
		// A price that parses but does not appear on the rendered page.
		status, body, _ := doReq(t, http.MethodPost, checks,
			`{"url":"http://www.digitalrev.com/product/`+ts.w.Retailers["www.digitalrev.com"].Catalog().Products()[0].SKU+
				`","highlight":"$999999.87","user_addr":"10.0.1.50"}`, nil)
		wantEnvelope(t, status, body, http.StatusUnprocessableEntity, "extraction_failed")
	})
	t.Run("single_ok", func(t *testing.T) {
		status, body, hdr := doReq(t, http.MethodPost, checks, valid, nil)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		var res sheriff.CheckResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Domain != "www.digitalrev.com" || len(res.Prices) != 14 {
			t.Fatalf("result = %+v", res)
		}
		if !res.Varies {
			t.Fatal("digitalrev should vary")
		}
	})
	t.Run("batch_mixed", func(t *testing.T) {
		batch := fmt.Sprintf(`{"checks":[%s,{"url":"http://no.such.shop/product/X","highlight":"$1.00","user_addr":"10.0.1.50"}]}`, valid)
		status, body, _ := doReq(t, http.MethodPost, checks, batch, nil)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, body)
		}
		var out struct {
			Results []struct {
				Result *sheriff.CheckResult `json:"result"`
				Error  *struct {
					Code string `json:"code"`
				} `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != 2 {
			t.Fatalf("results = %d", len(out.Results))
		}
		if out.Results[0].Result == nil || out.Results[0].Error != nil {
			t.Fatalf("first item should succeed: %s", body)
		}
		if out.Results[1].Error == nil || out.Results[1].Error.Code != "not_found" {
			t.Fatalf("second item should fail not_found: %s", body)
		}
	})
	t.Run("batch_empty", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, checks, `{"checks":[]}`, nil)
		wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
	})
	t.Run("batch_too_large", func(t *testing.T) {
		items := make([]string, 65)
		for i := range items {
			items[i] = `{"url":"http://x/product/1","highlight":"$1.00","user_addr":"10.0.1.50"}`
		}
		status, body, _ := doReq(t, http.MethodPost, checks,
			`{"checks":[`+strings.Join(items, ",")+`]}`, nil)
		wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
	})
}

// seedObservations plants a deterministic dataset directly in the
// world's store: 3 domains × 4 SKUs × 2 VPs × 2 sources.
func seedObservations(w *sheriff.World) []store.Observation {
	day := time.Date(2013, 1, 15, 0, 0, 0, 0, time.UTC)
	var all []store.Observation
	for d := 0; d < 3; d++ {
		for s := 0; s < 4; s++ {
			for v := 0; v < 2; v++ {
				for _, src := range []string{store.SourceCrowd, store.SourceCrawl} {
					all = append(all, store.Observation{
						Domain: fmt.Sprintf("seed%d.example.com", d),
						SKU:    fmt.Sprintf("SKU-%d", s),
						VP:     fmt.Sprintf("vp-%d", v),
						Round:  map[string]int{store.SourceCrowd: -1, store.SourceCrawl: 0}[src],
						Source: src, Currency: "USD", PriceUnits: int64(1000 + 10*d + s),
						Time: day, OK: s != 3,
					})
				}
			}
		}
	}
	w.Store.AddAll(all)
	return all
}

func TestV1ObservationsContract(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	seeded := seedObservations(ts.w)
	obsURL := ts.srv.URL + "/api/v1/observations"

	t.Run("method_not_allowed", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, obsURL, "{}", nil)
		wantEnvelope(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
	})
	for name, query := range map[string]string{
		"bad_limit":  "?limit=zero",
		"bad_cursor": "?cursor=%21%21not-base64",
		"bad_round":  "?round=first",
		"bad_ok":     "?ok=maybe",
	} {
		t.Run(name, func(t *testing.T) {
			status, body, _ := doReq(t, http.MethodGet, obsURL+query, "", nil)
			wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
		})
	}
	t.Run("fake_cursor_rejected", func(t *testing.T) {
		// Valid base64 of the wrong payload must not decode as an offset.
		status, body, _ := doReq(t, http.MethodGet, obsURL+"?cursor=bm9wZQ", "", nil)
		wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")
	})

	page := func(t *testing.T, query string) (obs []store.Observation, next string) {
		t.Helper()
		status, body, _ := doReq(t, http.MethodGet, obsURL+query, "", nil)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, body)
		}
		var out struct {
			Observations []store.Observation `json:"observations"`
			Count        int                 `json:"count"`
			NextCursor   string              `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count != len(out.Observations) {
			t.Fatalf("count %d != len %d", out.Count, len(out.Observations))
		}
		return out.Observations, out.NextCursor
	}

	t.Run("pagination_walk", func(t *testing.T) {
		var got []store.Observation
		next := ""
		pages := 0
		for {
			query := "?limit=7"
			if next != "" {
				query += "&cursor=" + next
			}
			obs, n := page(t, query)
			got = append(got, obs...)
			pages++
			if n == "" {
				break
			}
			next = n
			if pages > 20 {
				t.Fatal("cursor never terminated")
			}
		}
		want := ts.w.Store.Filter(store.Query{Round: -1})
		if len(got) != len(want) {
			t.Fatalf("walked %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
		// The last page must not dangle an empty follow-up: total rows /
		// 7 pages, each non-empty.
		if pages != (len(want)+6)/7 {
			t.Fatalf("pages = %d for %d rows of 7", pages, len(want))
		}
	})
	t.Run("filters", func(t *testing.T) {
		obs, _ := page(t, "?domain=seed1.example.com&limit=1000")
		want := ts.w.Store.Filter(store.Query{Domain: "seed1.example.com", Round: -1})
		if len(obs) != len(want) {
			t.Fatalf("domain filter: %d, want %d", len(obs), len(want))
		}
		obs, _ = page(t, "?domain=seed1.example.com&source=crawl&vp=vp-0&ok=true&limit=1000")
		for _, o := range obs {
			if o.Domain != "seed1.example.com" || o.Source != "crawl" || o.VP != "vp-0" || !o.OK {
				t.Fatalf("filter leak: %+v", o)
			}
		}
		if len(obs) == 0 {
			t.Fatal("filters matched nothing")
		}
		obs, _ = page(t, "?sku=SKU-2&limit=1000")
		for _, o := range obs {
			if o.SKU != "SKU-2" {
				t.Fatalf("sku filter leak: %+v", o)
			}
		}
	})
	t.Run("round_filter", func(t *testing.T) {
		obs, _ := page(t, "?round=0&limit=1000")
		for _, o := range obs {
			if o.Round != 0 {
				t.Fatalf("round filter leak: %+v", o)
			}
		}
		if want := len(seeded) / 2; len(obs) != want {
			t.Fatalf("round 0: %d rows, want %d", len(obs), want)
		}
	})
}

func TestV1DomainReportContract(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	// A real (small) crawl gives the report real variation to summarize.
	if _, err := ts.w.RunCrowd(sheriff.CrowdOptions{Users: 10, Requests: 25, Span: 3 * 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	domains := []string{"www.digitalrev.com"}
	if err := ts.w.EnsureAnchors(domains); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.w.RunCrawl(sheriff.CrawlOptions{Domains: domains, MaxProducts: 12, Rounds: 5}); err != nil {
		t.Fatal(err)
	}

	t.Run("method_not_allowed", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/domains/www.digitalrev.com/report", "{}", nil)
		wantEnvelope(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
	})
	t.Run("unknown_domain", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/domains/never.seen.com/report", "", nil)
		wantEnvelope(t, status, body, http.StatusNotFound, "not_found")
	})
	t.Run("report", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/domains/www.digitalrev.com/report", "", nil)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, body)
		}
		var rep struct {
			Domain       string `json:"domain"`
			Observations int    `json:"observations"`
			OKPrices     int    `json:"ok_prices"`
			Products     int    `json:"products"`
			BySource     map[string]struct {
				Total int `json:"total"`
				OK    int `json:"ok"`
			} `json:"by_source"`
			Variation struct {
				Products int     `json:"products"`
				Varied   int     `json:"varied"`
				Extent   float64 `json:"extent"`
				MaxRatio float64 `json:"max_ratio"`
			} `json:"variation"`
			Families []struct {
				Family  string `json:"family"`
				Flagged bool   `json:"flagged"`
			} `json:"families"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Domain != "www.digitalrev.com" || rep.Observations == 0 || rep.Products == 0 {
			t.Fatalf("report = %+v", rep)
		}
		if rep.BySource["crawl"].Total == 0 {
			t.Fatalf("crawl source missing: %+v", rep.BySource)
		}
		// digitalrev is the paper's flagship geo discriminator: the crawl
		// must show variation and the geo family must be flagged.
		if rep.Variation.Varied == 0 || rep.Variation.MaxRatio <= 1 {
			t.Fatalf("variation = %+v", rep.Variation)
		}
		foundGeo := false
		for _, f := range rep.Families {
			if f.Family == "geo" {
				foundGeo = true
				if !f.Flagged {
					t.Fatalf("geo not flagged: %+v", rep.Families)
				}
			}
		}
		if !foundGeo {
			t.Fatalf("no geo family in %+v", rep.Families)
		}
	})
}

// TestV1StatsCacheCounters checks the page-cache counters of three
// identical checks: the first fetches the user page and 14 vantage
// points, the repeats hit all 15, and the third is answered from the
// pages' memos, one per page whose fetch succeeded.
func TestV1StatsCacheCounters(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	valid := validCheckBody(t, ts.w)
	var res struct {
		Prices []struct {
			OK bool `json:"ok"`
		} `json:"prices"`
	}
	for i := 0; i < 3; i++ {
		status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/checks", valid, nil)
		if status != http.StatusOK {
			t.Fatalf("check %d failed: %d %s", i, status, body)
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
	}
	ok := 0
	for _, p := range res.Prices {
		if p.OK {
			ok++
		}
	}
	status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var stats struct {
		Cache struct {
			Hits     uint64 `json:"hits"`
			Misses   uint64 `json:"misses"`
			MemoHits uint64 `json:"memo_hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if c := stats.Cache; c.Misses != 15 || c.Hits != 30 || c.MemoHits != uint64(1+ok) {
		t.Fatalf("cache = %+v, want 15 misses, 30 hits, %d memo hits", c, 1+ok)
	}
}

func TestV1StatsAndAnchorsContract(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	valid := validCheckBody(t, ts.w)
	if status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/checks", valid, nil); status != http.StatusOK {
		t.Fatalf("check failed: %d %s", status, body)
	}

	t.Run("stats_method", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/stats", "{}", nil)
		wantEnvelope(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
	})
	t.Run("stats", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", nil)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, body)
		}
		var stats struct {
			Checks       int            `json:"checks"`
			Observations int            `json:"observations"`
			Domains      int            `json:"domains"`
			ByVP         map[string]int `json:"by_vp"`
			BySource     map[string]struct {
				Total int `json:"total"`
			} `json:"by_source"`
			Server struct {
				Requests uint64 `json:"requests"`
			} `json:"server"`
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Checks != 1 || stats.Observations != 14 || stats.Domains != 1 {
			t.Fatalf("stats = %+v", stats)
		}
		if stats.BySource["crowd"].Total != 14 {
			t.Fatalf("by_source = %+v", stats.BySource)
		}
		if len(stats.ByVP) != 14 {
			t.Fatalf("by_vp = %+v", stats.ByVP)
		}
		if stats.Server.Requests == 0 {
			t.Fatal("server.requests not counted")
		}
	})
	t.Run("anchors", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/anchors", "", nil)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %s", status, body)
		}
		var out struct {
			Anchors map[string]json.RawMessage `json:"anchors"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if _, ok := out.Anchors["www.digitalrev.com"]; !ok {
			t.Fatalf("anchors = %s", body)
		}
	})
	t.Run("anchors_method", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/anchors", "{}", nil)
		wantEnvelope(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
	})
	t.Run("unknown_endpoint", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/nope", "", nil)
		wantEnvelope(t, status, body, http.StatusNotFound, "not_found")
	})
	// The retired pre-v1 aliases are not routes: the mux answers its
	// plain 404, with no handler, envelope or lifecycle header involved.
	for _, tc := range []struct{ name, method, path, body string }{
		{"retired_check", http.MethodPost, "/api/check", valid},
		{"retired_anchors", http.MethodGet, "/api/anchors", ""},
		{"retired_stats", http.MethodGet, "/api/stats", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body, hdr := doReq(t, tc.method, ts.srv.URL+tc.path, tc.body, nil)
			if status != http.StatusNotFound {
				t.Fatalf("%s %s = %d, want 404 (body %s)", tc.method, tc.path, status, body)
			}
			if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Fatalf("%s content type = %q, want the plain 404", tc.path, ct)
			}
			if hdr.Get("Deprecation") != "" || hdr.Get("Sunset") != "" {
				t.Fatalf("%s still carries lifecycle headers: %v", tc.path, hdr)
			}
		})
	}
}

// TestV1NDJSONMatchesWriteJSONL pins the streaming contract: the NDJSON
// body is byte-identical to the store's own WriteJSONL dump.
func TestV1NDJSONMatchesWriteJSONL(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	seedObservations(ts.w)

	status, body, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/observations", "",
		map[string]string{"Accept": "application/x-ndjson"})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var want bytes.Buffer
	if err := ts.w.Store.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("NDJSON stream differs from WriteJSONL (%d vs %d bytes)", len(body), want.Len())
	}
}
