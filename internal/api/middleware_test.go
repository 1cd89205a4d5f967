// Middleware-stack tests over the real server: CORS preflight, body
// limits, rate limiting, request IDs.
package api_test

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"sheriff"
)

func TestCORSPreflightAndHeaders(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{AllowedOrigins: []string{"https://ext.sheriff.example"}})

	t.Run("preflight_allowed", func(t *testing.T) {
		status, _, hdr := doReq(t, http.MethodOptions, ts.srv.URL+"/api/v1/checks", "", map[string]string{
			"Origin":                        "https://ext.sheriff.example",
			"Access-Control-Request-Method": "POST",
		})
		if status != http.StatusNoContent {
			t.Fatalf("preflight status = %d", status)
		}
		if got := hdr.Get("Access-Control-Allow-Origin"); got != "https://ext.sheriff.example" {
			t.Fatalf("allow-origin = %q", got)
		}
		if got := hdr.Get("Access-Control-Allow-Methods"); !strings.Contains(got, "POST") {
			t.Fatalf("allow-methods = %q", got)
		}
		if hdr.Get("Access-Control-Allow-Headers") == "" || hdr.Get("Access-Control-Max-Age") == "" {
			t.Fatalf("preflight headers incomplete: %v", hdr)
		}
	})
	t.Run("preflight_denied_origin", func(t *testing.T) {
		status, _, hdr := doReq(t, http.MethodOptions, ts.srv.URL+"/api/v1/checks", "", map[string]string{
			"Origin":                        "https://evil.example",
			"Access-Control-Request-Method": "POST",
		})
		if status != http.StatusForbidden {
			t.Fatalf("preflight status = %d", status)
		}
		if hdr.Get("Access-Control-Allow-Origin") != "" {
			t.Fatal("denied origin must not get an allow header")
		}
	})
	t.Run("actual_request_gets_origin_header", func(t *testing.T) {
		status, _, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", map[string]string{
			"Origin": "https://ext.sheriff.example",
		})
		if status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
		if got := hdr.Get("Access-Control-Allow-Origin"); got != "https://ext.sheriff.example" {
			t.Fatalf("allow-origin = %q", got)
		}
		if !strings.Contains(hdr.Get("Vary"), "Origin") {
			t.Fatalf("Vary = %q, want Origin", hdr.Get("Vary"))
		}
	})
}

func TestCORSWildcardDefault(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	status, _, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", map[string]string{
		"Origin": "https://anywhere.example",
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if got := hdr.Get("Access-Control-Allow-Origin"); got != "*" {
		t.Fatalf("allow-origin = %q, want *", got)
	}
}

// TestBodyLimit413: an oversized POST body gets the structured 413.
func TestBodyLimit413(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{MaxBodyBytes: 256})
	huge := `{"url":"http://www.digitalrev.com/product/X","highlight":"` +
		strings.Repeat("x", 4096) + `","user_addr":"10.0.1.50"}`

	status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/checks", huge, nil)
	wantEnvelope(t, status, body, http.StatusRequestEntityTooLarge, "payload_too_large")

	// A normal-size valid request still works under the small limit the
	// moment it fits.
	small := newTestServer(t, sheriff.APIOptions{MaxBodyBytes: 4096})
	status, body, _ = doReq(t, http.MethodPost, small.srv.URL+"/api/v1/checks", validCheckBody(t, small.w), nil)
	if status != http.StatusOK {
		t.Fatalf("in-limit check failed: %d %s", status, body)
	}
}

func TestRateLimit(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := &now
	// TrustProxyHeaders lets the test play several clients over one
	// loopback connection; the untrusted default (header ignored) is
	// covered by TestClientKey.
	ts := newTestServer(t, sheriff.APIOptions{
		RateLimit: 1, RateBurst: 2, TrustProxyHeaders: true,
		Now: func() time.Time { return *clock },
	})
	statsURL := ts.srv.URL + "/api/v1/stats"

	// Burst of 2 passes, the third is throttled.
	for i := 0; i < 2; i++ {
		if status, body, _ := doReq(t, http.MethodGet, statsURL, "", nil); status != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, status, body)
		}
	}
	status, body, hdr := doReq(t, http.MethodGet, statsURL, "", nil)
	wantEnvelope(t, status, body, http.StatusTooManyRequests, "rate_limited")
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// One simulated second refills one token.
	now = now.Add(time.Second)
	if status, body, _ := doReq(t, http.MethodGet, statsURL, "", nil); status != http.StatusOK {
		t.Fatalf("after refill: %d %s", status, body)
	}

	// A different client (X-Forwarded-For) has its own bucket.
	for i := 0; i < 2; i++ {
		status, body, _ := doReq(t, http.MethodGet, statsURL, "", map[string]string{
			"X-Forwarded-For": "203.0.113.9",
		})
		if status != http.StatusOK {
			t.Fatalf("other client request %d: %d %s", i, status, body)
		}
	}

	// The limiter's rejections surface in stats (read as the other
	// client, which still has budget... it spent its burst; advance).
	now = now.Add(10 * time.Second)
	status, body, _ = doReq(t, http.MethodGet, statsURL, "", nil)
	if status != http.StatusOK {
		t.Fatalf("stats read: %d %s", status, body)
	}
	if !strings.Contains(string(body), `"rate_limited":1`) {
		t.Fatalf("stats missing rate_limited counter: %s", body)
	}

	// Preflights are never throttled: the browser's requests must pass
	// even when the client's budget is gone.
	now = now.Add(time.Hour)
	for i := 0; i < 5; i++ {
		doReq(t, http.MethodGet, statsURL, "", nil)
	}
	st, _, _ := doReq(t, http.MethodOptions, statsURL, "", map[string]string{
		"Origin":                        "https://ext.example",
		"Access-Control-Request-Method": "GET",
	})
	if st != http.StatusNoContent {
		t.Fatalf("throttled preflight: %d", st)
	}
}

func TestRequestID(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	_, _, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", nil)
	if hdr.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID assigned")
	}
	_, _, hdr = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", map[string]string{
		"X-Request-ID": "client-supplied-42",
	})
	if got := hdr.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Fatalf("client request ID not echoed: %q", got)
	}
}

// TestBareOptionsAnswered: an OPTIONS without preflight headers must
// not get a 405 whose Allow header advertises OPTIONS — it is answered
// 204 with the route's Allow set.
func TestBareOptionsAnswered(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})
	status, _, hdr := doReq(t, http.MethodOptions, ts.srv.URL+"/api/v1/stats", "", nil)
	if status != http.StatusNoContent {
		t.Fatalf("bare OPTIONS status = %d, want 204", status)
	}
	if allow := hdr.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "OPTIONS") {
		t.Fatalf("Allow = %q", allow)
	}
}

// TestRateLimit429CarriesCORS: the limiter sits inside the CORS layer,
// so a throttled cross-origin caller can still read the envelope — an
// ACAO-less 429 would surface as an opaque CORS error in the extension.
func TestRateLimit429CarriesCORS(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ts := newTestServer(t, sheriff.APIOptions{
		RateLimit: 1, RateBurst: 1,
		Now: func() time.Time { return now },
	})
	hdrs := map[string]string{"Origin": "https://ext.example"}
	doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", hdrs)
	status, body, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", hdrs)
	wantEnvelope(t, status, body, http.StatusTooManyRequests, "rate_limited")
	if got := hdr.Get("Access-Control-Allow-Origin"); got != "*" {
		t.Fatalf("429 without ACAO (%q): cross-origin callers cannot read it", got)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestCORSExposeHeaders: X-Request-ID and Retry-After are not
// CORS-safelisted; without Expose-Headers cross-origin JS cannot read
// them even on allowed responses.
func TestCORSExposeHeaders(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{AllowedOrigins: []string{"https://ext.example"}})
	_, _, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", map[string]string{
		"Origin": "https://ext.example",
	})
	exposed := hdr.Get("Access-Control-Expose-Headers")
	if !strings.Contains(exposed, "X-Request-ID") || !strings.Contains(exposed, "Retry-After") {
		t.Fatalf("Expose-Headers = %q", exposed)
	}
}

// TestCORSOriginsTrimmed: flag values arrive comma-split and possibly
// space-padded; a padded entry must still match its origin.
func TestCORSOriginsTrimmed(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{
		AllowedOrigins: []string{"https://a.example", " https://b.example"},
	})
	status, _, hdr := doReq(t, http.MethodOptions, ts.srv.URL+"/api/v1/checks", "", map[string]string{
		"Origin":                        "https://b.example",
		"Access-Control-Request-Method": "POST",
	})
	if status != http.StatusNoContent {
		t.Fatalf("padded-allowlist preflight status = %d", status)
	}
	if got := hdr.Get("Access-Control-Allow-Origin"); got != "https://b.example" {
		t.Fatalf("allow-origin = %q", got)
	}
}
