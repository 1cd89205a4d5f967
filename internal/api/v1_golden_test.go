// Golden-file shape tests freezing the v1 wire contract: one
// deterministic replay sequence against a seed-1 world, every response
// body compared byte-for-byte. A failing diff here means the v1
// contract changed — either fix the regression or (for a deliberate,
// versioned change) regenerate with:
//
//	go test ./internal/api -run TestV1Golden -update
package api_test

import (
	"encoding/base64"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sheriff"
)

var update = flag.Bool("update", false, "rewrite golden files from the live server")

// snapshot renders one response the way the golden files store it:
// status line, content type, blank line, body.
func snapshot(status int, contentType, body string) string {
	return fmt.Sprintf("%d\n%s\n\n%s", status, contentType, body)
}

func indent(s string) string {
	return "\t" + strings.ReplaceAll(s, "\n", "\n\t")
}

func TestV1GoldenWireContract(t *testing.T) {
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6})
	srv := httptest.NewServer(sheriff.NewAPIWithOptions(w, sheriff.APIOptions{
		Logger: log.New(io.Discard, "", 0),
	}))
	defer srv.Close()
	seedObservations(w)

	valid := validCheckBody(t, w)
	batch := fmt.Sprintf(`{"checks":[%s,{"url":"http://no.such.shop/product/X","highlight":"$1.00","user_addr":"10.0.1.50"}]}`, valid)

	// The replay sequence runs in order against one world; earlier
	// requests' state (the check counter, the learned anchor) is part of
	// the frozen payloads.
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		accept string
	}{
		{"check_single", http.MethodPost, "/api/v1/checks", valid, ""},
		{"check_batch", http.MethodPost, "/api/v1/checks", batch, ""},
		{"check_405", http.MethodGet, "/api/v1/checks", "", ""},
		{"check_nxdomain", http.MethodPost, "/api/v1/checks",
			`{"url":"http://no.such.shop/product/X","highlight":"$1.00","user_addr":"10.0.1.50"}`, ""},
		{"check_bad_addr", http.MethodPost, "/api/v1/checks",
			`{"url":"http://www.digitalrev.com/product/X","highlight":"$1.00","user_addr":"nope"}`, ""},
		{"observations_page", http.MethodGet, "/api/v1/observations?domain=seed0.example.com&limit=3", "", ""},
		{"observations_page2", http.MethodGet,
			"/api/v1/observations?domain=seed0.example.com&limit=3&cursor=" + encodeCursorForTest(3), "", ""},
		{"observations_ndjson", http.MethodGet, "/api/v1/observations?domain=seed0.example.com&sku=SKU-0", "",
			"application/x-ndjson"},
		{"observations_bad_cursor", http.MethodGet, "/api/v1/observations?cursor=bm9wZQ", "", ""},
		{"domain_report", http.MethodGet, "/api/v1/domains/seed0.example.com/report", "", ""},
		{"domain_report_404", http.MethodGet, "/api/v1/domains/never.seen/report", "", ""},
		{"anchors", http.MethodGet, "/api/v1/anchors", "", ""},
		{"stats", http.MethodGet, "/api/v1/stats", "", ""},
		{"unknown_endpoint", http.MethodGet, "/api/v1/zzz", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
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
			got := snapshot(resp.StatusCode, resp.Header.Get("Content-Type"), string(raw))
			path := filepath.Join("testdata", "v1", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update on a known-good tree): %v", err)
			}
			if got != string(want) {
				t.Errorf("v1 %s %s drifted from the frozen contract:\n--- want\n%s\n--- got\n%s",
					tc.method, tc.path, indent(string(want)), indent(got))
			}
		})
	}
}

// encodeCursorForTest mirrors the server's cursor encoding for the
// page-2 golden request (base64url of "v1:<offset>").
func encodeCursorForTest(offset int) string {
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("v1:%d", offset)))
}
