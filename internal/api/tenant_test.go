// Contract tests for the tenancy surface: API-key auth, the middleware
// ordering pin, per-tenant quotas vs the per-IP limiter, the campaign
// resource, anonymous-mode back-compat, and keyed reads on followers.
package api_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sheriff"
	"sheriff/internal/tenant"
)

// newTenantRegistry builds a registry with one admin and one contributor
// and returns it plus the two plaintext keys.
func newTenantRegistry(t *testing.T) (reg *sheriff.TenantRegistry, adminKey, contribKey string) {
	t.Helper()
	reg = sheriff.NewTenantRegistry(sheriff.TenantOptions{})
	if _, err := reg.CreateTenantWithKey("root", sheriff.TenantRoleAdmin, "sk_admin", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateTenantWithKey("alice", sheriff.TenantRoleContributor, "sk_alice", 0, 0); err != nil {
		t.Fatal(err)
	}
	return reg, "sk_admin", "sk_alice"
}

func bearer(key string) map[string]string {
	return map[string]string{"Authorization": "Bearer " + key}
}

// TestMiddlewareOrder pins the Chain assembly in NewServer: auth runs
// after request-ID assignment and counting (a 401 carries X-Request-ID
// and shows up in the stats counter) and before rate limiting (quota is
// keyed by tenant, so authenticated callers never debit the per-IP
// bucket).
func TestMiddlewareOrder(t *testing.T) {
	reg, _, contribKey := newTenantRegistry(t)
	ts := newTestServer(t, sheriff.APIOptions{
		Tenants:   reg,
		RateLimit: 1, // one anonymous request, then per-IP 429s
		RateBurst: 1,
	})

	// A rejected request still flows through RequestID and the counter:
	// the 401 is observable and correlatable.
	status, body, hdr := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/observations", "", bearer("sk_bogus"))
	wantEnvelope(t, status, body, http.StatusUnauthorized, "unauthorized")
	if hdr.Get("X-Request-ID") == "" {
		t.Fatal("401 without X-Request-ID: auth must run after RequestID")
	}

	// Authenticated requests bypass the per-IP bucket entirely: many in a
	// row all pass even though the anonymous budget is one request.
	for i := 0; i < 5; i++ {
		status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/observations", "", bearer(contribKey))
		if status != http.StatusOK {
			t.Fatalf("authed request %d = %d (%s): auth must run before the per-IP limiter", i, status, body)
		}
	}

	// The same client unauthenticated drains the per-IP budget at once.
	sawLimited := false
	for i := 0; i < 3; i++ {
		status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/observations", "", nil)
		if status == http.StatusTooManyRequests {
			wantEnvelope(t, status, body, http.StatusTooManyRequests, "rate_limited")
			sawLimited = true
			break
		}
	}
	if !sawLimited {
		t.Fatal("anonymous requests never hit the per-IP limiter")
	}

	// The 401s above were counted: the request counter sits outside auth.
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", bearer(contribKey))
	if status != http.StatusOK {
		t.Fatalf("stats = %d (%s)", status, body)
	}
	var stats sheriff.APIStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	// At least: 1 bogus-key 401 + 5 authed reads + 2 anonymous + this
	// stats call. Dropping the 401 from the count would land at 8.
	if stats.Server.Requests < 9 {
		t.Fatalf("requests counter = %d, want every request (401s included) counted", stats.Server.Requests)
	}
}

// TestTenantQuotaBucket drives a tenant into its request quota and out
// again: 429 quota_exceeded with Retry-After, while an unlimited tenant
// on the same server never blocks.
func TestTenantQuotaBucket(t *testing.T) {
	reg, _, _ := newTenantRegistry(t)
	if _, err := reg.CreateTenantWithKey("slow", sheriff.TenantRoleContributor, "sk_slow", 1, 2); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sheriff.APIOptions{Tenants: reg})
	url := ts.srv.URL + "/api/v1/observations"

	for i := 0; i < 2; i++ {
		status, body, _ := doReq(t, http.MethodGet, url, "", bearer("sk_slow"))
		if status != http.StatusOK {
			t.Fatalf("burst request %d = %d (%s)", i, status, body)
		}
	}
	status, body, hdr := doReq(t, http.MethodGet, url, "", bearer("sk_slow"))
	wantEnvelope(t, status, body, http.StatusTooManyRequests, "quota_exceeded")
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}

	// The unlimited contributor is unaffected by slow's exhaustion.
	status, body, _ = doReq(t, http.MethodGet, url, "", bearer("sk_alice"))
	if status != http.StatusOK {
		t.Fatalf("unlimited tenant = %d (%s)", status, body)
	}

	// The denial is accounted under tenancy.quota_denied, not the per-IP
	// rate_limited counter.
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", bearer("sk_alice"))
	if status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	var stats sheriff.APIStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Tenancy == nil || stats.Tenancy.QuotaDenied == 0 {
		t.Fatalf("tenancy stats = %+v, want quota_denied > 0", stats.Tenancy)
	}
	if stats.Server.RateLimited != 0 {
		t.Fatalf("rate_limited = %d, want 0 (quota denials are not per-IP denials)", stats.Server.RateLimited)
	}
}

// TestTenantErrorContract locks the new error codes to their triggers,
// one row per code — the append-only contract the SDK's IsCode leans on.
func TestTenantErrorContract(t *testing.T) {
	reg, adminKey, contribKey := newTenantRegistry(t)
	draft, err := reg.CreateCampaign("draft-c", []string{"www.digitalrev.com"}, 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	capped, err := reg.CreateCampaign("capped-c", []string{"www.digitalrev.com"}, 8, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate(capped.ID); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sheriff.APIOptions{Tenants: reg})

	// Burn the contributor's one allowed claim on the capped campaign.
	status, body, _ := doReq(t, http.MethodPost,
		ts.srv.URL+"/api/v1/campaigns/"+capped.ID+"/claim", "", bearer(contribKey))
	if status != http.StatusOK {
		t.Fatalf("first claim = %d (%s)", status, body)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		hdr        map[string]string
		wantStatus int
		wantCode   string
	}{
		{"missing key on gated endpoint", http.MethodGet, "/api/v1/tenants", nil,
			http.StatusUnauthorized, "unauthorized"},
		{"invalid key anywhere", http.MethodGet, "/api/v1/observations", bearer("sk_nope"),
			http.StatusUnauthorized, "unauthorized"},
		{"invalid key via X-API-Key", http.MethodGet, "/api/v1/observations",
			map[string]string{"X-API-Key": "sk_nope"}, http.StatusUnauthorized, "unauthorized"},
		{"contributor on admin endpoint", http.MethodGet, "/api/v1/tenants", bearer(contribKey),
			http.StatusForbidden, "forbidden"},
		{"claim on draft campaign", http.MethodPost, "/api/v1/campaigns/" + draft.ID + "/claim",
			bearer(contribKey), http.StatusConflict, "conflict"},
		{"activate active campaign", http.MethodPost, "/api/v1/campaigns/" + capped.ID + "/activate",
			bearer(adminKey), http.StatusConflict, "conflict"},
		{"claim past per-tenant quota", http.MethodPost, "/api/v1/campaigns/" + capped.ID + "/claim",
			bearer(contribKey), http.StatusTooManyRequests, "quota_exceeded"},
		{"unknown campaign", http.MethodGet, "/api/v1/campaigns/c-999999", bearer(contribKey),
			http.StatusNotFound, "not_found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body, _ := doReq(t, c.method, ts.srv.URL+c.path, "", c.hdr)
			wantEnvelope(t, status, body, c.wantStatus, c.wantCode)
		})
	}

	// A caller-supplied key colliding with a registered one is 409
	// conflict — never a 201 handing back the existing (here: admin!)
	// identity with the requested role silently ignored.
	t.Run("tenant create with taken key", func(t *testing.T) {
		status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/tenants",
			`{"name":"mallory","role":"contributor","key":"`+adminKey+`"}`, bearer(adminKey))
		wantEnvelope(t, status, body, http.StatusConflict, "conflict")
		if strings.Contains(string(body), "t-000001") {
			t.Fatalf("conflict response leaks the colliding tenant: %s", body)
		}
	})
}

// TestTenantAndCampaignEndpoints walks the admin surface over the wire:
// mint a tenant (201, plaintext key exactly once), declare and activate
// a campaign, watch a contributor claim it to completion.
func TestTenantAndCampaignEndpoints(t *testing.T) {
	reg, adminKey, _ := newTenantRegistry(t)
	ts := newTestServer(t, sheriff.APIOptions{Tenants: reg})

	status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/tenants",
		`{"name":"bob","role":"contributor"}`, bearer(adminKey))
	if status != http.StatusCreated {
		t.Fatalf("create tenant = %d (%s)", status, body)
	}
	var created sheriff.APITenant
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Key == "" || !strings.HasPrefix(created.Key, "sk_") {
		t.Fatalf("creation response key = %q, want minted sk_ key", created.Key)
	}
	bobKey := created.Key

	// The listing never re-exposes the key (nor the hash).
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/tenants", "", bearer(adminKey))
	if status != http.StatusOK {
		t.Fatalf("list tenants = %d (%s)", status, body)
	}
	if strings.Contains(string(body), bobKey) || strings.Contains(string(body), "key_hash") {
		t.Fatalf("tenant listing leaks key material: %s", body)
	}
	var listing sheriff.APITenantsResponse
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != 3 {
		t.Fatalf("tenant count = %d, want 3", listing.Count)
	}

	// Bad payloads map to bad_request.
	status, body, _ = doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/tenants",
		`{"name":"x","role":"superuser"}`, bearer(adminKey))
	wantEnvelope(t, status, body, http.StatusBadRequest, "bad_request")

	// Campaign: create (201) → activate → claim to done.
	status, body, _ = doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/campaigns",
		`{"name":"sweep","domains":["www.digitalrev.com","www.energie.it"],"rounds":1}`, bearer(adminKey))
	if status != http.StatusCreated {
		t.Fatalf("create campaign = %d (%s)", status, body)
	}
	var camp sheriff.APICampaign
	if err := json.Unmarshal(body, &camp); err != nil {
		t.Fatal(err)
	}
	if camp.State != "draft" || camp.TotalUnits != 2 || camp.CreatedBy != "t-000001" {
		t.Fatalf("created campaign = %+v", camp)
	}

	status, body, _ = doReq(t, http.MethodPost,
		ts.srv.URL+"/api/v1/campaigns/"+camp.ID+"/activate", "", bearer(adminKey))
	if status != http.StatusOK {
		t.Fatalf("activate = %d (%s)", status, body)
	}

	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		status, body, _ = doReq(t, http.MethodPost,
			ts.srv.URL+"/api/v1/campaigns/"+camp.ID+"/claim", "", bearer(bobKey))
		if status != http.StatusOK {
			t.Fatalf("claim %d = %d (%s)", i, status, body)
		}
		var cl sheriff.APIClaimResponse
		if err := json.Unmarshal(body, &cl); err != nil {
			t.Fatal(err)
		}
		seen[cl.Domain] = true
	}
	if !seen["www.digitalrev.com"] || !seen["www.energie.it"] {
		t.Fatalf("claims covered %v, want both domains", seen)
	}

	// Exhausted: done flag, no error.
	status, body, _ = doReq(t, http.MethodPost,
		ts.srv.URL+"/api/v1/campaigns/"+camp.ID+"/claim", "", bearer(bobKey))
	if status != http.StatusOK {
		t.Fatalf("claim on done = %d (%s)", status, body)
	}
	var done sheriff.APIClaimResponse
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done {
		t.Fatalf("claim on exhausted campaign = %+v, want done", done)
	}

	status, body, _ = doReq(t, http.MethodGet,
		ts.srv.URL+"/api/v1/campaigns/"+camp.ID, "", bearer(bobKey))
	if status != http.StatusOK {
		t.Fatalf("get campaign = %d (%s)", status, body)
	}
	var final sheriff.APICampaign
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Claimed != 2 || final.Claims["t-000003"] != 2 {
		t.Fatalf("final campaign = %+v", final)
	}

	// Route-table dispatch: wrong verb → 405 with Allow, bare OPTIONS →
	// 204 with Allow.
	status, body, hdr := doReq(t, http.MethodDelete, ts.srv.URL+"/api/v1/campaigns", "", bearer(adminKey))
	wantEnvelope(t, status, body, http.StatusMethodNotAllowed, "method_not_allowed")
	if allow := hdr.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Fatalf("Allow = %q, want GET and POST", allow)
	}
	status, _, hdr = doReq(t, http.MethodOptions, ts.srv.URL+"/api/v1/campaigns", "", nil)
	if status != http.StatusNoContent || hdr.Get("Allow") == "" {
		t.Fatalf("OPTIONS = %d, Allow %q", status, hdr.Get("Allow"))
	}
}

// TestTenantDimensionInStatsAndReport submits an authenticated check and
// follows the tenant dimension through /api/v1/stats and the domain
// report.
func TestTenantDimensionInStatsAndReport(t *testing.T) {
	reg, _, contribKey := newTenantRegistry(t)
	ts := newTestServer(t, sheriff.APIOptions{Tenants: reg})

	status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/checks",
		validCheckBody(t, ts.w), bearer(contribKey))
	if status != http.StatusOK {
		t.Fatalf("authed check = %d (%s)", status, body)
	}

	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	var stats sheriff.APIStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	tc, ok := stats.ByTenant["t-000002"] // alice
	if !ok || tc.Total == 0 {
		t.Fatalf("stats.by_tenant = %+v, want alice's contributions", stats.ByTenant)
	}
	if stats.Tenancy == nil || stats.Tenancy.Tenants != 2 {
		t.Fatalf("stats.tenancy = %+v", stats.Tenancy)
	}

	status, body, _ = doReq(t, http.MethodGet,
		ts.srv.URL+"/api/v1/domains/www.digitalrev.com/report", "", nil)
	if status != http.StatusOK {
		t.Fatalf("report = %d (%s)", status, body)
	}
	var rep struct {
		ByTenant map[string]struct {
			Total int `json:"total"`
		} `json:"by_tenant"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ByTenant["t-000002"].Total == 0 {
		t.Fatalf("report.by_tenant = %+v, want alice's contributions", rep.ByTenant)
	}

	// Tenant is a first-class observation filter.
	status, body, _ = doReq(t, http.MethodGet,
		ts.srv.URL+"/api/v1/observations?tenant=t-000002&limit=5", "", nil)
	if status != http.StatusOK {
		t.Fatalf("filtered observations = %d", status)
	}
	var page sheriff.APIObservationsPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Count == 0 {
		t.Fatal("tenant filter returned nothing")
	}
	for _, o := range page.Observations {
		if o.Tenant != "t-000002" {
			t.Fatalf("observation tenant = %q, want t-000002", o.Tenant)
		}
	}
	if status, _, _ := doReq(t, http.MethodGet,
		ts.srv.URL+"/api/v1/observations?tenant=t-000001&limit=5", "", nil); status != http.StatusOK {
		t.Fatalf("other-tenant filter = %d", status)
	}
}

// TestAnonymousBackCompat holds the no-tenants surface to its
// pre-tenancy behavior: keys are ignored, the pre-existing role-gated
// rows are open, stats carry no tenancy fields, and the per-IP limiter
// still guards everything. The one exception is tenant management,
// which is strict: an empty registry must not be a first-come-takeover
// window, so /api/v1/tenants rejects everyone until an operator
// bootstraps an admin with -admin-key.
func TestAnonymousBackCompat(t *testing.T) {
	ts := newTestServer(t, sheriff.APIOptions{})

	// No self-serve bootstrap: an anonymous caller cannot register
	// itself as the server's first (admin!) tenant, and the listing is
	// locked too.
	status, body, _ := doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/tenants",
		`{"name":"mallory","role":"admin","key":"sk_mallory"}`, nil)
	wantEnvelope(t, status, body, http.StatusUnauthorized, "unauthorized")
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/tenants", "", nil)
	wantEnvelope(t, status, body, http.StatusUnauthorized, "unauthorized")
	// A stray key changes nothing: with no tenants registered, nothing
	// can authenticate.
	status, body, _ = doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/tenants",
		`{"name":"mallory","role":"admin"}`, bearer("sk_mallory"))
	wantEnvelope(t, status, body, http.StatusUnauthorized, "unauthorized")

	// A stray Authorization header is not an error in anonymous mode.
	status, body, _ = doReq(t, http.MethodPost, ts.srv.URL+"/api/v1/checks",
		validCheckBody(t, ts.w), bearer("sk_whatever"))
	if status != http.StatusOK {
		t.Fatalf("check with stray key = %d (%s)", status, body)
	}

	// No tenancy keys appear anywhere in the stats body.
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("stats = %d", status)
	}
	for _, needle := range []string{"by_tenant", "tenancy"} {
		if strings.Contains(string(body), needle) {
			t.Fatalf("anonymous stats body contains %q: %s", needle, body)
		}
	}

	// Campaign listing works unauthenticated (empty, not 401).
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/campaigns", "", nil)
	if status != http.StatusOK {
		t.Fatalf("anonymous campaign list = %d (%s)", status, body)
	}

	// The per-IP limiter still applies to everything.
	limited := newTestServer(t, sheriff.APIOptions{RateLimit: 1, RateBurst: 1})
	saw429 := false
	for i := 0; i < 3; i++ {
		status, body, _ = doReq(t, http.MethodGet, limited.srv.URL+"/api/v1/stats", "", nil)
		if status == http.StatusTooManyRequests {
			wantEnvelope(t, status, body, http.StatusTooManyRequests, "rate_limited")
			saw429 = true
			break
		}
	}
	if !saw429 {
		t.Fatal("per-IP limiter inactive in anonymous mode")
	}
}

// TestFollowerTenantReads replicates tenancy to a follower through the
// real Sync loop and exercises the keyed read path: valid keys read (200
// with follower role headers), writes stay 403 read_only, bad keys 401.
func TestFollowerTenantReads(t *testing.T) {
	preg, adminKey, contribKey := newTenantRegistry(t)
	primary := newTestServer(t, sheriff.APIOptions{Tenants: preg})

	// Follower: its own empty registry, filled by polling the primary's
	// tenancy snapshot endpoint.
	freg := sheriff.NewTenantRegistry(sheriff.TenantOptions{})
	fst := sheriff.NewStore()
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, LongTail: 6, Store: fst})
	fsrv := newHTTPServer(t, sheriff.NewAPIWithOptions(w, sheriff.APIOptions{
		Follower: sheriff.NewFollower(primary.srv.URL, fst, sheriff.FollowerOptions{}),
		Tenants:  freg,
	}))

	// The sync loop authenticates with an admin key: the snapshot is
	// admin-gated on a tenancy-enabled primary.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sheriff.RunTenantSync(ctx, primary.srv.URL, freg, sheriff.TenantSyncOptions{
		Interval: 10 * time.Millisecond, APIKey: adminKey,
	})

	deadline := time.Now().Add(5 * time.Second)
	for freg.Version() != preg.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("tenancy never replicated: follower at %d, primary at %d", freg.Version(), preg.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A key minted on the primary authenticates reads on the follower.
	status, body, hdr := doReq(t, http.MethodGet, fsrv+"/api/v1/observations", "", bearer(contribKey))
	if status != http.StatusOK {
		t.Fatalf("keyed follower read = %d (%s)", status, body)
	}
	if hdr.Get("X-Sheriff-Role") != "follower" {
		t.Fatalf("X-Sheriff-Role = %q, want follower", hdr.Get("X-Sheriff-Role"))
	}

	// Writes stay read-only even with a valid key, pointing home.
	status, body, hdr = doReq(t, http.MethodPost, fsrv+"/api/v1/checks", "{}", bearer(contribKey))
	wantEnvelope(t, status, body, http.StatusForbidden, "read_only")
	if loc := hdr.Get("Location"); !strings.HasPrefix(loc, primary.srv.URL) {
		t.Fatalf("read-only Location = %q, want primary", loc)
	}

	// Bad keys are rejected against the replicated hashes, not waved
	// through and not blanket-403'd.
	status, body, _ = doReq(t, http.MethodGet, fsrv+"/api/v1/observations", "", bearer("sk_evil"))
	wantEnvelope(t, status, body, http.StatusUnauthorized, "unauthorized")

	// New tenants minted on the primary become valid within a poll.
	if _, err := preg.CreateTenantWithKey("late", sheriff.TenantRoleContributor, "sk_late", 0, 0); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		status, _, _ = doReq(t, http.MethodGet, fsrv+"/api/v1/observations", "", bearer("sk_late"))
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late key never replicated (last status %d)", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTenantSnapshotEndpoint covers the replication source itself: the
// snapshot carries key hashes, so once tenancy is enabled it serves
// admins only — anonymous and contributor callers must never see
// digests they could crack offline.
func TestTenantSnapshotEndpoint(t *testing.T) {
	reg, adminKey, contribKey := newTenantRegistry(t)
	ts := newTestServer(t, sheriff.APIOptions{Tenants: reg})

	status, body, _ := doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/replication/tenants", "", nil)
	wantEnvelope(t, status, body, http.StatusUnauthorized, "unauthorized")
	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/replication/tenants", "", bearer(contribKey))
	wantEnvelope(t, status, body, http.StatusForbidden, "forbidden")

	status, body, _ = doReq(t, http.MethodGet, ts.srv.URL+"/api/v1/replication/tenants", "", bearer(adminKey))
	if status != http.StatusOK {
		t.Fatalf("admin snapshot = %d (%s)", status, body)
	}
	var st tenant.State
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) != 2 || st.Version != reg.Version() {
		t.Fatalf("snapshot = %d tenants at version %d, want 2 at %d", len(st.Tenants), st.Version, reg.Version())
	}
	// Hashes replicate; no plaintext key field exists to leak.
	for _, tn := range st.Tenants {
		if tn.KeyHash != tenant.HashKey("sk_admin") && tn.KeyHash != tenant.HashKey("sk_alice") {
			t.Fatalf("unexpected key hash %q", tn.KeyHash)
		}
	}
	if strings.Contains(string(body), "sk_admin") || strings.Contains(string(body), "sk_alice") {
		t.Fatalf("snapshot leaks plaintext keys: %s", body)
	}

	// While the registry is empty the snapshot stays open — a follower
	// must be able to start polling a not-yet-tenanted primary — and is
	// empty, so there is nothing to leak.
	anon := newTestServer(t, sheriff.APIOptions{})
	status, body, _ = doReq(t, http.MethodGet, anon.srv.URL+"/api/v1/replication/tenants", "", nil)
	if status != http.StatusOK {
		t.Fatalf("anonymous-mode snapshot = %d (%s)", status, body)
	}
	var empty tenant.State
	if err := json.Unmarshal(body, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Tenants) != 0 || empty.Version != 0 {
		t.Fatalf("anonymous-mode snapshot = %+v, want empty", empty)
	}
}

// newHTTPServer mounts a handler and returns its base URL (testServer's
// sibling for servers whose options the caller assembles directly).
func newHTTPServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}
