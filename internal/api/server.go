package api

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/netip"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/aggregate"
	"sheriff/internal/backend"
	"sheriff/internal/replica"
	"sheriff/internal/store"
	"sheriff/internal/tenant"
)

// Options tunes the middleware stack. The zero value serves: CORS open
// to every origin (the crowd's extension installs call from anywhere),
// a 1 MiB body limit, rate limiting off, logging through the process
// default logger.
type Options struct {
	// AllowedOrigins is the CORS allowlist; empty or containing "*"
	// admits every origin.
	AllowedOrigins []string
	// MaxBodyBytes caps request bodies (default 1 MiB; <0 disables).
	MaxBodyBytes int64
	// RateLimit is the per-client budget in requests/second; 0 disables.
	RateLimit float64
	// RateBurst is the bucket depth (default: RateLimit, minimum 1).
	RateBurst int
	// TrustProxyHeaders keys rate limiting on the first X-Forwarded-For
	// hop. Enable ONLY behind a proxy that sets the header itself;
	// otherwise the header is client-controlled and defeats the limiter.
	TrustProxyHeaders bool
	// Logger receives request lines and server-side errors; nil uses the
	// process default. Silence with log.New(io.Discard, "", 0).
	Logger *log.Logger
	// Now is the wall clock the rate limiter refills on; nil uses
	// time.Now. Injectable for tests.
	Now func() time.Time
	// ReadOnly rejects every write endpoint with the typed read_only
	// envelope — follower mode. PrimaryURL, when set, rides along in the
	// rejection's Location header and error detail.
	ReadOnly   bool
	PrimaryURL string
	// Follower is the replication engine this server fronts; it feeds the
	// stats replication block, the readiness probe and the role headers.
	// Nil means the node is a primary.
	Follower *replica.Follower
	// ReadyMaxLag is the lag (in sequence numbers) past which a
	// follower's /api/v1/readyz flips unready (default 8192).
	ReadyMaxLag uint64
	// Tenants is the identity registry: API keys, roles, quotas and
	// campaigns. Nil constructs an empty in-memory registry, which leaves
	// the server in anonymous mode (no auth anywhere) until a tenant is
	// created. On followers, pass the registry the tenancy sync loop
	// restores into, so keys validate against replicated state.
	Tenants *tenant.Registry
}

// Server is the versioned HTTP surface:
//
//	POST /api/v1/checks                    one check, or {"checks":[...]} batch
//	GET  /api/v1/observations              cursor-paginated query; NDJSON stream
//	                                       with Accept: application/x-ndjson
//	GET  /api/v1/domains/{domain}/report   per-domain variation + strategy report
//	GET  /api/v1/stats                     counters: checks, store, cache, server
//	GET  /api/v1/anchors                   learned anchors per domain
//	GET  /api/v1/events                    analysis event log; NDJSON/SSE tail
//
// plus tenancy, replication and health routes (see routes.go). Domain
// reports, events and the stats "analysis" block are served off the
// incremental analysis engine the server is built with.
type Server struct {
	backend  *backend.Backend
	store    store.Reader
	opts     Options
	analysis *aggregate.Engine
	follower *replica.Follower
	tenants  *tenant.Registry
	handler  http.Handler

	// start anchors the health probes' uptime; epoch is the process
	// replication identity a memory-engine primary streams under (a
	// durable primary uses its directory's committed epoch instead).
	start time.Time
	epoch uint64
	// stop releases tailing replication streams on shutdown (see Stop).
	stop     chan struct{}
	stopOnce sync.Once

	// requests counts everything served; rateDenied what the limiter
	// rejected. Both surface in /api/v1/stats.
	requests   atomic.Uint64
	rateDenied *atomic.Uint64
}

// NewServer wraps a backend and its incremental analysis engine (which
// must fold the backend's store) with the v1 surface and middleware
// stack.
func NewServer(b *backend.Backend, analysis *aggregate.Engine, opts Options) *Server {
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	// Normalize the CORS allowlist: flag values arrive comma-split and
	// possibly space-padded, and corsAllowed compares exactly.
	origins := opts.AllowedOrigins[:0:0]
	for _, o := range opts.AllowedOrigins {
		if o = strings.TrimSpace(o); o != "" {
			origins = append(origins, o)
		}
	}
	opts.AllowedOrigins = origins
	if opts.ReadyMaxLag == 0 {
		opts.ReadyMaxLag = 8192
	}
	if opts.Tenants == nil {
		opts.Tenants = tenant.NewRegistry(tenant.Options{})
	}
	s := &Server{
		backend: b, store: b.Store(), opts: opts, analysis: analysis,
		follower: opts.Follower,
		tenants:  opts.Tenants,
		start:    time.Now(),
		epoch:    store.NewReplicationEpoch(),
		stop:     make(chan struct{}),
	}

	// The whole surface — v1 endpoints and the v1 404 fallback —
	// registers from the declarative route table in routes.go: one place
	// drives mux registration, the structured 405s, the follower-side
	// read-only rejection and the per-route role check.
	mux := http.NewServeMux()
	s.registerRoutes(mux)

	// Middleware order (outermost first) is a pinned contract
	// (TestMiddlewareOrder): counting, request IDs and logging precede
	// auth so rejected credentials still carry X-Request-ID and are
	// counted; CORS sits outside both limiters so a throttled
	// cross-origin caller still receives the ACAO header (otherwise the
	// browser hides the 429 envelope and Retry-After behind an opaque
	// CORS error); auth precedes the limiters so authenticated calls are
	// quota'd by tenant, never by IP.
	mws := []Middleware{s.countRequests, RequestID(), Logging(opts.Logger), Recover(opts.Logger),
		CORS(opts.AllowedOrigins), s.roleHeaders, s.auth, s.tenantQuota}
	if opts.RateLimit > 0 {
		rl := newRateLimiter(opts.RateLimit, opts.RateBurst, opts.TrustProxyHeaders, opts.Now)
		s.rateDenied = &rl.denied
		ipLimit := rl.middleware(opts.Logger)
		// The per-IP limiter only sees anonymous traffic: authenticated
		// requests were already debited from their tenant's bucket.
		mws = append(mws, func(next http.Handler) http.Handler {
			limited := ipLimit(next)
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if _, ok := tenantFrom(r.Context()); ok {
					next.ServeHTTP(w, r)
					return
				}
				limited.ServeHTTP(w, r)
			})
		})
	}
	if opts.MaxBodyBytes > 0 {
		mws = append(mws, BodyLimit(opts.MaxBodyBytes))
	}
	s.handler = Chain(mux, mws...)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// countRequests is the innermost-facing outer layer: every request that
// reaches the server increments the counter, limiter rejections included.
func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		next.ServeHTTP(w, r)
	})
}

// CheckPayload is the v1 wire form of one check submission (the address
// travels as a string) — the body the browser extension posts.
type CheckPayload struct {
	URL       string `json:"url"`
	Highlight string `json:"highlight"`
	UserAddr  string `json:"user_addr"`
	UserID    string `json:"user_id"`
	UserAgent string `json:"user_agent,omitempty"`
}

// BatchCheckRequest is the batch form: the extension (or a campaign
// script) submits several highlights in one round trip.
type BatchCheckRequest struct {
	Checks []CheckPayload `json:"checks"`
}

// BatchCheckItem is one batch entry's outcome: exactly one of Result or
// Error is set, so a batch is never all-or-nothing.
type BatchCheckItem struct {
	Result *backend.CheckResult `json:"result,omitempty"`
	Error  *Error               `json:"error,omitempty"`
}

// BatchCheckResponse wraps the per-item outcomes in submission order.
type BatchCheckResponse struct {
	Results []BatchCheckItem `json:"results"`
}

// maxBatchChecks bounds one batch; the body limit bounds bytes, this
// bounds backend work (each check is a 14-VP fan-out).
const maxBatchChecks = 64

// handleChecks serves POST /api/v1/checks: a single check object, or
// {"checks":[...]} for a batch. Single responses are the CheckResult
// itself; batches wrap per-item results and errors.
func (s *Server) handleChecks(w http.ResponseWriter, r *http.Request) {
	// The contributing tenant (empty when anonymous) stamps every
	// observation this request produces.
	var tenantID string
	if t, ok := tenantFrom(r.Context()); ok {
		tenantID = t.ID
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, s.opts.Logger, mapBodyError(err))
		return
	}
	// A batch announces itself with the "checks" key; anything else is
	// treated as a single check payload.
	var probe struct {
		Checks json.RawMessage `json:"checks"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
			"bad payload").withDetail(err))
		return
	}
	if probe.Checks != nil {
		var batch BatchCheckRequest
		if err := json.Unmarshal(body, &batch); err != nil {
			writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
				"bad batch payload").withDetail(err))
			return
		}
		if len(batch.Checks) == 0 {
			writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
				"batch has no checks"))
			return
		}
		if len(batch.Checks) > maxBatchChecks {
			writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
				"batch of %d exceeds the %d-check limit", len(batch.Checks), maxBatchChecks))
			return
		}
		resp := BatchCheckResponse{Results: make([]BatchCheckItem, len(batch.Checks))}
		for i, p := range batch.Checks {
			res, err := s.runCheck(p, tenantID)
			if err != nil {
				resp.Results[i].Error = err
				continue
			}
			resp.Results[i].Result = &res
		}
		writeJSON(w, s.opts.Logger, resp)
		return
	}
	var p CheckPayload
	if err := json.Unmarshal(body, &p); err != nil {
		writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
			"bad payload").withDetail(err))
		return
	}
	res, checkErr := s.runCheck(p, tenantID)
	if checkErr != nil {
		writeError(w, s.opts.Logger, checkErr)
		return
	}
	writeJSON(w, s.opts.Logger, res)
}

// runCheck validates one payload and runs it through the backend,
// translating failures into the typed envelope. tenantID (empty when
// anonymous) rides into the stored observations.
func (s *Server) runCheck(p CheckPayload, tenantID string) (backend.CheckResult, *Error) {
	if p.URL == "" || p.Highlight == "" {
		return backend.CheckResult{}, errf(http.StatusBadRequest, CodeBadRequest,
			"url and highlight are required")
	}
	// A URL that does not parse or carries no host is client input error,
	// not an upstream failure — classify it before the backend wraps it.
	if u, err := url.Parse(p.URL); err != nil || u.Hostname() == "" {
		return backend.CheckResult{}, errf(http.StatusBadRequest, CodeBadRequest,
			"url %q is not a product URL", p.URL).withDetail(err)
	}
	addr, err := netip.ParseAddr(p.UserAddr)
	if err != nil {
		return backend.CheckResult{}, errf(http.StatusBadRequest, CodeBadRequest,
			"bad user_addr %q", p.UserAddr).withDetail(err)
	}
	res, err := s.backend.Check(backend.CheckRequest{
		URL: p.URL, Highlight: p.Highlight, UserAddr: addr, UserID: p.UserID,
		UserAgent: p.UserAgent, Tenant: tenantID,
	})
	if err != nil {
		return backend.CheckResult{}, mapCheckError(err)
	}
	return res, nil
}

// handleAnchors serves GET /api/v1/anchors: the learned anchors keyed by
// domain, wrapped so the envelope can grow fields compatibly.
func (s *Server) handleAnchors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.opts.Logger, struct {
		Anchors any `json:"anchors"`
	}{s.backend.Anchors()})
}

// SourceCount splits one campaign source's observations into total and
// successfully extracted.
type SourceCount struct {
	Total int `json:"total"`
	OK    int `json:"ok"`
}

// StatsResponse is the v1 stats payload — check, observation and cache
// counters, the store's per-source split, domain count, the analysis
// engine's counters, and the HTTP server's own counters.
type StatsResponse struct {
	Checks       int                    `json:"checks"`
	Observations int                    `json:"observations"`
	OKPrices     int                    `json:"ok_prices"`
	Domains      int                    `json:"domains"`
	ByVP         map[string]int         `json:"by_vp,omitempty"`
	BySource     map[string]SourceCount `json:"by_source,omitempty"`
	// ByTenant splits contributions per authenticated tenant — the
	// paper's reward/leaderboard ledger. Absent in anonymous mode.
	ByTenant map[string]SourceCount `json:"by_tenant,omitempty"`
	Cache    struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Durable  *store.DurableStats `json:"durable,omitempty"`
	Analysis *aggregate.Stats    `json:"analysis,omitempty"`
	// Replication reports the node's cluster role and stream state —
	// present on every node, so "is this a follower, and how far behind"
	// is one stats call on either side.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Scan reports the store's time-range pushdown counters when the
	// backing store exposes them (both engines do): how many (shard,
	// bucket) partitions time-bounded scans walked versus skipped.
	Scan *store.ScanStats `json:"scan,omitempty"`
	// Tenancy reports the identity registry while tenancy is active;
	// absent in anonymous mode so pre-tenancy stats bodies stay
	// byte-identical.
	Tenancy *tenant.Stats `json:"tenancy,omitempty"`
	Server  struct {
		Requests    uint64 `json:"requests"`
		RateLimited uint64 `json:"rate_limited"`
	} `json:"server"`
}

// handleStats serves GET /api/v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Checks:       s.backend.Checks(),
		Observations: s.store.Len(),
		OKPrices:     s.store.LenOK(),
		Domains:      len(s.store.Domains()),
	}
	resp.Cache.Hits, resp.Cache.Misses = s.backend.PageCacheStats()
	for _, src := range []string{store.SourceCrowd, store.SourceCrawl, store.SourceLogin, store.SourcePersona} {
		if total, ok := s.store.LenSource(src); total > 0 {
			if resp.BySource == nil {
				resp.BySource = make(map[string]SourceCount)
			}
			resp.BySource[src] = SourceCount{Total: total, OK: ok}
		}
	}
	for _, vp := range s.backend.VantagePoints() {
		if n := s.store.LenVP(vp.ID); n > 0 {
			if resp.ByVP == nil {
				resp.ByVP = make(map[string]int)
			}
			resp.ByVP[vp.ID] = n
		}
	}
	if d, ok := s.backend.Store().(*store.Durable); ok {
		stats := d.Stats()
		resp.Durable = &stats
	}
	if sc, ok := s.backend.Store().(interface{ ScanStats() store.ScanStats }); ok {
		stats := sc.ScanStats()
		resp.Scan = &stats
	}
	if tc, ok := s.backend.Store().(interface {
		TenantCounts() map[string]store.TenantCount
	}); ok {
		for tn, c := range tc.TenantCounts() {
			if resp.ByTenant == nil {
				resp.ByTenant = make(map[string]SourceCount)
			}
			resp.ByTenant[tn] = SourceCount{Total: c.Total, OK: c.OK}
		}
	}
	if s.tenants.Enabled() {
		ts := s.tenants.Stats()
		resp.Tenancy = &ts
	}
	stats := s.analysis.Stats()
	resp.Analysis = &stats
	repl := s.replicationStats()
	resp.Replication = &repl
	resp.Server.Requests = s.requests.Load()
	if s.rateDenied != nil {
		resp.Server.RateLimited = s.rateDenied.Load()
	}
	writeJSON(w, s.opts.Logger, resp)
}
