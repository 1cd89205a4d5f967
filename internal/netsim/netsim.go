// Package netsim is the virtual internet the reproduction runs on.
//
// The paper measured live retailers from 14 vantage points. Offline, we
// replace the wire with an in-process fabric: retailers register an
// http.Handler under their domain in a Registry, and every client —
// vantage point, crowd user, crawler — talks to them through a Transport
// that implements http.RoundTripper and carries the client's source IP.
// Retailers geo-locate that IP exactly the way production sites resolve
// visitor addresses, so the entire measurement stack (net/http clients,
// cookie jars, redirects) is exercised unmodified.
//
// Time is simulated: a Clock owned by the world replaces the wall clock so
// a "week of daily crawls" takes milliseconds and every run is
// reproducible.
package netsim

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"time"
)

// Clock is a simulated wall clock. The zero Clock starts at the Unix epoch;
// NewClock sets an explicit origin. Clock is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock returns a clock set to origin.
func NewClock(origin time.Time) *Clock {
	return &Clock{now: origin.UTC()}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
// Negative d is a programming error and panics: simulated time is
// monotonic by construction.
func (c *Clock) Advance(d time.Duration) time.Time {
	if d < 0 {
		panic("netsim: Advance with negative duration")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Set jumps the clock to t. It panics if t is before the current time.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t = t.UTC()
	if t.Before(c.now) {
		panic("netsim: Set moves the clock backwards")
	}
	c.now = t
}

// Registry maps domains to the http.Handler that serves them — the
// simulation's DNS plus hosting. Registry is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	domains map[string]http.Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{domains: make(map[string]http.Handler)}
}

// Register serves domain with h. Registering a domain twice replaces the
// previous handler (a site redeploy).
func (r *Registry) Register(domain string, h http.Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.domains[strings.ToLower(domain)] = h
}

// Lookup resolves a domain.
func (r *Registry) Lookup(domain string) (http.Handler, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.domains[strings.ToLower(domain)]
	return h, ok
}

// Domains returns all registered domains (unordered).
func (r *Registry) Domains() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.domains))
	for d := range r.domains {
		out = append(out, d)
	}
	return out
}

// Transport is an http.RoundTripper bound to a source IP on the virtual
// fabric. It resolves the request's host through the Registry, stamps the
// request with the source address and simulated time, and invokes the
// registered handler in-process.
type Transport struct {
	// Registry resolves domains; required.
	Registry *Registry
	// Clock provides simulated time; required.
	Clock *Clock
	// Source is the client's egress IP; retailers geo-locate it.
	Source netip.Addr
}

// Header names the fabric stamps onto requests. Handlers read them instead
// of TCP metadata.
const (
	// HeaderClientIP carries the source address; the handler side of a real
	// CDN would read X-Forwarded-For.
	HeaderClientIP = "X-Sim-Client-IP"
	// HeaderSimTime carries the simulated request time in RFC 3339 format.
	HeaderSimTime = "X-Sim-Time"
)

// NewTransport builds a transport for one client egress.
func NewTransport(reg *Registry, clk *Clock, src netip.Addr) *Transport {
	return &Transport{Registry: reg, Clock: clk, Source: src}
}

// RoundTrip implements http.RoundTripper on the virtual fabric.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Registry == nil || t.Clock == nil {
		return nil, fmt.Errorf("netsim: transport not initialized")
	}
	host := req.URL.Hostname()
	h, ok := t.Registry.Lookup(host)
	if !ok {
		return nil, &NXDomainError{Domain: host}
	}

	// Clone the request so handler-side mutation cannot leak back.
	hreq := req.Clone(req.Context())
	hreq.RemoteAddr = t.Source.String() + ":34567"
	hreq.Header.Set(HeaderClientIP, t.Source.String())
	hreq.Header.Set(HeaderSimTime, t.Clock.Now().Format(time.RFC3339))
	if hreq.Header.Get("User-Agent") == "" && req.UserAgent() != "" {
		hreq.Header.Set("User-Agent", req.UserAgent())
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hreq)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// NXDomainError reports a domain missing from the registry — the fabric's
// equivalent of a DNS NXDOMAIN.
type NXDomainError struct {
	// Domain is the name that failed to resolve.
	Domain string
}

// Error implements the error interface.
func (e *NXDomainError) Error() string {
	return fmt.Sprintf("netsim: no such domain %q", e.Domain)
}

// Client returns an *http.Client that sends through the transport. Cookie
// handling is the caller's choice: pass a jar or nil.
func (t *Transport) Client(jar http.CookieJar) *http.Client {
	return &http.Client{Transport: t, Jar: jar}
}
