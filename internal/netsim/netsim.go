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
	"net/netip"
	"strconv"
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
// of TCP metadata. Both are spelled in canonical form, so http.Header's
// Get and Set use them as they are.
const (
	// HeaderClientIP carries the source address; the handler side of a real
	// CDN would read X-Forwarded-For.
	HeaderClientIP = "X-Sim-Client-Ip"
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
	src := t.Source.String()
	hreq := req.Clone(req.Context())
	hreq.RemoteAddr = src + ":34567"
	hreq.Header.Set(HeaderClientIP, src)
	hreq.Header.Set(HeaderSimTime, t.Clock.Now().Format(time.RFC3339))

	rw := responseWriter{header: make(http.Header)}
	h.ServeHTTP(&rw, hreq)
	return rw.response(req), nil
}

// responseWriter is the handler's side of a fabric response. It keeps
// what net/http's recorder keeps and a client reads: the status (200
// unless the handler writes another first), the header as it stood at
// the first write, a Content-Type sniffed from the body when the handler
// set none, and the body, of which the response declares the exact
// length. A body written in one piece is kept as written, not copied.
type responseWriter struct {
	header http.Header
	// sent is the header as it stood at the first write; once it is set,
	// Header hands the handler a copy (late) whose changes reach no
	// response.
	sent, late http.Header
	code       int
	body       string
}

// Header implements http.ResponseWriter.
func (w *responseWriter) Header() http.Header {
	if w.sent == nil {
		return w.header
	}
	if w.late == nil {
		w.late = w.sent.Clone()
	}
	return w.late
}

// WriteHeader implements http.ResponseWriter; only the first call counts.
func (w *responseWriter) WriteHeader(code int) {
	if w.sent != nil {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.code, w.sent = code, w.header
}

// Write implements http.ResponseWriter. It copies p, which the caller may
// reuse.
func (w *responseWriter) Write(p []byte) (int, error) {
	return w.WriteString(string(p))
}

// WriteString implements io.StringWriter, so io.WriteString hands a page
// over without a copy. The first write sends the header, with the body's
// sniffed Content-Type when the handler set none.
func (w *responseWriter) WriteString(s string) (int, error) {
	if w.sent == nil {
		if _, ok := w.header["Content-Type"]; !ok && w.header.Get("Transfer-Encoding") == "" {
			w.header.Set("Content-Type", http.DetectContentType([]byte(s[:min(len(s), 512)])))
		}
		w.WriteHeader(http.StatusOK)
	}
	w.body += s
	return len(s), nil
}

// response is what the client receives for req.
func (w *responseWriter) response(req *http.Request) *http.Response {
	if w.sent == nil { // the handler never wrote: 200 and its header now
		w.code, w.sent = http.StatusOK, w.header
	}
	status := "200 OK"
	if w.code != http.StatusOK {
		status = strconv.Itoa(w.code) + " " + http.StatusText(w.code)
	}
	return &http.Response{
		Status:     status,
		StatusCode: w.code,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        w.sent,
		Body:          stringBody{strings.NewReader(w.body)},
		ContentLength: int64(len(w.body)),
		Request:       req,
	}
}

// stringBody is a response body over the handler's string; reading it
// copies nothing, and strings.Reader's WriteTo lets io.Copy skip its
// buffer.
type stringBody struct{ *strings.Reader }

// Close implements io.Closer.
func (stringBody) Close() error { return nil }

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
