package api

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/tenant"
)

// Middleware wraps a handler with one cross-cutting concern. The stack
// is assembled with Chain; each layer is independently testable.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares outermost-first: Chain(h, a, b) serves
// a(b(h)), so the first middleware sees the request first.
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusWriter captures the status code for logging while forwarding
// http.Flusher, which the NDJSON streaming path depends on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so streaming responses keep
// streaming through the logging layer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestIDPrefix distinguishes processes; the counter distinguishes
// requests within one. Together they make an ID greppable across the
// server log and a client's error report.
var (
	requestIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	requestIDCounter atomic.Uint64
)

// RequestID stamps every response with an X-Request-ID header (client
// supplied IDs are echoed, so a browser extension can correlate its own
// telemetry with server logs).
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-ID")
			if id == "" {
				id = fmt.Sprintf("%s-%06d", requestIDPrefix, requestIDCounter.Add(1))
			}
			w.Header().Set("X-Request-ID", id)
			next.ServeHTTP(w, r)
		})
	}
}

// Logging writes one line per request: verb, path, status, duration,
// request ID. A nil logger logs through the process default.
func Logging(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			logf(logger, "api: %s %s -> %d (%v) id=%s",
				r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond),
				sw.Header().Get("X-Request-ID"))
		})
	}
}

// Recover converts a handler panic into a structured 500 instead of a
// torn connection, and logs the panic value. If the handler already
// started writing, the envelope is NOT sent — appending error JSON to
// a half-written body would corrupt it (an NDJSON consumer would
// decode the envelope as a bogus row); the connection tears and the
// log line remains.
func Recover(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			defer func() {
				if v := recover(); v != nil {
					logf(logger, "api: panic serving %s %s: %v", r.Method, r.URL.Path, v)
					if sw.status == 0 {
						writeError(w, logger,
							errf(http.StatusInternalServerError, CodeInternal, "internal error"))
					}
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// BodyLimit caps every request body at n bytes via http.MaxBytesReader.
// Handlers see the overflow as an *http.MaxBytesError from Read/Decode
// and map it to the structured 413 (mapBodyError); the reader also
// closes the connection so an oversized upload stops mid-flight instead
// of draining.
func BodyLimit(n int64) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// maxRateBuckets bounds the per-client bucket map: past this size the
// limiter sweeps buckets that have been idle long enough to be full
// again (remembering them changes nothing), so a scan across many
// source addresses cannot grow server memory without bound.
const maxRateBuckets = 16384

// rateLimiter implements per-client token buckets. Buckets refill at
// rate tokens/sec up to burst; a request costs one token. The clock is
// injectable so tests drive refills deterministically.
type rateLimiter struct {
	rate       float64
	burst      float64
	now        func() time.Time
	trustProxy bool

	mu        sync.Mutex
	buckets   map[string]*tenant.Bucket
	lastSweep time.Time
	denied    atomic.Uint64
}

func newRateLimiter(rate float64, burst int, trustProxy bool, now func() time.Time) *rateLimiter {
	if burst <= 0 {
		burst = int(rate)
		if burst < 1 {
			burst = 1
		}
	}
	if now == nil {
		now = time.Now
	}
	return &rateLimiter{
		rate: rate, burst: float64(burst), now: now, trustProxy: trustProxy,
		buckets: make(map[string]*tenant.Bucket),
	}
}

// allow debits one token for the client, reporting whether it had one
// and, when it did not, how long until the next token accrues.
func (l *rateLimiter) allow(client string) (bool, time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[client]
	if !ok {
		if len(l.buckets) >= maxRateBuckets {
			// At most one full idle sweep per second; if the sweep could
			// not get below the cap (slow refill, fast address churn),
			// arbitrary buckets are evicted — the cap is hard. An evicted
			// active client gets a fresh full bucket, a smaller harm than
			// unbounded memory plus an O(map) scan on every insert.
			if now.Sub(l.lastSweep) >= time.Second {
				l.sweepLocked(now)
				l.lastSweep = now
			}
			for k := range l.buckets {
				if len(l.buckets) < maxRateBuckets {
					break
				}
				delete(l.buckets, k)
			}
		}
		b = tenant.NewBucket(l.burst, now)
		l.buckets[client] = b
	}
	return b.Take(now, l.rate, l.burst)
}

// sweepLocked drops buckets idle long enough to have refilled to full —
// for those clients, a fresh bucket is indistinguishable from the
// remembered one. Called with l.mu held.
func (l *rateLimiter) sweepLocked(now time.Time) {
	fullAfter := time.Duration(l.burst / l.rate * float64(time.Second))
	for k, b := range l.buckets {
		if b.Idle(now) >= fullAfter {
			delete(l.buckets, k)
		}
	}
}

// clientKey identifies the caller for rate limiting: the connection's
// source address without the port, or — only when the operator declared
// a trusted proxy in front (Options.TrustProxyHeaders) — the first
// X-Forwarded-For hop. Without that declaration the header is
// client-controlled and honoring it would let any caller mint itself a
// fresh bucket per request.
func (l *rateLimiter) clientKey(r *http.Request) string {
	if l.trustProxy {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first, _, _ := strings.Cut(xff, ",")
			return strings.TrimSpace(first)
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// middleware returns the rate-limiting layer: over-budget requests get
// the structured 429 with a Retry-After hint. CORS preflights are
// exempt — they are the browser's requests, not the client code's, and
// blocking them turns a throttle into a hard extension outage.
func (l *rateLimiter) middleware(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodOptions {
				next.ServeHTTP(w, r)
				return
			}
			ok, wait := l.allow(l.clientKey(r))
			if !ok {
				l.denied.Add(1)
				secs := int(wait/time.Second) + 1
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeError(w, logger, errf(http.StatusTooManyRequests, CodeRateLimited,
					"rate limit exceeded; retry in %ds", secs))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// corsAllowed reports whether the Origin may call: an empty allowlist
// or a "*" entry admits every origin (the extension's install base is
// the whole crowd), otherwise exact match.
func corsAllowed(origins []string, origin string) bool {
	if len(origins) == 0 {
		return true
	}
	for _, o := range origins {
		if o == "*" || o == origin {
			return true
		}
	}
	return false
}

// CORS serves cross-origin requests for the configured origins: actual
// responses gain Access-Control-Allow-Origin, and OPTIONS preflights
// are answered here with the allowed methods/headers — the browser
// extension's cross-origin POST /api/v1/checks depends on this.
func CORS(origins []string) Middleware {
	allowAll := corsAllowed(origins, "*") || len(origins) == 0
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			origin := r.Header.Get("Origin")
			if !allowAll {
				// Responses differ by Origin under a restricted allowlist
				// — on the deny branches too, or a shared cache could
				// serve an ACAO-less response to the allowed origin.
				w.Header().Add("Vary", "Origin")
			}
			if origin != "" && corsAllowed(origins, origin) {
				if allowAll {
					w.Header().Set("Access-Control-Allow-Origin", "*")
				} else {
					w.Header().Set("Access-Control-Allow-Origin", origin)
				}
				// Non-safelisted headers cross-origin JS needs: the
				// request ID for log correlation, Retry-After on 429s.
				w.Header().Set("Access-Control-Expose-Headers", "X-Request-ID, Retry-After")
			}
			if r.Method == http.MethodOptions && r.Header.Get("Access-Control-Request-Method") != "" {
				if origin == "" || !corsAllowed(origins, origin) {
					w.WriteHeader(http.StatusForbidden)
					return
				}
				w.Header().Set("Access-Control-Allow-Methods", "GET, POST, OPTIONS")
				w.Header().Set("Access-Control-Allow-Headers", "Content-Type, Accept, X-Request-ID")
				w.Header().Set("Access-Control-Max-Age", "600")
				w.WriteHeader(http.StatusNoContent)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
