// Package client is the typed Go SDK for the $heriff v1 HTTP API — the
// programmatic face of the wire the paper's browser extension talks.
// cmd/sheriffd serves the API; this package is how Go code (the load
// generator, remote analysis, campaign scripts) drives it.
//
//	cl := client.New("http://localhost:8080", client.Options{})
//	res, err := cl.Check(ctx, sheriff.CheckRequest{URL: ..., Highlight: ..., UserAddr: addr})
//
// Every method takes a context, decodes the structured v1 error envelope
// into *client.APIError (branch on its Code), and retries transient
// failures (429 with Retry-After honored, 502/503/504 and transport
// errors on idempotent GETs) with exponential backoff. Observations
// paginate transparently or stream as NDJSON off the server's store
// iterators.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sheriff"
)

// Options configures a Client; the zero value works.
type Options struct {
	// HTTPClient is the transport (default: &http.Client{Timeout: 60s}).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first included (default 3;
	// 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the first retry delay, doubled per attempt
	// (default 100ms, capped at 2s). A server Retry-After overrides it.
	BaseBackoff time.Duration
	// UserAgent identifies the client in server logs.
	UserAgent string
	// MaxFollowerLag bounds how stale a follower's answer may be (in
	// sequence numbers, per the X-Sheriff-Lag response header) before a
	// read routed to it falls back to the primary (default 8192). Only
	// meaningful on clients built with WithFollowers.
	MaxFollowerLag uint64
}

// Client talks to one sheriffd — or, when built with WithFollowers, to a
// primary plus read replicas. Safe for concurrent use.
type Client struct {
	base string
	opts Options

	// apiKey authenticates every request as one tenant when set (sent as
	// Authorization: Bearer); see WithAPIKey.
	apiKey string

	// followers are the read-replica base URLs GETs round-robin across
	// (next is the rotation counter); writes always go to base.
	followers []string
	next      atomic.Uint64
}

// New builds a client for the server at baseURL (scheme://host[:port],
// no trailing /api).
func New(baseURL string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 60 * time.Second}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 100 * time.Millisecond
	}
	if opts.UserAgent == "" {
		opts.UserAgent = "sheriff-client/1"
	}
	if opts.MaxFollowerLag == 0 {
		opts.MaxFollowerLag = 8192
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), opts: opts}
}

// WithFollowers returns a client that routes idempotent GETs across the
// given read replicas round-robin, with writes (and every fallback)
// going to the primary. A follower that is unreachable, failing
// server-side, or reporting replication lag above Options.MaxFollowerLag
// is skipped for that call — the primary answers instead, in the same
// attempt. The receiver is unchanged.
func (c *Client) WithFollowers(urls ...string) *Client {
	nc := &Client{base: c.base, opts: c.opts, apiKey: c.apiKey}
	for _, u := range urls {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			nc.followers = append(nc.followers, u)
		}
	}
	return nc
}

// WithAPIKey returns a client that authenticates as the tenant holding
// key — sent as "Authorization: Bearer" on every request, including
// reads routed to followers (they validate against replicated tenant
// state). The receiver is unchanged; follower routing carries over.
func (c *Client) WithAPIKey(key string) *Client {
	nc := &Client{base: c.base, opts: c.opts, apiKey: key,
		followers: append([]string(nil), c.followers...)}
	return nc
}

// APIError is a structured v1 error: the typed code and message from the
// envelope plus the transport-level status and request ID.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable error code (api.Code* values:
	// "bad_request", "not_found", "rate_limited", ...).
	Code string
	// Message and Detail mirror the envelope.
	Message string
	Detail  string
	// RequestID is the server's X-Request-ID, for log correlation.
	RequestID string

	// retryAfter carries the Retry-After header between attempts.
	retryAfter string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	msg := fmt.Sprintf("api: %d %s: %s", e.StatusCode, e.Code, e.Message)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// IsCode reports whether err is an *APIError carrying the given code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// retryable reports whether a response status is worth another attempt.
func retryable(status int, idempotent bool) bool {
	if status == http.StatusTooManyRequests {
		return true
	}
	if !idempotent {
		return false
	}
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoffDelay is the wait before attempt n (0-based), honoring a
// Retry-After when the server sent one.
func (c *Client) backoffDelay(attempt int, retryAfter string) time.Duration {
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	d := c.opts.BaseBackoff << attempt
	if max := 2 * time.Second; d > max {
		d = max
	}
	return d
}

// do runs one HTTP call with retries and returns the response on any
// 2xx. Non-2xx responses are decoded into *APIError (plain-text error
// bodies — a proxy's, or the mux's 404 off the v1 routes — degrade to an
// APIError with an empty Code). The caller owns the body.
// On a follower-routing client, idempotent GETs try a follower first and
// fall back to the primary within the same attempt when the follower is
// down, failing, or too far behind.
func (c *Client) do(ctx context.Context, method, path string, body []byte, accept string) (*http.Response, error) {
	idempotent := method == http.MethodGet
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter string
			var ae *APIError
			if errors.As(lastErr, &ae) {
				retryAfter = ae.retryAfter
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.backoffDelay(attempt-1, retryAfter)):
			}
		}
		base := c.base
		if idempotent && len(c.followers) > 0 {
			base = c.followers[int(c.next.Add(1)-1)%len(c.followers)]
		}
		resp, err := c.send(ctx, base, method, path, body, accept)
		if base != c.base && !followerUsable(resp, err, c.opts.MaxFollowerLag) {
			// The follower cannot answer this call (unreachable, 5xx, or
			// lagging past the freshness bound): ask the primary now —
			// the caller should not pay a backoff for replica staleness.
			if resp != nil {
				resp.Body.Close()
			}
			resp, err = c.send(ctx, c.base, method, path, body, accept)
		}
		if err != nil {
			// Transport failure: retry only when the request could not
			// have mutated anything (GET) or the context still stands and
			// the error is a dial-side one we cannot distinguish — be
			// conservative and retry GETs only.
			lastErr = err
			if !idempotent || ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return resp, nil
		}
		apiErr := decodeAPIError(resp)
		resp.Body.Close()
		lastErr = apiErr
		if !retryable(resp.StatusCode, idempotent) {
			return nil, apiErr
		}
	}
	return nil, lastErr
}

// send issues one request against the given base URL.
func (c *Client) send(ctx context.Context, base, method, path string, body []byte, accept string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("User-Agent", c.opts.UserAgent)
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return c.opts.HTTPClient.Do(req)
}

// followerUsable reports whether a follower's answer may be served:
// reachable, no server-side failure, and fresh enough per the
// X-Sheriff-Lag header every sheriffd response carries. Client-side
// statuses (404, 400...) are real answers — a follower saying not_found
// is as authoritative as the primary saying it.
func followerUsable(resp *http.Response, err error, maxLag uint64) bool {
	if err != nil || resp.StatusCode >= 500 {
		return false
	}
	if lag, perr := strconv.ParseUint(resp.Header.Get("X-Sheriff-Lag"), 10, 64); perr == nil && lag > maxLag {
		return false
	}
	return true
}

// decodeAPIError turns a non-2xx response into an *APIError — the v1
// envelope when present, the raw text otherwise (proxies and other
// non-v1 responders do not speak the envelope).
func decodeAPIError(resp *http.Response) *APIError {
	ae := &APIError{
		StatusCode: resp.StatusCode,
		RequestID:  resp.Header.Get("X-Request-ID"),
		retryAfter: resp.Header.Get("Retry-After"),
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Detail  string `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &envelope); err == nil && envelope.Error.Code != "" {
		ae.Code = envelope.Error.Code
		ae.Message = envelope.Error.Message
		ae.Detail = envelope.Error.Detail
		return ae
	}
	ae.Message = strings.TrimSpace(string(raw))
	return ae
}

// getJSON runs a GET and decodes the 2xx body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil, "application/json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// toWire renders a CheckRequest as the shared v1 submission shape
// (sheriff.APICheckPayload — the same struct the server decodes).
func toWire(req sheriff.CheckRequest) sheriff.APICheckPayload {
	addr := ""
	if req.UserAddr.IsValid() {
		addr = req.UserAddr.String()
	}
	return sheriff.APICheckPayload{
		URL: req.URL, Highlight: req.Highlight, UserAddr: addr,
		UserID: req.UserID, UserAgent: req.UserAgent,
	}
}

// Check runs one crowd check through POST /api/v1/checks and returns
// the per-vantage-point result. Failed checks come back as *APIError
// with the typed code (not_found, extraction_failed, upstream_error...).
func (c *Client) Check(ctx context.Context, req sheriff.CheckRequest) (sheriff.CheckResult, error) {
	body, err := json.Marshal(toWire(req))
	if err != nil {
		return sheriff.CheckResult{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/api/v1/checks", body, "application/json")
	if err != nil {
		return sheriff.CheckResult{}, err
	}
	defer resp.Body.Close()
	var res sheriff.CheckResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return sheriff.CheckResult{}, fmt.Errorf("client: decode check result: %w", err)
	}
	return res, nil
}

// CheckOutcome is one batch entry's result-or-error.
type CheckOutcome struct {
	Result *sheriff.CheckResult
	Err    *APIError
}

// CheckBatch submits several checks in one round trip. The returned
// slice matches the input order; entries fail independently.
func (c *Client) CheckBatch(ctx context.Context, reqs []sheriff.CheckRequest) ([]CheckOutcome, error) {
	wire := struct {
		Checks []sheriff.APICheckPayload `json:"checks"`
	}{Checks: make([]sheriff.APICheckPayload, len(reqs))}
	for i, r := range reqs {
		wire.Checks[i] = toWire(r)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/api/v1/checks", body, "application/json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out sheriff.APIBatchCheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode batch result: %w", err)
	}
	res := make([]CheckOutcome, len(out.Results))
	for i, item := range out.Results {
		res[i].Result = item.Result
		if item.Error != nil {
			res[i].Err = &APIError{
				StatusCode: http.StatusOK, Code: item.Error.Code,
				Message: item.Error.Message, Detail: item.Error.Detail,
			}
		}
	}
	return res, nil
}

// CheckFunc adapts the client to the crowd-load harness: the returned
// function has the sheriff.CheckFunc shape, so crowd.RunLoad (and
// examples/loadgen) can drive a remote sheriffd through the SDK.
func (c *Client) CheckFunc(ctx context.Context) sheriff.CheckFunc {
	return func(req sheriff.CheckRequest) (sheriff.CheckResult, error) {
		return c.Check(ctx, req)
	}
}

// Anchors fetches the learned anchors keyed by domain.
func (c *Client) Anchors(ctx context.Context) (map[string]sheriff.Anchor, error) {
	var out struct {
		Anchors map[string]sheriff.Anchor `json:"anchors"`
	}
	if err := c.getJSON(ctx, "/api/v1/anchors", &out); err != nil {
		return nil, err
	}
	return out.Anchors, nil
}

// SourceCount splits one source's observations into total and OK — the
// server's shape, shared via the sheriff facade.
type SourceCount = sheriff.APISourceCount

// Stats is GET /api/v1/stats — the server's response struct itself, so
// a field added server-side lands here in the same commit.
type Stats = sheriff.APIStats

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.getJSON(ctx, "/api/v1/stats", &out)
	return out, err
}

// DomainReport is GET /api/v1/domains/{domain}/report — the server's
// response struct, shared via the sheriff facade.
type DomainReport = sheriff.APIDomainReport

// DomainReport fetches one domain's variation + strategy attribution.
func (c *Client) DomainReport(ctx context.Context, domain string) (DomainReport, error) {
	var out DomainReport
	err := c.getJSON(ctx, "/api/v1/domains/"+url.PathEscape(domain)+"/report", &out)
	return out, err
}

// ObservationsQuery filters and pages GET /api/v1/observations. Zero
// fields match everything.
type ObservationsQuery struct {
	// Domain/SKU/VP/Source restrict the scan like store.Query.
	Domain, SKU, VP, Source string
	// Round restricts to one crawl round when set (rounds are 0-based;
	// use the Round helper); nil matches every round.
	Round *int
	// OnlyOK drops failed extractions.
	OnlyOK bool
	// PageSize is the page length (server default 100, cap 1000).
	PageSize int
	// Cursor resumes from a previous page's NextCursor.
	Cursor string
}

// Round selects one crawl round in an ObservationsQuery.
func Round(n int) *int { return &n }

// values renders the query string.
func (q ObservationsQuery) values() url.Values {
	v := url.Values{}
	set := func(k, s string) {
		if s != "" {
			v.Set(k, s)
		}
	}
	set("domain", q.Domain)
	set("sku", q.SKU)
	set("vp", q.VP)
	set("source", q.Source)
	if q.Round != nil {
		v.Set("round", strconv.Itoa(*q.Round))
	}
	if q.OnlyOK {
		v.Set("ok", "true")
	}
	if q.PageSize > 0 {
		v.Set("limit", strconv.Itoa(q.PageSize))
	}
	set("cursor", q.Cursor)
	return v
}

// ObservationsPage fetches one page; next is the cursor for the
// following page ("" when exhausted).
func (c *Client) ObservationsPage(ctx context.Context, q ObservationsQuery) (page []sheriff.Observation, next string, err error) {
	var out sheriff.APIObservationsPage
	path := "/api/v1/observations"
	if enc := q.values().Encode(); enc != "" {
		path += "?" + enc
	}
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, "", err
	}
	return out.Observations, out.NextCursor, nil
}

// Observations iterates every matching observation, fetching pages as
// the consumer advances — the pagination helper. A fetch error is
// yielded once as the second value and ends the sequence.
func (c *Client) Observations(ctx context.Context, q ObservationsQuery) iter.Seq2[sheriff.Observation, error] {
	return func(yield func(sheriff.Observation, error) bool) {
		// The cursor is per-invocation state: an iter.Seq2 may be ranged
		// more than once, and each range must walk from q's own starting
		// cursor, not from wherever the previous range stopped.
		pq := q
		for {
			page, next, err := c.ObservationsPage(ctx, pq)
			if err != nil {
				yield(sheriff.Observation{}, err)
				return
			}
			for _, o := range page {
				if !yield(o, nil) {
					return
				}
			}
			if next == "" {
				return
			}
			pq.Cursor = next
		}
	}
}

// StreamObservations iterates every matching observation over one
// NDJSON response — the full-dataset export path, served off the
// store's iterators server-side and decoded row by row here, so neither
// end materializes the dataset. A transport or decode error is yielded
// once as the second value and ends the sequence.
func (c *Client) StreamObservations(ctx context.Context, q ObservationsQuery) iter.Seq2[sheriff.Observation, error] {
	return func(yield func(sheriff.Observation, error) bool) {
		path := "/api/v1/observations"
		if enc := q.values().Encode(); enc != "" {
			path += "?" + enc
		}
		resp, err := c.do(ctx, http.MethodGet, path, nil, "application/x-ndjson")
		if err != nil {
			yield(sheriff.Observation{}, err)
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var o sheriff.Observation
			if err := dec.Decode(&o); err != nil {
				if err != io.EOF {
					yield(sheriff.Observation{}, fmt.Errorf("client: decode stream: %w", err))
				}
				return
			}
			if !yield(o, nil) {
				return
			}
		}
	}
}

// Event is one analysis event — the server's wire shape, shared via the
// sheriff facade.
type Event = sheriff.Event

// EventsPage is one /api/v1/events history page.
type EventsPage = sheriff.APIEventsPage

// Events fetches the event history after the given sequence (0 = from
// the beginning), at most limit events (<=0 = server default). Poll
// again with after=page.LatestSeq, or switch to StreamEvents for a live
// tail.
func (c *Client) Events(ctx context.Context, after uint64, limit int) (EventsPage, error) {
	var out EventsPage
	path := "/api/v1/events"
	v := url.Values{}
	if after > 0 {
		v.Set("after", strconv.FormatUint(after, 10))
	}
	if limit > 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	err := c.getJSON(ctx, path, &out)
	return out, err
}

// StreamEvents tails the analysis event log over one NDJSON response:
// history after the given sequence replays first, then the sequence
// blocks on live appends until ctx is canceled or the server drains
// (a graceful shutdown seals the log; the stream flushes what remains
// and ends cleanly). A transport or decode error is yielded once as the
// second value and ends the sequence. Resume after a disconnect by
// passing the last seen Event.Seq.
//
// The default transport carries a 60s timeout; a tail meant to run
// longer needs Options.HTTPClient with Timeout 0 (bound it with ctx
// instead).
func (c *Client) StreamEvents(ctx context.Context, after uint64) iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		path := "/api/v1/events"
		if after > 0 {
			path += "?after=" + strconv.FormatUint(after, 10)
		}
		resp, err := c.do(ctx, http.MethodGet, path, nil, "application/x-ndjson")
		if err != nil {
			yield(Event{}, err)
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var e Event
			if err := dec.Decode(&e); err != nil {
				if err != io.EOF && ctx.Err() == nil {
					yield(Event{}, fmt.Errorf("client: decode event stream: %w", err))
				}
				return
			}
			if !yield(e, nil) {
				return
			}
		}
	}
}

// FetchDataset pulls every matching observation into a fresh in-memory
// store via the NDJSON stream — the remote analysis path (cmd/analyze
// -remote builds its figures off this).
func (c *Client) FetchDataset(ctx context.Context, q ObservationsQuery) (*sheriff.Store, error) {
	st := sheriff.NewStore()
	batch := make([]sheriff.Observation, 0, 1024)
	for o, err := range c.StreamObservations(ctx, q) {
		if err != nil {
			return nil, err
		}
		batch = append(batch, o)
		if len(batch) == cap(batch) {
			st.AddAll(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		st.AddAll(batch)
	}
	return st, nil
}
