package api

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sheriff/internal/store"
)

// Pagination bounds. The default keeps casual curls small; the cap keeps
// one page from turning into a dataset dump — that is what the NDJSON
// stream is for.
const (
	defaultPageSize = 100
	maxPageSize     = 1000
)

// seqWindow is how many sequence numbers one gather covers: both the
// page and stream paths walk the store in (cursor, cursor+seqWindow]
// windows via ScanRange, so no single gather materializes more than a
// window of rows regardless of dataset size.
const seqWindow = 8192

// ndjsonFlushEvery bounds how many rows buffer before the stream is
// flushed to the client.
const ndjsonFlushEvery = 512

// ObservationsPage is the paginated JSON shape of GET /api/v1/observations.
type ObservationsPage struct {
	// Observations is one page in insertion order.
	Observations []store.Observation `json:"observations"`
	// Count is len(Observations), for clients reading headers first.
	Count int `json:"count"`
	// NextCursor resumes after this page; empty when the query is
	// exhausted. Cursors are opaque; pass them back verbatim.
	NextCursor string `json:"next_cursor,omitempty"`
}

// cursorPrefix versions the cursor encoding so a v2 can change it
// without mis-decoding v1 cursors.
const cursorPrefix = "v1:"

// encodeCursor seals a position — the sequence number of the last row
// served — into an opaque cursor. Sequence numbers are assigned once
// and never reused, and pages only read up to the store's applied
// watermark, so a cursor resumes exactly after its page even while
// concurrent batches append.
func encodeCursor(seq uint64) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + strconv.FormatUint(seq, 10)))
}

// decodeCursor opens a cursor; "" is the dataset start.
func decodeCursor(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("not a cursor: %w", err)
	}
	rest, ok := strings.CutPrefix(string(raw), cursorPrefix)
	if !ok {
		return 0, fmt.Errorf("not a %scursor", cursorPrefix)
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad cursor position %q", rest)
	}
	return n, nil
}

// parseObservationsQuery maps the URL parameters onto a store.Query plus
// paging state.
func parseObservationsQuery(values url.Values) (q store.Query, limit int, after uint64, err *Error) {
	q = store.Query{
		Domain: values.Get("domain"),
		SKU:    values.Get("sku"),
		Source: values.Get("source"),
		VP:     values.Get("vp"),
		Tenant: values.Get("tenant"),
		Round:  -1,
	}
	if v := values.Get("round"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil {
			return q, 0, 0, errf(http.StatusBadRequest, CodeBadRequest,
				"bad round %q", v).withDetail(convErr)
		}
		q.Round = n
	}
	if v := values.Get("ok"); v != "" {
		b, convErr := strconv.ParseBool(v)
		if convErr != nil {
			return q, 0, 0, errf(http.StatusBadRequest, CodeBadRequest,
				"bad ok %q (want true/false)", v).withDetail(convErr)
		}
		q.OnlyOK = b
	}
	// since/until bound observation time as [since, until), RFC 3339.
	// Unbounded scans walk indexes; a time range with no narrower filter
	// pushes down to time-bucket selection in the store.
	if v := values.Get("since"); v != "" {
		t, convErr := time.Parse(time.RFC3339, v)
		if convErr != nil {
			return q, 0, 0, errf(http.StatusBadRequest, CodeBadRequest,
				"bad since %q (want RFC 3339)", v).withDetail(convErr)
		}
		q.Since = t
	}
	if v := values.Get("until"); v != "" {
		t, convErr := time.Parse(time.RFC3339, v)
		if convErr != nil {
			return q, 0, 0, errf(http.StatusBadRequest, CodeBadRequest,
				"bad until %q (want RFC 3339)", v).withDetail(convErr)
		}
		q.Until = t
	}
	limit = defaultPageSize
	if v := values.Get("limit"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 {
			return q, 0, 0, errf(http.StatusBadRequest, CodeBadRequest, "bad limit %q", v)
		}
		if n > maxPageSize {
			n = maxPageSize
		}
		limit = n
	}
	after, curErr := decodeCursor(values.Get("cursor"))
	if curErr != nil {
		return q, 0, 0, errf(http.StatusBadRequest, CodeBadRequest,
			"bad cursor").withDetail(curErr)
	}
	return q, limit, after, nil
}

// wantsNDJSON reports whether the client asked for the stream form.
func wantsNDJSON(r *http.Request) bool {
	if strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		return true
	}
	return r.URL.Query().Get("format") == "ndjson"
}

// handleObservations serves GET /api/v1/observations.
//
// Default: a cursor-paginated JSON page, filterable by domain, sku, vp,
// source, round and ok. With Accept: application/x-ndjson (or
// ?format=ndjson) the response is a JSON Lines stream — one encode per
// row, flushed every few hundred rows — so a full dataset export runs
// in constant handler memory. Both forms read the store through
// watermark-capped ScanRange windows: rows are served in sequence
// order up to the applied watermark, which makes cursors stable under
// concurrent appends. NDJSON rows are byte-identical to the store's
// own WriteJSONL lines.
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	q, limit, after, perr := parseObservationsQuery(r.URL.Query())
	if perr != nil {
		writeError(w, s.opts.Logger, perr)
		return
	}
	if wantsNDJSON(r) {
		s.streamObservations(w, q, after)
		return
	}

	// One look-ahead row decides whether a next cursor exists, so the
	// last page never dangles an empty follow-up.
	page := ObservationsPage{Observations: make([]store.Observation, 0, limit)}
	upto := s.store.Watermark()
	var lastSeq uint64
	more := false
windows:
	for start := after; start < upto; start += seqWindow {
		end := min(start+seqWindow, upto)
		for seq, o := range s.store.ScanRange(q, start, end) {
			if len(page.Observations) == limit {
				more = true
				break windows
			}
			page.Observations = append(page.Observations, o)
			lastSeq = seq
		}
	}
	page.Count = len(page.Observations)
	if more {
		page.NextCursor = encodeCursor(lastSeq)
	}
	writeJSON(w, s.opts.Logger, page)
}

// streamObservations is the NDJSON path: rows flow window by window
// from the store's ScanRange iterator through the store's own JSONL
// encoder (store.AppendJSONL, so the lines are WriteJSONL's bytes) into
// a buffer handed to the socket every ndjsonFlushEvery rows — at most
// one seqWindow of rows is ever gathered, so an
// arbitrarily large export runs in constant memory. A cursor (sequence
// position) is honored so a client can resume a torn stream; limits are
// not — the stream form exists to avoid paging. The watermark is
// snapshotted once, so the stream is a consistent prefix of the
// dataset as of the request.
func (s *Server) streamObservations(w http.ResponseWriter, q store.Query, after uint64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var buf []byte
	sent := 0
	// flush hands the buffered lines to the client.
	flush := func() bool {
		if _, err := w.Write(buf); err != nil {
			// The client hung up mid-stream; headers are long gone.
			logf(s.opts.Logger, "api: ndjson stream aborted after %d rows: %v", sent, err)
			return false
		}
		buf = buf[:0]
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	upto := s.store.Watermark()
	for start := after; start < upto; start += seqWindow {
		end := min(start+seqWindow, upto)
		for _, o := range s.store.ScanRange(q, start, end) {
			var err error
			if buf, err = store.AppendJSONL(buf, &o); err != nil {
				logf(s.opts.Logger, "api: ndjson stream aborted after %d rows: %v", sent, err)
				flush()
				return
			}
			sent++
			if sent%ndjsonFlushEvery == 0 && !flush() {
				return
			}
		}
	}
	flush()
}
