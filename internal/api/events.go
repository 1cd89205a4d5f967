package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"sheriff/internal/events"
)

// EventsPage is the JSON history form of GET /api/v1/events.
type EventsPage struct {
	// Events is the slice of history after the cursor, oldest first.
	Events []events.Event `json:"events"`
	// Count is len(Events).
	Count int `json:"count"`
	// LatestSeq is the newest sequence in the log at serve time; poll
	// again with ?after=LatestSeq (or switch to the tail) to continue.
	LatestSeq uint64 `json:"latest_seq"`
}

// maxEventsPage bounds one history page (the tail exists for more).
const maxEventsPage = 1000

// wantsSSE reports whether the client asked for a Server-Sent-Events
// tail.
func wantsSSE(r *http.Request) bool {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return true
	}
	return r.URL.Query().Get("format") == "sse"
}

// handleEvents serves GET /api/v1/events — the analysis event log.
//
// Default: a JSON history page (?after=seq resumes, ?limit= bounds).
// With Accept: application/x-ndjson (or ?format=ndjson) the response
// replays history after the cursor and then follows live — one JSON
// line per event, flushed immediately — until the client disconnects or
// the log is sealed by a server drain (?follow=false stops at the end
// of history instead). With Accept: text/event-stream the same tail is
// framed as SSE (id: the sequence, event: the type), honoring
// Last-Event-ID for resumption.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	after, perr := parseEventsAfter(r)
	if perr != nil {
		writeError(w, s.opts.Logger, perr)
		return
	}
	log := s.analysis.Events()
	switch {
	case wantsSSE(r):
		s.tailEvents(w, r, log, after, true)
	case wantsNDJSON(r):
		follow := true
		if v := r.URL.Query().Get("follow"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
					"bad follow %q (want true/false)", v))
				return
			}
			follow = b
		}
		if follow {
			s.tailEvents(w, r, log, after, false)
			return
		}
		s.replayEventsNDJSON(w, log, after)
	default:
		limit := maxEventsPage
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
					"bad limit %q", v))
				return
			}
			if n < limit {
				limit = n
			}
		}
		page := EventsPage{Events: log.After(after, limit), LatestSeq: log.Len()}
		if page.Events == nil {
			page.Events = []events.Event{}
		}
		page.Count = len(page.Events)
		writeJSON(w, s.opts.Logger, page)
	}
}

// parseEventsAfter reads the resume cursor: ?after=seq, or for SSE
// reconnects the Last-Event-ID header.
func parseEventsAfter(r *http.Request) (uint64, *Error) {
	v := r.URL.Query().Get("after")
	if v == "" {
		v = r.Header.Get("Last-Event-ID")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, errf(http.StatusBadRequest, CodeBadRequest,
			"bad after %q (want an event sequence)", v).withDetail(err)
	}
	return n, nil
}

// replayEventsNDJSON streams history after the cursor and stops — the
// non-following export form.
func (s *Server) replayEventsNDJSON(w http.ResponseWriter, log *events.Log, after uint64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range log.After(after, 0) {
		if err := enc.Encode(e); err != nil {
			return
		}
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// tailEvents is the live tail: replay history after the cursor, then
// follow appends until the client goes away or the log closes (a
// graceful drain seals the log; the tail flushes what remains and
// disconnects — nothing already appended is ever dropped). Subscription
// wakeups are coalesced signals; the loop re-reads from its own cursor,
// so bursts lose nothing.
func (s *Server) tailEvents(w http.ResponseWriter, r *http.Request, log *events.Log, after uint64, sse bool) {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	cur := after
	writeBatch := func() bool {
		for _, e := range log.After(cur, 0) {
			if sse {
				data, err := json.Marshal(e)
				if err != nil {
					return false
				}
				if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data); err != nil {
					return false
				}
			} else if err := enc.Encode(e); err != nil {
				return false
			}
			cur = e.Seq
		}
		flush()
		return true
	}

	sig, cancel := log.Subscribe()
	defer cancel()
	// The headers (and any history) must reach the client before the
	// first long wait, or a curl tail shows nothing until an event fires.
	if !writeBatch() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-log.Done():
			writeBatch() // final drain: everything appended before the seal
			return
		case <-sig:
			if !writeBatch() {
				return
			}
		}
	}
}
