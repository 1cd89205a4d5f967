package api

// Cluster-mode surface: the primary-side replication stream
// (GET /api/v1/replication/wal), the health and readiness probes, and
// the read-only rejection followers answer writes with. See DESIGN.md
// §11 for the protocol.

import (
	"net/http"
	"strconv"
	"time"

	"sheriff/internal/replica"
	"sheriff/internal/store"
)

// Stream cadence: how often the tailing loop polls the watermark for new
// batches, and how often an idle stream emits a heartbeat frame so the
// follower's lag accounting stays current.
const (
	replicationPollInterval      = 25 * time.Millisecond
	replicationHeartbeatInterval = time.Second
)

// replicationEpoch is the identity the stream advertises: the durable
// directory's committed epoch when there is one, the follower's pinned
// primary epoch when following, else the process-random epoch minted at
// construction.
func (s *Server) replicationEpoch() uint64 {
	if d, ok := s.backend.Store().(*store.Durable); ok {
		return d.Epoch()
	}
	if s.follower != nil {
		if e := s.follower.Status().Epoch; e != 0 {
			return e
		}
	}
	return s.epoch
}

// handleReplicationWAL serves GET /api/v1/replication/wal?after=N: every
// row with sequence > after, as CRC-framed WAL records cut by
// store.Chunks. Any backend serves it, followers included, which makes
// chained replication work. With follow=true the stream
// tails live writes (heartbeats while idle) until the client leaves or
// the server stops; without it the stream closes at the watermark — a
// resumable, coordination-free catch-up either way.
func (s *Server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	src := s.backend.Store()
	cursor := uint64(0)
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, s.opts.Logger, errf(http.StatusBadRequest, CodeBadRequest,
				"bad after %q", v).withDetail(err))
			return
		}
		cursor = n
	}
	follow := r.URL.Query().Get("follow") == "true"

	wm := src.Watermark()
	h := w.Header()
	h.Set(store.ReplicationEpochHeader, strconv.FormatUint(s.replicationEpoch(), 10))
	h.Set(store.ReplicationWatermarkHeader, strconv.FormatUint(wm, 10))
	h.Set("Content-Type", store.ReplicationContentType)
	flusher, _ := w.(http.Flusher)

	var buf []byte
	// writeFrames ships every row in (cursor, upto], stamped with upto as
	// the watermark, and advances the cursor. A false return means the
	// client is gone (or encoding failed) and the handler must end.
	writeFrames := func(upto uint64) bool {
		if upto <= cursor {
			return true
		}
		for seqs, obs := range store.Chunks(src.ScanRange(store.Query{Round: -1}, cursor, upto)) {
			frame, err := store.EncodeWALFrame(buf[:0], store.WALFrame{Seqs: seqs, Obs: obs, Watermark: upto})
			if err != nil {
				logf(s.opts.Logger, "api: encode replication frame: %v", err)
				return false
			}
			buf = frame
			if _, err := w.Write(frame); err != nil {
				return false
			}
		}
		cursor = upto
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	heartbeat := func() bool {
		frame, err := store.EncodeWALFrame(buf[:0], store.WALFrame{Watermark: cursor})
		if err != nil {
			return false
		}
		buf = frame
		if _, err := w.Write(frame); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	if !writeFrames(wm) || !follow {
		return
	}
	poll := time.NewTicker(replicationPollInterval)
	defer poll.Stop()
	beat := time.NewTicker(replicationHeartbeatInterval)
	defer beat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-poll.C:
			if !writeFrames(src.Watermark()) {
				return
			}
		case <-beat.C:
			if !heartbeat() {
				return
			}
		}
	}
}

// ReplicationStats is the "replication" block of /api/v1/stats and the
// health probes: the node's role plus, on followers, the stream state.
// (The epoch travels in the stream headers, not here — it is random per
// directory, and stats bodies are pinned by golden tests.)
type ReplicationStats struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Watermark is this node's applied watermark — on a follower, how far
	// it has applied; on a primary, how far writes have committed.
	Watermark uint64 `json:"watermark"`
	// Primary is the followed node's base URL (followers only).
	Primary string `json:"primary,omitempty"`
	// Connected reports a live stream (followers only).
	Connected bool `json:"connected,omitempty"`
	// LastApplied and PrimaryWatermark are the follower's replication
	// cursor and the primary watermark it last observed; Lag is the
	// difference.
	LastApplied      uint64 `json:"last_applied,omitempty"`
	PrimaryWatermark uint64 `json:"primary_watermark,omitempty"`
	Lag              uint64 `json:"lag"`
	// LastError is the most recent stream error, empty while healthy.
	LastError string `json:"last_error,omitempty"`
}

// replicationStats assembles the node's replication view.
func (s *Server) replicationStats() ReplicationStats {
	if s.follower == nil {
		return ReplicationStats{Role: "primary", Watermark: s.store.Watermark()}
	}
	st := s.follower.Status()
	return ReplicationStats{
		Role:             "follower",
		Watermark:        s.store.Watermark(),
		Primary:          s.follower.Primary(),
		Connected:        st.Connected,
		LastApplied:      st.LastApplied,
		PrimaryWatermark: st.PrimaryWatermark,
		Lag:              st.Lag,
		LastError:        st.LastError,
	}
}

// HealthResponse is the /api/v1/healthz and /api/v1/readyz body.
type HealthResponse struct {
	// Status is "ok" (healthz), "ready" or "unready" (readyz).
	Status string `json:"status"`
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// UptimeSeconds counts from server construction.
	UptimeSeconds int64 `json:"uptime_seconds"`
	// Replication mirrors the stats block.
	Replication ReplicationStats `json:"replication"`
	// Reason explains an unready verdict.
	Reason string `json:"reason,omitempty"`
}

// handleHealthz serves GET /api/v1/healthz: liveness. It answers 200
// whenever the process can serve at all — a lagging follower is alive,
// just not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rs := s.replicationStats()
	writeJSON(w, s.opts.Logger, HealthResponse{
		Status:        "ok",
		Role:          rs.Role,
		UptimeSeconds: int64(time.Since(s.start) / time.Second),
		Replication:   rs,
	})
}

// handleReadyz serves GET /api/v1/readyz: readiness for traffic. A
// primary is always ready; a follower is ready while its stream is
// connected and its lag is at most Options.ReadyMaxLag — past that its
// answers are too stale to serve and a load balancer should route
// elsewhere until it catches up.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rs := s.replicationStats()
	resp := HealthResponse{
		Status:        "ready",
		Role:          rs.Role,
		UptimeSeconds: int64(time.Since(s.start) / time.Second),
		Replication:   rs,
	}
	if s.follower != nil {
		if !rs.Connected {
			resp.Status, resp.Reason = "unready", "replication stream disconnected"
		} else if rs.Lag > s.opts.ReadyMaxLag {
			resp.Status, resp.Reason = "unready",
				"replication lag "+strconv.FormatUint(rs.Lag, 10)+" exceeds "+strconv.FormatUint(s.opts.ReadyMaxLag, 10)
		}
	}
	if resp.Status != "ready" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSON(w, s.opts.Logger, resp)
		return
	}
	writeJSON(w, s.opts.Logger, resp)
}

// writeReadOnly rejects a write attempted against a follower: the typed
// read_only envelope, with the primary's URL in both the Location header
// (same path, where the request belongs) and the error detail.
func (s *Server) writeReadOnly(w http.ResponseWriter, r *http.Request) {
	e := errf(http.StatusForbidden, CodeReadOnly,
		"this node is a read-only follower; send writes to the primary")
	primary := s.follower.Primary()
	w.Header().Set("Location", primary+r.URL.RequestURI())
	e.Detail = "primary: " + primary
	writeError(w, s.opts.Logger, e)
}

// roleHeaders stamps every response with the node's role and current
// replication lag, so clients (the SDK's lag-aware follower routing)
// judge staleness from any response instead of polling stats.
func (s *Server) roleHeaders(next http.Handler) http.Handler {
	role, lag := "primary", func() uint64 { return 0 }
	if s.follower != nil {
		role = "follower"
		lag = func() uint64 { return s.follower.Status().Lag }
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("X-Sheriff-Role", role)
		h.Set("X-Sheriff-Lag", strconv.FormatUint(lag(), 10))
		next.ServeHTTP(w, r)
	})
}

// Stop releases long-lived streams (the tailing replication handlers);
// idempotent. Wire it into the HTTP server's shutdown so graceful drains
// do not wait on followers that would otherwise tail forever.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Follower exposes the follower engine this server fronts, nil on a
// primary.
func (s *Server) Follower() *replica.Follower { return s.follower }
