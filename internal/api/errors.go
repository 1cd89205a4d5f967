// Package api is the versioned HTTP surface of the $heriff backend: the
// /api/v1/ routes the browser extension, the analysis tooling and the
// typed Go SDK (sheriff/client) talk. It is the only HTTP surface: the
// pre-v1 /api/check|anchors|stats aliases are retired and answer 404.
//
// Every v1 error travels in one envelope:
//
//	{"error":{"code":"not_found","message":"...","detail":"..."}}
//
// with a typed code drawn from the Code* constants, so clients branch on
// codes instead of parsing prose. Handlers are wrapped in a composable
// middleware stack (request IDs, logging, panic recovery, body limits,
// per-client rate limiting, CORS) — see middleware.go.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"

	"sheriff/internal/extract"
	"sheriff/internal/netsim"
)

// Error codes of the v1 wire contract. Codes are append-only: removing
// or renaming one is a breaking API change.
const (
	// CodeBadRequest marks malformed input: unparseable JSON, missing
	// required fields, invalid query parameters or cursors.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed marks a valid route hit with the wrong verb.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound marks an unknown route, an unknown domain, or a check
	// against a domain the simulated fabric cannot resolve.
	CodeNotFound = "not_found"
	// CodePayloadTooLarge marks a request body over the server's limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeRateLimited marks a client that exhausted its token bucket.
	CodeRateLimited = "rate_limited"
	// CodeExtractionFailed marks a check whose highlight could not be
	// derived into an anchor or re-extracted (the submitted highlight
	// does not parse as, or appear on the page as, a price).
	CodeExtractionFailed = "extraction_failed"
	// CodeUpstream marks a failure fetching from the retailer fabric —
	// the shop returned a non-200 or the transport failed.
	CodeUpstream = "upstream_error"
	// CodeInternal marks a server-side bug (a recovered panic included).
	CodeInternal = "internal"
	// CodeReadOnly marks a write attempted against a read-only follower;
	// the response's Location header and the error detail point at the
	// primary that accepts writes.
	CodeReadOnly = "read_only"
	// CodeUnauthorized marks a missing or invalid API key on a server
	// with tenancy enabled.
	CodeUnauthorized = "unauthorized"
	// CodeForbidden marks a valid key whose tenant's role does not cover
	// the endpoint.
	CodeForbidden = "forbidden"
	// CodeQuotaExceeded marks a tenant that exhausted a per-tenant
	// allowance: the request token bucket, or a campaign's per-tenant
	// claim quota.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeConflict marks a request that is valid in itself but invalid
	// against the resource's current state — campaign state transitions,
	// an events cursor from an epoch retention has since replaced.
	CodeConflict = "conflict"
)

// Error is the structured error of the v1 contract. It implements error
// so server code can return it directly from handler helpers.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a short human-readable summary.
	Message string `json:"message"`
	// Detail optionally carries the underlying cause.
	Detail string `json:"detail,omitempty"`

	// status is the HTTP status the envelope travels with; not part of
	// the body (the status line already says it).
	status int
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Status returns the HTTP status the error maps to.
func (e *Error) Status() int {
	if e.status == 0 {
		return http.StatusInternalServerError
	}
	return e.status
}

// errorEnvelope is the wire form: the error object under one key, so the
// success and failure shapes of an endpoint can never be confused.
type errorEnvelope struct {
	Error *Error `json:"error"`
}

// errf builds a structured error.
func errf(status int, code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), status: status}
}

// withDetail attaches the underlying cause.
func (e *Error) withDetail(err error) *Error {
	if err != nil {
		e.Detail = err.Error()
	}
	return e
}

// mapCheckError translates a Backend.Check failure into the typed
// envelope: fabric NXDOMAIN → not_found, highlight/anchor failures →
// extraction_failed, anything else that went over the fabric → upstream.
func mapCheckError(err error) *Error {
	var nx *netsim.NXDomainError
	if errors.As(err, &nx) {
		return errf(http.StatusNotFound, CodeNotFound,
			"domain %q does not resolve on the fabric", nx.Domain).withDetail(err)
	}
	if errors.Is(err, extract.ErrHighlightNotFound) || errors.Is(err, extract.ErrNoPrice) {
		return errf(http.StatusUnprocessableEntity, CodeExtractionFailed,
			"highlight could not be anchored to a price").withDetail(err)
	}
	return errf(http.StatusBadGateway, CodeUpstream, "check failed upstream").withDetail(err)
}

// mapBodyError translates request-body read/decode failures: an
// http.MaxBytesError (the BodyLimit middleware tripping) becomes the
// structured 413, everything else a bad_request.
func mapBodyError(err error) *Error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return errf(http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
	}
	return errf(http.StatusBadRequest, CodeBadRequest, "bad payload").withDetail(err)
}

// writeError emits the envelope. Errors that are not *Error become
// internal — handlers returning raw errors is a bug, not a contract.
func writeError(w http.ResponseWriter, logger *log.Logger, err error) {
	var e *Error
	if !errors.As(err, &e) {
		e = errf(http.StatusInternalServerError, CodeInternal, "internal error").withDetail(err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status())
	if encErr := json.NewEncoder(w).Encode(errorEnvelope{Error: e}); encErr != nil {
		logf(logger, "api: write error envelope: %v", encErr)
	}
}

// writeJSON emits a 200 JSON body. Encoding can only fail after the
// header (and usually part of the body) is on the wire, so there is no
// status left to change: log and drop, never call http.Error into a
// half-written response.
func writeJSON(w http.ResponseWriter, logger *log.Logger, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logf(logger, "api: encode response: %v", err)
	}
}

// logf logs through the configured logger, or the process default when
// none was set. The silent case is a discard logger, not nil checks at
// every call site — see Options.Logger.
func logf(logger *log.Logger, format string, args ...any) {
	if logger != nil {
		logger.Printf(format, args...)
	} else {
		log.Printf(format, args...)
	}
}
