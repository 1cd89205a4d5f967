package api

// The declarative route table: every endpoint the server exposes — v1
// resources, the replication stream, health probes and the v1 404
// fallback — declares its method, pattern, handler, required role and
// follower-readability in one place, and registration, the structured
// 405s (with Allow), the follower-side read-only rejection and the
// per-route auth check all derive from it. Handlers no longer
// method-check or read-only-check themselves; adding an endpoint is
// adding a row. Paths outside the table (the retired pre-v1
// /api/check|anchors|stats aliases among them) get the mux's plain 404.

import (
	"net/http"
	"strings"

	"sheriff/internal/tenant"
)

// route is one row of the table.
type route struct {
	// method the row answers. Empty matches every method — for handlers
	// that answer any verb (the v1 404 fallback).
	method string
	// pattern is the ServeMux pattern; rows sharing a pattern share a
	// dispatcher and pool their methods into Allow.
	pattern string
	handler http.HandlerFunc
	// role gates the row behind tenancy: contributors may hit
	// contributor rows, admins everything. Empty is open. Unless the row
	// is strict, enforcement is conditional on tenancy being enabled —
	// an empty registry leaves the row anonymous (back-compat).
	role tenant.Role
	// strict enforces the role even while the registry is empty. The
	// tenant-management rows are strict so a server deployed without
	// -admin-key cannot be claimed by the first anonymous caller to
	// POST /api/v1/tenants with role "admin": the only bootstrap path is
	// the -admin-key flag, never the open wire.
	strict bool
	// write marks mutations: a follower answers these with the read-only
	// 403 redirect instead of invoking the handler.
	write bool
}

// routes is the whole surface.
func (s *Server) routes() []route {
	return []route{
		{method: http.MethodPost, pattern: "/api/v1/checks", handler: s.handleChecks, role: tenant.RoleContributor, write: true},
		{method: http.MethodGet, pattern: "/api/v1/observations", handler: s.handleObservations},
		{method: http.MethodGet, pattern: "/api/v1/domains/{domain}/report", handler: s.handleDomainReport},
		{method: http.MethodGet, pattern: "/api/v1/stats", handler: s.handleStats},
		{method: http.MethodGet, pattern: "/api/v1/anchors", handler: s.handleAnchors},
		{method: http.MethodGet, pattern: "/api/v1/events", handler: s.handleEvents},

		{method: http.MethodGet, pattern: "/api/v1/tenants", handler: s.handleTenantsList, role: tenant.RoleAdmin, strict: true},
		{method: http.MethodPost, pattern: "/api/v1/tenants", handler: s.handleTenantsCreate, role: tenant.RoleAdmin, strict: true, write: true},
		{method: http.MethodGet, pattern: "/api/v1/campaigns", handler: s.handleCampaignsList, role: tenant.RoleContributor},
		{method: http.MethodPost, pattern: "/api/v1/campaigns", handler: s.handleCampaignsCreate, role: tenant.RoleAdmin, write: true},
		{method: http.MethodGet, pattern: "/api/v1/campaigns/{id}", handler: s.handleCampaignGet, role: tenant.RoleContributor},
		{method: http.MethodPost, pattern: "/api/v1/campaigns/{id}/activate", handler: s.handleCampaignActivate, role: tenant.RoleAdmin, write: true},
		{method: http.MethodPost, pattern: "/api/v1/campaigns/{id}/claim", handler: s.handleCampaignClaim, role: tenant.RoleContributor, write: true},

		{method: http.MethodGet, pattern: "/api/v1/replication/wal", handler: s.handleReplicationWAL},
		// The tenancy snapshot carries every tenant's key hash, so once
		// tenants exist it is admin-only (followers sync with an admin
		// key, see -follow-key). Not strict: while the registry is empty
		// the snapshot is empty too, and a follower must be able to
		// bootstrap from a not-yet-tenanted primary.
		{method: http.MethodGet, pattern: "/api/v1/replication/tenants", handler: s.handleReplicationTenants, role: tenant.RoleAdmin},
		{method: http.MethodGet, pattern: "/api/v1/healthz", handler: s.handleHealthz},
		{method: http.MethodGet, pattern: "/api/v1/readyz", handler: s.handleReadyz},
		{pattern: "/api/v1/", handler: s.handleUnknownV1},
	}
}

// registerRoutes groups the table by pattern and mounts one dispatcher
// per pattern.
func (s *Server) registerRoutes(mux *http.ServeMux) {
	byPattern := make(map[string][]route)
	var order []string
	for _, rt := range s.routes() {
		if _, seen := byPattern[rt.pattern]; !seen {
			order = append(order, rt.pattern)
		}
		byPattern[rt.pattern] = append(byPattern[rt.pattern], rt)
	}
	for _, pat := range order {
		mux.Handle(pat, s.dispatch(byPattern[pat]))
	}
}

// dispatch builds one pattern's handler: pick the row matching the
// request method (405 with Allow on a miss — bare OPTIONS, which the
// CORS middleware let through without preflight headers, is answered 204
// with Allow, since advertising OPTIONS in Allow and then rejecting it
// would contradict ourselves), reject writes on read-only nodes, enforce
// the row's role, then run the handler.
func (s *Server) dispatch(rts []route) http.Handler {
	var methods []string
	for _, rt := range rts {
		if rt.method != "" {
			methods = append(methods, rt.method)
		}
	}
	allow := strings.Join(append(append([]string(nil), methods...), http.MethodOptions), ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var hit *route
		for i := range rts {
			if rts[i].method == "" || rts[i].method == r.Method {
				hit = &rts[i]
				break
			}
		}
		if hit == nil {
			w.Header().Set("Allow", allow)
			if r.Method == http.MethodOptions {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			writeError(w, s.opts.Logger, errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"%s requires %s", r.URL.Path, strings.Join(methods, " or ")))
			return
		}
		if hit.write && s.follower != nil {
			s.writeReadOnly(w, r)
			return
		}
		if hit.role != "" {
			if e := s.checkRole(r, hit.role, hit.strict); e != nil {
				writeError(w, s.opts.Logger, e)
				return
			}
		}
		hit.handler(w, r)
	})
}

// checkRole enforces a row's role requirement. With tenancy disabled
// (empty registry) non-strict rows stay open; strict rows always demand
// an authenticated tenant — with no tenants registered there is nothing
// that can authenticate, so they answer 401 until an operator
// bootstraps an admin out of band (-admin-key). Once tenants exist,
// gated rows demand a key (401) whose tenant's role covers the
// requirement (403). Invalid keys never reach here — the auth
// middleware already rejected them.
func (s *Server) checkRole(r *http.Request, need tenant.Role, strict bool) *Error {
	if !s.tenants.Enabled() {
		if !strict {
			return nil
		}
		return errf(http.StatusUnauthorized, CodeUnauthorized,
			"tenancy is not enabled; bootstrap an admin tenant with sheriffd -admin-key")
	}
	t, ok := tenantFrom(r.Context())
	if !ok {
		return errf(http.StatusUnauthorized, CodeUnauthorized,
			"endpoint requires an API key (Authorization: Bearer or X-API-Key)")
	}
	if !t.Role.Covers(need) {
		return errf(http.StatusForbidden, CodeForbidden,
			"tenant %s role %s does not cover %s", t.ID, t.Role, need)
	}
	return nil
}

// handleUnknownV1 is the fallback for unrecognized v1 paths.
func (s *Server) handleUnknownV1(w http.ResponseWriter, r *http.Request) {
	writeError(w, s.opts.Logger, errf(http.StatusNotFound, CodeNotFound,
		"no such endpoint: %s", r.URL.Path))
}
