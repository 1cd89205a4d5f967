package shop

import (
	"io"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"sheriff/internal/geo"
	"sheriff/internal/netsim"
)

// Server wraps a Retailer as an http.Handler on the virtual fabric.
// Routes:
//
//	GET /                     storefront home (category links)
//	GET /category/<cat>       listing with product links and teaser prices
//	GET /product/<sku>        product page (the measurement target)
//	GET /login?user=<name>    set the account cookie, redirect to /
//	GET /logout               clear the account cookie
//
// The visitor's location is resolved by GeoIP from the fabric-stamped
// client IP; the simulated request time comes from the fabric's time
// header. Both default safely for requests that arrive outside the fabric
// (plain httptest): unknown location prices as US, missing time prices at
// the Unix epoch.
type Server struct {
	retailer *Retailer
	geodb    *geo.DB
}

// NewServer binds a retailer to a GeoIP database.
func NewServer(r *Retailer, db *geo.DB) *Server {
	return &Server{retailer: r, geodb: db}
}

// Retailer returns the wrapped retailer.
func (s *Server) Retailer() *Retailer { return s.retailer }

// Cookie names the storefront understands.
const (
	// accountCookie is the login session cookie.
	accountCookie = "account"
	// SegmentCookie carries the behavioural segment a tracker inferred.
	SegmentCookie = "seg"
)

// visitFrom reconstructs the pricing-relevant context from a request.
func (s *Server) visitFrom(req *http.Request) Visit {
	v := Visit{}
	ipStr := req.Header.Get(netsim.HeaderClientIP)
	if ipStr == "" {
		host := req.RemoteAddr
		if i := strings.LastIndexByte(host, ':'); i > 0 {
			host = host[:i]
		}
		ipStr = host
	}
	v.IP = ipStr
	if addr, err := netip.ParseAddr(ipStr); err == nil {
		if loc, ok := s.geodb.Lookup(addr); ok {
			v.Loc = loc
		}
	}
	if v.Loc.Country.Code == "" {
		v.Loc = geo.Location{Country: geo.US}
	}
	if ts := req.Header.Get(netsim.HeaderSimTime); ts != "" {
		if t, err := time.Parse(time.RFC3339, ts); err == nil {
			v.Time = t
		}
	}
	if c, err := req.Cookie(accountCookie); err == nil {
		v.Account = c.Value
	}
	if c, err := req.Cookie(SegmentCookie); err == nil {
		v.Segment = c.Value
	}
	// The client-software fingerprint arrives the only way it does in
	// production: as the User-Agent header.
	v.Browser = geo.ProfileFromUA(req.Header.Get("User-Agent"))
	return v
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	v := s.visitFrom(req)
	path := req.URL.Path
	switch {
	case path == "/" || path == "":
		s.writeHTML(w, s.retailer.RenderHome())
	case strings.HasPrefix(path, "/category/"):
		cat := Category(strings.TrimPrefix(path, "/category/"))
		page := 0
		if pg := req.URL.Query().Get("page"); pg != "" {
			if n, err := strconv.Atoi(pg); err == nil && n >= 0 {
				page = n
			}
		}
		s.writeHTML(w, s.retailer.RenderCategoryPage(cat, v, page))
	case strings.HasPrefix(path, "/product/"):
		sku := strings.TrimPrefix(path, "/product/")
		p, ok := s.retailer.Catalog().BySKU(sku)
		if !ok {
			http.NotFound(w, req)
			return
		}
		s.writeHTML(w, s.retailer.RenderProduct(p, v))
	case path == "/login":
		user := req.URL.Query().Get("user")
		if user == "" {
			http.Error(w, "missing user", http.StatusBadRequest)
			return
		}
		http.SetCookie(w, &http.Cookie{Name: accountCookie, Value: user, Path: "/"})
		http.Redirect(w, req, "/", http.StatusFound)
	case path == "/logout":
		http.SetCookie(w, &http.Cookie{Name: accountCookie, Value: "", Path: "/", MaxAge: -1})
		http.Redirect(w, req, "/", http.StatusFound)
	default:
		http.NotFound(w, req)
	}
}

// writeHTML answers with a rendered page, its exact length declared so a
// client can size its read buffer once.
func (s *Server) writeHTML(w http.ResponseWriter, body string) {
	h := w.Header()
	h.Set("Content-Type", "text/html; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	io.WriteString(w, body)
}
