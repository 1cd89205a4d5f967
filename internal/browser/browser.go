// Package browser simulates the client side of the study: a browser bound
// to a location on the virtual fabric, with a cookie jar, a User-Agent
// fingerprint, a visit history, and the persona-training procedure of
// Sec. 4.4 (the affluent vs budget-conscious profiles of the paper's
// earlier work, retrained here).
package browser

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/netip"
	"net/url"
	"sync"

	"sheriff/internal/geo"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
)

// Browser is a simulated user agent at a fixed network location.
type Browser struct {
	profile geo.BrowserProfile
	client  *http.Client
	jar     http.CookieJar
	addr    netip.Addr

	mu      sync.Mutex
	history []string
}

// New builds a browser egressing from addr with the given fingerprint.
func New(reg *netsim.Registry, clk *netsim.Clock, addr netip.Addr, profile geo.BrowserProfile) *Browser {
	jar, err := cookiejar.New(nil)
	if err != nil {
		panic(err) // cookiejar.New with nil options cannot fail
	}
	return &Browser{
		profile: profile,
		client:  &http.Client{Transport: netsim.NewTransport(reg, clk, addr), Jar: jar},
		jar:     jar,
		addr:    addr,
	}
}

// Addr returns the browser's egress address.
func (b *Browser) Addr() netip.Addr { return b.addr }

// Profile returns the browser fingerprint.
func (b *Browser) Profile() geo.BrowserProfile { return b.profile }

// Get fetches a URL with the browser's fingerprint and cookies, records it
// in the history, and returns the response body.
func (b *Browser) Get(rawURL string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return "", fmt.Errorf("browser: %w", err)
	}
	req.Header.Set("User-Agent", b.profile.UserAgent())
	resp, err := b.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("browser: get %s: %w", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("browser: read %s: %w", rawURL, err)
	}
	b.mu.Lock()
	b.history = append(b.history, rawURL)
	b.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return string(body), &HTTPError{URL: rawURL, Status: resp.StatusCode}
	}
	return string(body), nil
}

// History returns the URLs visited, in order.
func (b *Browser) History() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.history))
	copy(out, b.history)
	return out
}

// SetCookie plants a cookie for a domain (used by persona tagging).
func (b *Browser) SetCookie(domain string, c *http.Cookie) {
	u := &url.URL{Scheme: "http", Host: domain, Path: "/"}
	b.jar.SetCookies(u, []*http.Cookie{c})
}

// HTTPError reports a non-200 response.
type HTTPError struct {
	// URL that was fetched.
	URL string
	// Status is the HTTP status code.
	Status int
}

// Error implements the error interface.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("browser: GET %s: status %d", e.URL, e.Status)
}

// Persona is a trained browsing profile. The paper trains an "affluent"
// and a "budget conscious" persona and checks whether retailers price by
// them (they did not, Sec. 4.4).
type Persona struct {
	// Name is the segment label, e.g. "affluent".
	Name string
	// TrainingSites are the domains whose repeated visits define the
	// persona (luxury stores vs discount stores).
	TrainingSites []string
	// Visits is how many training fetches to make per site.
	Visits int
}

// AffluentPersona mirrors the paper's high-willingness-to-pay profile.
func AffluentPersona(luxuryDomains []string) Persona {
	return Persona{Name: "affluent", TrainingSites: luxuryDomains, Visits: 3}
}

// BudgetPersona mirrors the paper's price-sensitive profile.
func BudgetPersona(discountDomains []string) Persona {
	return Persona{Name: "budget", TrainingSites: discountDomains, Visits: 3}
}

// Train browses the persona's training sites to build history, then tags
// the browser with the persona's segment cookie for target — the
// simulation's stand-in for a tracking network inferring the segment from
// the history and making it available to the retailer. Training failures
// on individual sites are skipped (dead domains happen); Train only fails
// if every fetch fails.
func (p Persona) Train(b *Browser, target string) error {
	okCount := 0
	for _, site := range p.TrainingSites {
		for v := 0; v < p.Visits; v++ {
			if _, err := b.Get("http://" + site + "/"); err == nil {
				okCount++
			}
		}
	}
	if okCount == 0 && len(p.TrainingSites) > 0 {
		return fmt.Errorf("browser: persona %q: all training fetches failed", p.Name)
	}
	b.SetCookie(target, &http.Cookie{Name: shop.SegmentCookie, Value: p.Name, Path: "/"})
	return nil
}
