package shop

import (
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/netip"
	"strings"
	"testing"
	"time"

	"sheriff/internal/geo"
	"sheriff/internal/netsim"
)

// fabric builds a one-retailer virtual internet for handler tests.
func fabric(t *testing.T, cfg Config) (*Retailer, *netsim.Registry, *netsim.Clock) {
	t.Helper()
	r := testRetailer(cfg)
	db := geo.NewDB()
	reg := netsim.NewRegistry()
	reg.Register(r.Domain(), NewServer(r, db))
	clk := netsim.NewClock(time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC))
	return r, reg, clk
}

func clientAt(t *testing.T, reg *netsim.Registry, clk *netsim.Clock, cc, city string, host int) *http.Client {
	t.Helper()
	l, err := geo.LocationOf(cc, city)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := geo.AddrFor(l, host)
	if err != nil {
		t.Fatal(err)
	}
	jar, _ := cookiejar.New(nil)
	return &http.Client{Transport: netsim.NewTransport(reg, clk, addr), Jar: jar}
}

func get(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestServerProductPageByLocation(t *testing.T) {
	r, reg, clk := fabric(t, Config{
		Seed: 70, Localize: true,
		CountryFactor: map[string]float64{"FI": 1.25},
	})
	sku := r.Catalog().Products()[0].SKU
	us := clientAt(t, reg, clk, "US", "Boston", 20)
	fi := clientAt(t, reg, clk, "FI", "Tampere", 20)

	pageUS := get(t, us, "http://"+r.Domain()+"/product/"+sku)
	pageFI := get(t, fi, "http://"+r.Domain()+"/product/"+sku)
	if pageUS == pageFI {
		t.Fatal("pages identical across locations despite geo factor")
	}
	if !strings.Contains(pageUS, "$") {
		t.Error("US page missing dollar price")
	}
	if !strings.Contains(pageFI, "€") {
		t.Error("Finnish page missing euro price")
	}
}

func TestServerNotFound(t *testing.T) {
	r, reg, clk := fabric(t, Config{Seed: 71})
	c := clientAt(t, reg, clk, "US", "Boston", 21)
	resp, err := c.Get("http://" + r.Domain() + "/product/NOPE-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, err = c.Get("http://" + r.Domain() + "/bogus/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerLoginChangesEbookPrice(t *testing.T) {
	r, reg, clk := fabric(t, Config{
		Seed:            72,
		Categories:      []Category{CatEbooks},
		LoginJitter:     0.10,
		LoginCategories: []Category{CatEbooks},
	})
	// Find an ebook whose price actually moves for this account.
	c := clientAt(t, reg, clk, "US", "Boston", 22)
	var before, after string
	var sku string
	for _, p := range r.Catalog().Products() {
		anon := Visit{Loc: mustLoc(t, "US", "Boston"), Time: clk.Now()}
		logged := anon
		logged.Account = "userA"
		if r.USDPrice(p, anon) != r.USDPrice(p, logged) {
			sku = p.SKU
			break
		}
	}
	if sku == "" {
		t.Fatal("no login-sensitive product found")
	}
	url := "http://" + r.Domain() + "/product/" + sku
	before = get(t, c, url)
	get(t, c, "http://"+r.Domain()+"/login?user=userA")
	after = get(t, c, url)
	if before == after {
		t.Fatal("login did not change the page")
	}
	get(t, c, "http://"+r.Domain()+"/logout")
	again := get(t, c, url)
	if again != before {
		t.Fatal("logout did not restore the anonymous price")
	}
}

func mustLoc(t *testing.T, cc, city string) geo.Location {
	t.Helper()
	l, err := geo.LocationOf(cc, city)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestServerLoginRequiresUser(t *testing.T) {
	r, reg, clk := fabric(t, Config{Seed: 73})
	c := clientAt(t, reg, clk, "US", "Boston", 23)
	resp, err := c.Get("http://" + r.Domain() + "/login")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerCategoryAndHome(t *testing.T) {
	r, reg, clk := fabric(t, Config{Seed: 74, Categories: []Category{CatBooks}, ProductCount: 15})
	c := clientAt(t, reg, clk, "US", "Boston", 24)
	home := get(t, c, "http://"+r.Domain()+"/")
	if !strings.Contains(home, "/category/books") {
		t.Fatal("home missing category link")
	}
	cat := get(t, c, "http://"+r.Domain()+"/category/books")
	if got := strings.Count(cat, "product-link"); got != 15 {
		t.Fatalf("category page lists %d, want 15", got)
	}
}

func TestServerUnknownClientDefaultsToUS(t *testing.T) {
	// A request from an unregistered IP block prices as US.
	r, _, _ := fabric(t, Config{Seed: 75, Localize: true, CountryFactor: map[string]float64{"FI": 1.3}})
	db := geo.NewDB()
	srv := NewServer(r, db)
	reg2 := netsim.NewRegistry()
	reg2.Register(r.Domain(), srv)
	clk := netsim.NewClock(time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC))
	tr := netsim.NewTransport(reg2, clk, netip.AddrFrom4([4]byte{192, 168, 7, 7}))
	body, _, err := tr.Get("http://"+r.Domain()+"/product/"+r.Catalog().Products()[0].SKU, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "$") {
		t.Fatal("unknown-location visitor did not get USD prices")
	}
}

func TestServerTimeFromFabricHeader(t *testing.T) {
	// Price drift follows the simulated clock, not the wall clock.
	r, reg, clk := fabric(t, Config{Seed: 76, DriftAmplitude: 0.05})
	sku := r.Catalog().Products()[0].SKU
	c := clientAt(t, reg, clk, "US", "Boston", 25)
	url := "http://" + r.Domain() + "/product/" + sku
	p1 := get(t, c, url)
	p2 := get(t, c, url)
	if p1 != p2 {
		t.Fatal("same simulated instant produced different pages")
	}
	clk.Advance(9 * time.Hour)
	p3 := get(t, c, url)
	if p3 == p1 {
		t.Fatal("drift ignored the simulated clock")
	}
}
