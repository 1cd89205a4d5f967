package backend

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// testWorld wires a minimal fabric: one varying retailer, one flat one.
type testWorld struct {
	reg     *netsim.Registry
	clk     *netsim.Clock
	market  *fx.Market
	st      *store.Store
	backend *Backend
	vary    *shop.Retailer
	flat    *shop.Retailer
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	market := fx.NewMarket(1)
	geodb := geo.NewDB()
	reg := netsim.NewRegistry()
	clk := netsim.NewClock(time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC))

	vary := shop.New(shop.Config{
		Domain: "vary.example.com", Label: "Varying shop", Seed: 21,
		Categories: []shop.Category{shop.CatClothing}, ProductCount: 20,
		PriceLo: 20, PriceHi: 200, Template: "classic", Localize: true,
		VariedFraction: 1.0,
		CountryFactor:  map[string]float64{"FI": 1.30, "DE": 1.12, "GB": 1.10, "BE": 1.12, "ES": 1.12},
	}, market)
	flat := shop.New(shop.Config{
		Domain: "flat.example.com", Label: "Flat shop", Seed: 22,
		Categories: []shop.Category{shop.CatBooks}, ProductCount: 20,
		PriceLo: 10, PriceHi: 100, Template: "modern", Localize: true,
		VariedFraction: 0,
	}, market)
	reg.Register(vary.Domain(), shop.NewServer(vary, geodb))
	reg.Register(flat.Domain(), shop.NewServer(flat, geodb))

	st := store.New()
	b := New(reg, clk, market, geo.VantagePoints(), st)
	return &testWorld{reg: reg, clk: clk, market: market, st: st, backend: b, vary: vary, flat: flat}
}

// highlightFor computes the price string a user at loc would see — the
// human-perception step of a crowd check.
func highlightFor(t *testing.T, r *shop.Retailer, sku string, cc, city string, clk *netsim.Clock) string {
	t.Helper()
	loc, err := geo.LocationOf(cc, city)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := r.Catalog().BySKU(sku)
	if !ok {
		t.Fatalf("no product %s", sku)
	}
	amt := r.DisplayPrice(p, shop.Visit{Loc: loc, Time: clk.Now(), IP: "10.0.1.77"})
	return money.Format(amt, amt.Currency.Style())
}

func userAddr(t *testing.T, cc, city string) (addr [4]byte) {
	t.Helper()
	loc, err := geo.LocationOf(cc, city)
	if err != nil {
		t.Fatal(err)
	}
	a, err := geo.AddrFor(loc, 77)
	if err != nil {
		t.Fatal(err)
	}
	return a.As4()
}

func TestCheckDetectsVariation(t *testing.T) {
	w := newTestWorld(t)
	sku := w.vary.Catalog().Products()[0].SKU
	addr4 := userAddr(t, "US", "Boston")
	res, err := w.backend.Check(CheckRequest{
		URL:       "http://vary.example.com/product/" + sku,
		Highlight: highlightFor(t, w.vary, sku, "US", "Boston", w.clk),
		UserAddr:  addrOf(addr4),
		UserID:    "u1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Varies {
		t.Fatalf("variation not detected: %+v", res)
	}
	if res.Ratio < 1.2 || res.Ratio > 1.4 {
		t.Fatalf("ratio = %v, want ~1.30 (FI factor)", res.Ratio)
	}
	if len(res.Prices) != 14 {
		t.Fatalf("prices = %d, want 14 VPs", len(res.Prices))
	}
	okCount := 0
	currencies := map[string]bool{}
	for _, p := range res.Prices {
		if p.OK {
			okCount++
			currencies[p.Currency] = true
		}
	}
	if okCount != 14 {
		t.Fatalf("ok extractions = %d of 14: %+v", okCount, res.Prices)
	}
	// US, UK, EUR, BRL at least.
	for _, c := range []string{"USD", "GBP", "EUR", "BRL"} {
		if !currencies[c] {
			t.Errorf("no VP saw currency %s", c)
		}
	}
	if w.st.Len() != 14 {
		t.Fatalf("store has %d observations", w.st.Len())
	}
}

func TestCheckFlatRetailerNoVariation(t *testing.T) {
	w := newTestWorld(t)
	sku := w.flat.Catalog().Products()[0].SKU
	res, err := w.backend.Check(CheckRequest{
		URL:       "http://flat.example.com/product/" + sku,
		Highlight: highlightFor(t, w.flat, sku, "DE", "Berlin", w.clk),
		UserAddr:  addrOf(userAddr(t, "DE", "Berlin")),
		UserID:    "u2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Varies {
		t.Fatalf("flat retailer flagged as varying (ratio %v) — currency filter failed", res.Ratio)
	}
}

func TestCheckLearnsAnchor(t *testing.T) {
	w := newTestWorld(t)
	sku := w.vary.Catalog().Products()[1].SKU
	if _, ok := w.backend.Anchor("vary.example.com"); ok {
		t.Fatal("anchor before any check")
	}
	_, err := w.backend.Check(CheckRequest{
		URL:       "http://vary.example.com/product/" + sku,
		Highlight: highlightFor(t, w.vary, sku, "US", "Boston", w.clk),
		UserAddr:  addrOf(userAddr(t, "US", "Boston")),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := w.backend.Anchor("vary.example.com")
	if !ok || a.Path == "" {
		t.Fatalf("anchor not learned: %+v", a)
	}
	if w.backend.Checks() != 1 {
		t.Fatalf("checks = %d", w.backend.Checks())
	}
}

func TestCheckErrors(t *testing.T) {
	w := newTestWorld(t)
	addr := addrOf(userAddr(t, "US", "Boston"))
	if _, err := w.backend.Check(CheckRequest{URL: "http://nowhere.example.com/product/X", Highlight: "$1.00", UserAddr: addr}); err == nil {
		t.Error("NXDOMAIN check succeeded")
	}
	sku := w.vary.Catalog().Products()[0].SKU
	if _, err := w.backend.Check(CheckRequest{URL: "http://vary.example.com/product/" + sku, Highlight: "gibberish", UserAddr: addr}); err == nil {
		t.Error("non-price highlight accepted")
	}
	if _, err := w.backend.Check(CheckRequest{URL: "://bad", Highlight: "$1.00", UserAddr: addr}); err == nil {
		t.Error("bad URL accepted")
	}
}

func TestCheckSynchronizedTimestamps(t *testing.T) {
	w := newTestWorld(t)
	sku := w.vary.Catalog().Products()[2].SKU
	_, err := w.backend.Check(CheckRequest{
		URL:       "http://vary.example.com/product/" + sku,
		Highlight: highlightFor(t, w.vary, sku, "US", "Boston", w.clk),
		UserAddr:  addrOf(userAddr(t, "US", "Boston")),
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := w.st.All()
	for _, o := range obs[1:] {
		if !o.Time.Equal(obs[0].Time) {
			t.Fatal("fan-out not synchronized")
		}
	}
}

func addrOf(b [4]byte) netip.Addr { return netip.AddrFrom4(b) }

func TestAnchorsSaveLoadRoundTrip(t *testing.T) {
	w := newTestWorld(t)
	sku := w.vary.Catalog().Products()[5].SKU
	_, err := w.backend.Check(CheckRequest{
		URL:       "http://vary.example.com/product/" + sku,
		Highlight: highlightFor(t, w.vary, sku, "US", "Boston", w.clk),
		UserAddr:  addrOf(userAddr(t, "US", "Boston")),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.backend.SaveAnchors(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh backend inherits the anchors.
	w2 := newTestWorld(t)
	if err := w2.backend.LoadAnchors(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	a1, ok1 := w.backend.Anchor("vary.example.com")
	a2, ok2 := w2.backend.Anchor("vary.example.com")
	if !ok1 || !ok2 || a1 != a2 {
		t.Fatalf("anchor round trip: %+v vs %+v", a1, a2)
	}
}

func TestLoadAnchorsBadInput(t *testing.T) {
	w := newTestWorld(t)
	if err := w.backend.LoadAnchors(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
