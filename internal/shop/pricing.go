package shop

import (
	"math"
	"time"

	"sheriff/internal/fx"
	"sheriff/internal/geo"
	mkt "sheriff/internal/market"
	"sheriff/internal/money"
)

// Config declares a retailer's identity and pricing behaviour. The zero
// value is not usable; fill at least Domain, Categories, ProductCount and
// the price range.
type Config struct {
	// Domain the retailer serves, e.g. "www.digitalrev.com".
	Domain string
	// Label is a human-readable description used in reports.
	Label string
	// Seed drives every deterministic pseudo-random decision.
	Seed int64
	// Categories sold, round-robin across the catalog.
	Categories []Category
	// ProductCount is the catalog size.
	ProductCount int
	// PriceLo and PriceHi bound base prices in USD (log-uniform).
	PriceLo, PriceHi float64
	// Template selects the HTML family: "classic", "modern", "table",
	// or "minimal".
	Template string
	// Localize converts display prices into the visitor's currency at the
	// day's mid fixing; otherwise prices show in USD.
	Localize bool

	// CountryFactor multiplies the base price per ISO country code.
	// Countries not present use 1.0.
	CountryFactor map[string]float64
	// CountryJitter adds a per-product deterministic jitter of amplitude a
	// to a country's factor: factor += a*(2u-1) with u = hash(product).
	// This produces the paper's "mixed" pairwise relations (Fig. 8).
	CountryJitter map[string]float64
	// CountryAdd adds a flat USD term per country (the additive strategy
	// of Fig. 6b).
	CountryAdd map[string]float64
	// CityFactor multiplies the base price per "CC/City" key, composing
	// with the country factor (Fig. 8a).
	CityFactor map[string]float64
	// CityJitter is CountryJitter at city granularity.
	CityJitter map[string]float64

	// VariedFraction is the fraction of products subject to geo pricing at
	// all; the rest price identically everywhere (Fig. 3's "extent").
	// The zero value means no product varies — a retailer that geo-prices
	// its whole catalog must say VariedFraction: 1.0 explicitly, which
	// every preset does.
	VariedFraction float64

	// ABFraction of products run an A/B price test; ABAmplitude is the
	// bucket delta (e.g. 0.05 → bucket B pays +5%). Bucket assignment
	// flips pseudo-randomly per (product, client IP, day) — persistent
	// discrimination it is not, and repeated measurement detects that.
	ABFraction, ABAmplitude float64

	// DriftAmplitude lets prices wander ±a within a day (hourly steps,
	// same at every location). Synchronized fan-out cancels it;
	// unsynchronized measurement turns it into false variation.
	DriftAmplitude float64

	// LoginJitter prices products of LoginCategories per account:
	// ±LoginJitter by hash(account, product), with the anonymous visitor
	// at the base price (Fig. 10).
	LoginJitter float64
	// LoginCategories lists the categories affected by LoginJitter.
	LoginCategories []Category

	// SegmentFactor multiplies prices per behavioural segment cookie
	// ("affluent", "budget"). The paper looked for this and found none
	// (Sec. 4.4), so every preset leaves it empty — but the machinery
	// exists so the persona experiment tests a real code path, and so the
	// detector can be validated against a retailer that does discriminate
	// on browsing history.
	SegmentFactor map[string]float64

	// FingerprintFactor multiplies the price per client-software
	// fingerprint, keyed by the browser profile's "OS/Browser" string
	// (e.g. "Macintosh/Safari": 1.05) — device/OS-based pricing per
	// Hupperich et al. Fingerprints not in the map pay the baseline. The
	// retailer reads the fingerprint off the User-Agent header, exactly
	// like a real shop.
	FingerprintFactor map[string]float64

	// WeekdayFactor multiplies the price per UTC weekday name
	// ("Saturday": 1.10) — temporal discrimination that is identical at
	// every location at any instant. A synchronized measurement round must
	// never attribute it to location.
	WeekdayFactor map[string]float64

	// HideFraction is the fraction of (product, client IP) pairs whose
	// price is withheld and rendered as "Price on request" — selective
	// per-client price disclosure per Hajaj et al. The decision is
	// deterministic per pair, so the same client persistently sees (or
	// never sees) a given price. HideCountries optionally restricts hiding
	// to clients geo-located in those countries.
	HideFraction  float64
	HideCountries []string

	// Competition, when non-nil, prices the catalog against a simulated
	// rival market: the retailer observes the market leader's price path
	// and reprices on the simulated clock per the configured dynamic
	// (leader-follower, contrarian or periodic-sale). This moves the
	// *base* price for every visitor identically — market dynamics, not
	// discrimination — which is exactly the confound the detector must
	// separate from the per-client strategies above.
	Competition *mkt.CompetitionConfig

	// Demand, when non-nil, moves the base price with simulated sales
	// volume: daily sales deplete stock, scarcity raises the price, a
	// restock resets it. Like Competition, identical for every visitor.
	Demand *mkt.DemandConfig

	// Trackers embedded in every page: any of "ga", "doubleclick",
	// "facebook", "pinterest", "twitter" (Sec. 4.4).
	Trackers []string
}

// Visit captures everything about a request that may influence the price.
type Visit struct {
	// Loc is where the client's IP geo-locates.
	Loc geo.Location
	// Time is the simulated request time.
	Time time.Time
	// Account is the logged-in account name ("" when anonymous).
	Account string
	// Segment is the behavioural segment cookie value ("" when untagged).
	Segment string
	// IP is the client address string, used for A/B bucketing and
	// selective price disclosure.
	IP string
	// Browser is the client-software fingerprint the visit presented
	// (parsed from the User-Agent header); the zero profile prices as the
	// baseline.
	Browser geo.BrowserProfile
}

// Retailer is a configured, priced, renderable shop. Create with New.
type Retailer struct {
	cfg     Config
	catalog *Catalog
	market  *fx.Market
	dyn     *mkt.Model // market dynamics; nil when neither config is set
	rules   []PricingRule
	// trackers is the tracker embed HTML every page carries, rendered
	// once.
	trackers string
}

// New builds a retailer from its config and the shared FX market
// (needed to localize display prices). The pricing pipeline is compiled
// once here; see rules.go.
func New(cfg Config, fxm *fx.Market) *Retailer {
	if cfg.Template == "" {
		cfg.Template = "classic"
	}
	prefix := skuPrefix(cfg.Domain)
	cat := GenCatalog(cfg.Seed, prefix, cfg.Categories, cfg.ProductCount, cfg.PriceLo, cfg.PriceHi)
	r := &Retailer{cfg: cfg, catalog: cat, market: fxm, trackers: trackerHTML(cfg.Trackers)}
	if cfg.Competition != nil || cfg.Demand != nil {
		r.dyn = mkt.NewModel(cfg.Seed, cfg.Competition, cfg.Demand)
	}
	r.rules = compileRules(r)
	return r
}

// Dynamics exposes the retailer's market-dynamics model (nil when the
// config declares neither competition nor demand pricing) — the CLI's
// world inspection reads rival quotes and inventory through it.
func (r *Retailer) Dynamics() *mkt.Model { return r.dyn }

// skuPrefix derives a short SKU prefix from the domain.
func skuPrefix(domain string) string {
	letters := make([]byte, 0, 3)
	for i := 0; i < len(domain) && len(letters) < 3; i++ {
		c := domain[i]
		if c >= 'a' && c <= 'z' {
			letters = append(letters, c-('a'-'A'))
		}
	}
	for len(letters) < 3 {
		letters = append(letters, 'X')
	}
	return string(letters)
}

// Config returns a copy of the retailer's configuration.
func (r *Retailer) Config() Config { return r.cfg }

// Domain returns the retailer's domain.
func (r *Retailer) Domain() string { return r.cfg.Domain }

// Catalog exposes the retailer's products.
func (r *Retailer) Catalog() *Catalog { return r.catalog }

// varied reports whether a product participates in geo pricing. The
// VariedFraction zero value explicitly means no product varies (the
// long-tail retailers rely on this); a full-catalog extent requires 1.0.
func (r *Retailer) varied(p Product) bool {
	switch {
	case r.cfg.VariedFraction <= 0:
		return false
	case r.cfg.VariedFraction >= 1:
		return true
	}
	return hash01(r.cfg.Seed, "varied", p.SKU) < r.cfg.VariedFraction
}

// geoFactor computes the multiplicative location factor for a product.
func (r *Retailer) geoFactor(p Product, loc geo.Location) float64 {
	f := 1.0
	cc := loc.Country.Code
	if base, ok := r.cfg.CountryFactor[cc]; ok {
		f *= base
	}
	if amp, ok := r.cfg.CountryJitter[cc]; ok && amp > 0 {
		f += amp * (2*hash01(r.cfg.Seed, "cjit", cc, p.SKU) - 1)
	}
	cityKey := cc + "/" + loc.City
	if base, ok := r.cfg.CityFactor[cityKey]; ok {
		f *= base
	}
	if amp, ok := r.cfg.CityJitter[cityKey]; ok && amp > 0 {
		f += amp * (2*hash01(r.cfg.Seed, "cityjit", cityKey, p.SKU) - 1)
	}
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// geoAdd computes the additive USD term for a product's location.
func (r *Retailer) geoAdd(loc geo.Location) float64 {
	return r.cfg.CountryAdd[loc.Country.Code]
}

// abDelta computes the A/B test multiplier for a visit; 1.0 when the
// product is not under test. Bucket assignment changes with the day and
// client, never with the product's location alone.
func (r *Retailer) abDelta(p Product, v Visit) float64 {
	if r.cfg.ABFraction <= 0 || hash01(r.cfg.Seed, "abmember", p.SKU) >= r.cfg.ABFraction {
		return 1
	}
	day := v.Time.UTC().Format("2006-01-02")
	if hash01(r.cfg.Seed, "abbucket", p.SKU, v.IP, day) < 0.5 {
		return 1
	}
	return 1 + r.cfg.ABAmplitude
}

// drift computes the slow intra-day price wander, identical at every
// location at any instant.
func (r *Retailer) drift(p Product, t time.Time) float64 {
	if r.cfg.DriftAmplitude <= 0 {
		return 1
	}
	hour := float64(t.UTC().Unix() / 3600)
	phase := 2 * math.Pi * hash01(r.cfg.Seed, "driftphase", p.SKU)
	return 1 + r.cfg.DriftAmplitude*math.Sin(hour/3.7+phase)
}

// loginDelta computes the account multiplier for login-priced categories.
// Only a subset of products reacts to any given account — Fig. 10 shows
// series that coincide with the anonymous price on some products and
// depart on others, with no clean correlation.
func (r *Retailer) loginDelta(p Product, account string) float64 {
	if r.cfg.LoginJitter <= 0 || account == "" {
		return 1
	}
	for _, c := range r.cfg.LoginCategories {
		if c != p.Category {
			continue
		}
		if hash01(r.cfg.Seed, "loginmask", account, p.SKU) < 0.35 {
			return 1 // this product ignores this account
		}
		return 1 + r.cfg.LoginJitter*(2*hash01(r.cfg.Seed, "login", account, p.SKU)-1)
	}
	return 1
}

// USDPrice computes the price of a product for a visit, in USD, before
// currency localization, by folding the visit through the compiled
// pricing-rule pipeline (rules.go). This is the ground truth the analysis
// pipeline tries to recover from rendered pages.
func (r *Retailer) USDPrice(p Product, v Visit) money.Amount {
	price := p.Base.Float()
	for i := range r.rules {
		price = r.rules[i].Apply(price, p, v)
	}
	if price < 0.01 {
		price = 0.01
	}
	return money.FromFloat(price, money.USD)
}

// DisplayPrice converts the USD price into what the visitor actually sees:
// the visitor's local currency when Localize is set, USD otherwise.
// Conversion follows the retail convention (merchant-favourable fixing,
// fx.ConvertRetail), so localized prices carry the sub-percent currency
// noise the paper's filter has to discount.
func (r *Retailer) DisplayPrice(p Product, v Visit) money.Amount {
	usd := r.USDPrice(p, v)
	if !r.cfg.Localize {
		return usd
	}
	local := v.Loc.Country.Currency
	if local.Code == "" || local.Code == "USD" {
		return usd
	}
	return r.market.ConvertRetail(usd, local, v.Time)
}

// WasPrice fabricates the struck-through "was" decoy some templates show
// (a premium over the current price); it exists to confuse naive price
// extraction.
func (r *Retailer) WasPrice(p Product, v Visit) money.Amount {
	return r.wasPrice(p, r.DisplayPrice(p, v))
}

// wasPrice is the "was" decoy over p's display price.
func (r *Retailer) wasPrice(p Product, display money.Amount) money.Amount {
	return display.Mul(1.2 + 0.15*hash01(r.cfg.Seed, "was", p.SKU))
}
