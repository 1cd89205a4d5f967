package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// This file is the per-rule detector: it attributes the variation observed
// in a domain's crawl data to discrimination strategy families
// (shop.StrategyFamily), using the structure of the vantage-point fleet as
// its controls:
//
//   - geo: vantage points with the SAME browser fingerprint at different
//     locations disagree within a synchronized round, persistently and
//     with a stable who-pays-more order (the paper's repetition defence
//     filters A/B churn);
//   - fingerprint: vantage points at the SAME location with different
//     fingerprints disagree — the Barcelona trio exists exactly for this
//     (Fig. 7's three Spanish browser configurations);
//   - disclosure: a vantage point persistently fails extraction on a
//     product every other vantage point reads fine — selective "price on
//     request" withholding, not transient 503 noise (which re-rolls per
//     simulated day);
//   - temporal: the consensus price of same-fingerprint, USD-currency
//     vantage points is uniform within every round yet moves across
//     rounds — drift or weekday pricing, invisible to any synchronized
//     cross-location comparison and therefore never attributed to geo.
//
// A consensus series that moves is NOT automatically discrimination:
// competitive repricing and demand-driven scarcity pricing
// (internal/market) move the base price identically for every client.
// The consensus-series classifier (classifyConsensus) separates these
// dynamics from the temporal discrimination strategies by shape —
// weekday-periodic series are calendar pricing (temporal), held levels
// punctuated by repricing jumps are competitive dynamics, strict daily
// climbs broken by restock drops are demand dynamics, and anything
// else that moves stays temporal. A market verdict must never flip a
// geo/fingerprint/disclosure verdict: those compare across the fleet
// within a round, where a market-wide move is invisible.
//
// The scenario matrix (internal/core) scores these verdicts against the
// ground-truth rule families each scenario retailer compiled.

// The detector's thresholds, one set for every retailer.
const (
	// minProducts is the minimum number of affected products before a
	// family is flagged.
	minProducts = 3
	// minFraction is the minimum affected share of eligible products.
	minFraction = 0.08
	// minFailRounds is how many rounds a vantage point must persistently
	// fail (while another succeeds) to count as withheld.
	minFailRounds = 3
)

// FamilyEvidence is one family's verdict for a domain.
type FamilyEvidence struct {
	// Family is the strategy family judged.
	Family shop.StrategyFamily
	// Flagged reports whether the domain exercises the family.
	Flagged bool
	// Affected is how many products exhibit the effect; Eligible how many
	// carried enough data to judge.
	Affected, Eligible int
}

// Affected01 is the affected share of eligible products in [0, 1]
// (0 when nothing was eligible).
func (e FamilyEvidence) Affected01() float64 {
	if e.Eligible == 0 {
		return 0
	}
	return float64(e.Affected) / float64(e.Eligible)
}

// StrategyReport attributes a domain's observed variation to strategy
// families.
type StrategyReport struct {
	// Domain judged.
	Domain string
	// Evidence per family, keyed by family.
	Evidence map[shop.StrategyFamily]FamilyEvidence
}

// Flagged reports whether a family was detected.
func (r StrategyReport) Flagged(f shop.StrategyFamily) bool {
	return r.Evidence[f].Flagged
}

// String renders a compact one-line verdict for reports.
func (r StrategyReport) String() string {
	fams := make([]string, 0, len(r.Evidence))
	for f := range r.Evidence {
		fams = append(fams, string(f))
	}
	sort.Strings(fams)
	parts := make([]string, 0, len(fams))
	for _, f := range fams {
		e := r.Evidence[shop.StrategyFamily(f)]
		mark := "-"
		if e.Flagged {
			mark = "+"
		}
		parts = append(parts, fmt.Sprintf("%s%s(%d/%d)", mark, f, e.Affected, e.Eligible))
	}
	return r.Domain + ": " + strings.Join(parts, " ")
}

// DetectableFamilies lists the families the detector can attribute
// from crawl data. Account and segment pricing need the dedicated login
// and persona experiments; A/B churn is what the persistence filters
// remove rather than report.
var DetectableFamilies = []shop.StrategyFamily{
	shop.FamilyGeo, shop.FamilyFingerprint, shop.FamilyDisclosure, shop.FamilyTemporal,
	shop.FamilyCompetitive, shop.FamilyDemand,
}

// vpMeta caches per-vantage-point controls.
type vpMeta struct {
	fingerprint string // BrowserProfile.Key()
	location    string // "CC/City"
	usd         bool   // vantage point is billed in USD
}

func vantageMeta() map[string]vpMeta {
	out := map[string]vpMeta{}
	for _, vp := range geo.VantagePoints() {
		out[vp.ID] = vpMeta{
			fingerprint: vp.Browser.Key(),
			location:    vp.Location.Country.Code + "/" + vp.Location.City,
			usd:         vp.Location.Country.Currency.Code == "USD",
		}
	}
	return out
}

// FamilyContribution is one product's contribution to a family's tally:
// whether the product carried enough data to judge and, if so, whether
// it shows the family's signature (Affected implies Eligible).
type FamilyContribution struct {
	Eligible, Affected bool
}

// ProductVerdict is one crawled product's per-family detector verdict —
// the unit the incremental engine caches and diffs: a domain's family
// tallies are exactly the sums of its products' contributions.
type ProductVerdict struct {
	Geo, Fingerprint, Disclosure, Temporal FamilyContribution
	Competitive, Demand                    FamilyContribution
}

// Of returns the contribution for one detectable family.
func (v ProductVerdict) Of(f shop.StrategyFamily) FamilyContribution {
	switch f {
	case shop.FamilyGeo:
		return v.Geo
	case shop.FamilyFingerprint:
		return v.Fingerprint
	case shop.FamilyDisclosure:
		return v.Disclosure
	case shop.FamilyTemporal:
		return v.Temporal
	case shop.FamilyCompetitive:
		return v.Competitive
	case shop.FamilyDemand:
		return v.Demand
	}
	return FamilyContribution{}
}

// Detector is the per-product strategy detector with its controls
// resolved once: the vantage-point metadata and the pair filters. The
// incremental engine (internal/aggregate) is its one shipped caller: it
// keeps a ProductState per crawled product, absorbs each product-round
// as it is folded, sums the Verdicts' contributions and flags them by
// Evidence. That fold is what sheriffd serves and what the scenario
// gate scores; the batch recomputation the tests hold it to lives in
// internal/reference and runs the identical per-product fold.
type Detector struct {
	market *fx.Market
	meta   map[string]vpMeta
}

// NewDetector builds a detector.
func NewDetector(market *fx.Market) *Detector {
	return &Detector{market: market, meta: vantageMeta()}
}

// acceptGeo admits pairs that share a fingerprint across locations.
func (d *Detector) acceptGeo(a, b string) bool {
	ma, mb := d.meta[a], d.meta[b]
	return ma.location != mb.location && ma.fingerprint == mb.fingerprint
}

// acceptFingerprint admits pairs that share a location across
// fingerprints.
func (d *Detector) acceptFingerprint(a, b string) bool {
	ma, mb := d.meta[a], d.meta[b]
	return ma.fingerprint != mb.fingerprint && ma.location == mb.location
}

// ProductState is one product's detector evidence folded round by
// round: the per-round geo and fingerprint votes, the consensus series
// and the per-vantage-point success and failure tallies. Absorbing a
// product's rounds in ascending order and then asking for the Verdict
// judges the product on all those rows at once, so the incremental
// engine can judge a product after each crawled round at the cost of
// that round's rows instead of re-reading every round so far.
type ProductState struct {
	d    *Detector
	last int // newest absorbed round; math.MinInt while empty

	geoElig, geoHits int
	geoSides         map[string]*pairVote
	fpElig, fpHits   int
	fpSides          map[string]*pairVote
	consensus        []consensusPoint // per-round same-fingerprint USD consensus
	okRounds         map[string]int
	failRounds       map[string]int // persistent extraction failures
}

// NewProductState returns the state of one product after absorbing its
// crawl observations (any order; rounds are partitioned and absorbed in
// ascending order). Observations of other sources must not be passed;
// nil yields an empty state.
func (d *Detector) NewProductState(obs []store.Observation) *ProductState {
	s := &ProductState{
		d:          d,
		last:       math.MinInt,
		geoSides:   map[string]*pairVote{},
		fpSides:    map[string]*pairVote{},
		okRounds:   map[string]int{},
		failRounds: map[string]int{},
	}
	rounds := byRound(obs)
	keys := make([]int, 0, len(rounds))
	for r := range rounds {
		keys = append(keys, r)
	}
	sort.Ints(keys)
	for _, rk := range keys {
		s.Absorb(rounds[rk])
	}
	return s
}

// Absorb folds one round — group holds every crawl observation of the
// product for that round, all sharing it — and reports true. A round
// that does not follow the absorbed ones (it is at or below the newest
// absorbed round) leaves the state untouched and reports false.
func (s *ProductState) Absorb(group []store.Observation) bool {
	rk := group[0].Round
	if rk <= s.last {
		return false
	}
	s.last = rk
	meta, market := s.d.meta, s.d.market

	byFP := map[string][]store.Observation{}  // fingerprint → OK obs
	byLoc := map[string][]store.Observation{} // location → OK obs
	var roundTime time.Time                   // earliest observation time of the round
	for _, o := range group {
		m, known := meta[o.VP]
		if !known {
			continue
		}
		if roundTime.IsZero() || o.Time.Before(roundTime) {
			roundTime = o.Time
		}
		if o.OK {
			s.okRounds[o.VP]++
			byFP[m.fingerprint] = append(byFP[m.fingerprint], o)
			byLoc[m.location] = append(byLoc[m.location], o)
		} else if o.Err == extract.ErrNoPrice.Error() {
			// A page that loaded but showed no price: the selective
			// disclosure signal, as opposed to a failed fetch.
			s.failRounds[o.VP]++
		}
	}

	// Geo: same fingerprint, multiple locations, currency filter.
	geoEligible, geoVaries := false, false
	for _, g := range byFP {
		if spanLocations(g, meta) < 2 {
			continue
		}
		geoEligible = true
		if _, real := market.RealVariation(quotesOf(g)); real {
			geoVaries = true
			tallyPairVotes(market, g, s.geoSides, s.d.acceptGeo)
		}
	}
	if geoEligible {
		s.geoElig++
		if geoVaries {
			s.geoHits++
		}
	}

	// Fingerprint: same location, multiple fingerprints. Same location
	// means same display currency, so differing minor units are a real
	// price difference, no filter needed.
	fpEligible, fpVaries := false, false
	for _, g := range byLoc {
		if spanFingerprints(g, meta) < 2 {
			continue
		}
		fpEligible = true
		if unitsDiffer(g) {
			fpVaries = true
			tallyPairVotes(market, g, s.fpSides, s.d.acceptFingerprint)
		}
	}
	if fpEligible {
		s.fpElig++
		if fpVaries {
			s.fpHits++
		}
	}

	// Temporal/market: consensus of the largest same-fingerprint group
	// of USD vantage points, recorded only when internally uniform — a
	// moving consensus is a global price change, whose shape the
	// classifier in Verdict attributes to calendar pricing, market
	// dynamics, or residual temporal effects.
	if units, ok := usdConsensus(byFP, meta); ok {
		s.consensus = append(s.consensus, consensusPoint{
			round: rk, units: units, weekday: roundTime.UTC().Weekday(),
		})
	}
	return true
}

// Verdict judges the product on the rounds absorbed so far.
func (s *ProductState) Verdict() ProductVerdict {
	var v ProductVerdict
	if s.geoElig >= 3 {
		v.Geo.Eligible = true
		v.Geo.Affected = s.geoHits*2 > s.geoElig && sidesConsistent(s.geoSides)
	}
	if s.fpElig >= 3 {
		v.Fingerprint.Eligible = true
		v.Fingerprint.Affected = s.fpHits*2 > s.fpElig && sidesConsistent(s.fpSides)
	}
	shape := classifyConsensus(s.consensus)
	if len(s.consensus) >= 3 {
		v.Temporal.Eligible = true
		v.Temporal.Affected = shape == shapeCalendar || shape == shapeOther
	}
	if marketJudgeable(s.consensus) {
		v.Competitive.Eligible = true
		v.Competitive.Affected = shape == shapeCompetitive
		v.Demand.Eligible = true
		v.Demand.Affected = shape == shapeDemand
	}
	// Disclosure: a VP that failed extraction in >= minFailRounds
	// rounds and never succeeded, while another VP succeeded at least
	// as often. Transient 503s re-roll per day and cannot sustain this.
	maxOK := 0
	for _, n := range s.okRounds {
		if n > maxOK {
			maxOK = n
		}
	}
	if maxOK >= minFailRounds {
		v.Disclosure.Eligible = true
		for vp, fails := range s.failRounds {
			if fails >= minFailRounds && s.okRounds[vp] == 0 {
				v.Disclosure.Affected = true
				break
			}
		}
	}
	return v
}

// Evidence applies the flag rule to one family's summed tallies. The
// rule lives here so the full-recompute report and the aggregate-backed
// report cannot diverge on it.
func (d *Detector) Evidence(f shop.StrategyFamily, affected, eligible int) FamilyEvidence {
	e := FamilyEvidence{Family: f, Affected: affected, Eligible: eligible}
	e.Flagged = affected >= minProducts &&
		eligible > 0 && float64(affected)/float64(eligible) >= minFraction
	return e
}

// spanLocations counts distinct locations among observations.
func spanLocations(obs []store.Observation, meta map[string]vpMeta) int {
	seen := map[string]bool{}
	for _, o := range obs {
		seen[meta[o.VP].location] = true
	}
	return len(seen)
}

// spanFingerprints counts distinct fingerprints among observations.
func spanFingerprints(obs []store.Observation, meta map[string]vpMeta) int {
	seen := map[string]bool{}
	for _, o := range obs {
		seen[meta[o.VP].fingerprint] = true
	}
	return len(seen)
}

// unitsDiffer reports whether any two observations disagree on minor
// units (callers guarantee a shared display currency).
func unitsDiffer(obs []store.Observation) bool {
	for i := 1; i < len(obs); i++ {
		if obs[i].PriceUnits != obs[0].PriceUnits {
			return true
		}
	}
	return false
}

// sidesConsistent requires at least one pair with a persistent order and
// no pair with a flip-flopping one — the repetition defence of Sec. 2.2,
// shared with the Fig. 3 persistence analysis via pairVote (ratios.go).
func sidesConsistent(sides map[string]*pairVote) bool {
	any := false
	for _, s := range sides {
		if s.first+s.second < 2 {
			continue
		}
		if !s.consistentMajority() {
			return false
		}
		any = true
	}
	return any
}

// usdConsensus returns the uniform price of the largest same-fingerprint
// group of USD vantage points (at least two), or ok=false when no group is
// large enough or a group disagrees internally (which is a location or
// A/B effect, not a temporal one).
func usdConsensus(byFP map[string][]store.Observation, meta map[string]vpMeta) (int64, bool) {
	bestN := 0
	var bestUnits int64
	for _, g := range byFP {
		var usdObs []store.Observation
		for _, o := range g {
			if meta[o.VP].usd && o.Currency == "USD" {
				usdObs = append(usdObs, o)
			}
		}
		if len(usdObs) < 2 || unitsDiffer(usdObs) {
			continue
		}
		if len(usdObs) > bestN {
			bestN = len(usdObs)
			bestUnits = usdObs[0].PriceUnits
		}
	}
	return bestUnits, bestN >= 2
}
