package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"sheriff/client"
)

// gate collects correctness failures, each named after the check that
// failed. A run with any failure exits non-zero.
type gate struct {
	failures []string
	counts   map[string]int
}

// fail records a failure; only the first few of each kind keep details.
func (g *gate) fail(check, format string, args ...any) {
	if g.counts == nil {
		g.counts = map[string]int{}
	}
	g.counts[check]++
	if g.counts[check] <= 3 {
		g.failures = append(g.failures, check+": "+fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool { return len(g.failures) == 0 }

// verifier checks replies against the twin world.
type verifier struct {
	tw *twin
	g  *gate
	// maxMissShare caps extraction misses as a share of the per-VP prices
	// checked (workloadSpec.maxMissShare); above it the gate fails.
	maxMissShare float64
	expected     map[string][]vpWant // by product URL
	// vpPrices counts the per-VP prices checked where the twin's page
	// shows the price; extractionMisses those not extracted exactly.
	vpPrices, extractionMisses int
}

func newVerifier(tw *twin, g *gate, maxMissShare float64) *verifier {
	return &verifier{tw: tw, g: g, maxMissShare: maxMissShare, expected: map[string][]vpWant{}}
}

// outcomes checks every reply: a 200 exactly where the twin predicts one,
// 14 prices per 200, each VP's fetch failing exactly where the twin's
// does, and every other per-VP price equal to the twin's display price
// for that vantage point. It returns the 200 count and the number of
// operations whose outcome was wrong.
func (v *verifier) outcomes(outs []outcome) (ok200, wrong int) {
	for _, o := range outs {
		switch {
		case o.err != nil:
			wrong++
			v.g.fail("check_transport", "check %d: %v", o.id, o.err)
			continue
		case o.in.fail && o.status == http.StatusOK:
			wrong++
			v.g.fail("check_status", "check %d (%s): 200, but the twin's user-side fetch fails", o.id, o.in.req.URL)
			continue
		case !o.in.fail && o.status != http.StatusOK:
			wrong++
			v.g.fail("check_status", "check %d (%s): status %d, want 200", o.id, o.in.req.URL, o.status)
			continue
		case o.status != http.StatusOK:
			continue // the predicted injected failure
		}
		ok200++
		if v.prices(o) {
			wrong++
		}
	}
	if limit := v.maxMissShare * float64(v.vpPrices); float64(v.extractionMisses) > limit {
		v.g.fail("extraction_misses", "%d of %d per-VP prices not extracted exactly, above the ceiling of %.0f (%.1f%%)",
			v.extractionMisses, v.vpPrices, limit, 100*v.maxMissShare)
	}
	return ok200, wrong
}

// prices reports whether a 200 reply's prices disagree with the twin.
// An extraction miss is counted, not failed here; outcomes caps the count.
func (v *verifier) prices(o outcome) (bad bool) {
	if len(o.res.Prices) != len(v.tw.vps) {
		v.g.fail("check_prices", "check %d: %d prices, want %d", o.id, len(o.res.Prices), len(v.tw.vps))
		return true
	}
	want, ok := v.expected[o.in.req.URL]
	if !ok {
		var err error
		if want, err = v.tw.expectedPrices(o.in.prod); err != nil {
			v.g.fail("check_prices", "check %d: twin fetch: %v", o.id, err)
			return true
		}
		v.expected[o.in.req.URL] = want
	}
	for i, p := range o.res.Prices {
		w := want[i]
		fetchFailed := !p.OK && strings.Contains(p.Err, ": status ")
		switch {
		case p.VP != v.tw.vps[i].ID:
			v.g.fail("check_prices", "check %d: price %d from %s, want %s", o.id, i, p.VP, v.tw.vps[i].ID)
			return true
		case w.fetched == fetchFailed:
			v.g.fail("check_vp_status", "check %d (%s) at %s: ok=%v err=%q, but the twin's fetch answers 200=%v",
				o.id, o.in.req.URL, p.VP, p.OK, p.Err, w.fetched)
			return true
		case !w.fetched:
			// the predicted injected failure
		case !w.disclosed:
			// The page hides the price from this VP: nothing to extract.
			if p.OK {
				v.extractionMisses++
			}
		default:
			v.vpPrices++
			if !p.OK || p.PriceUnits != w.price.Units || p.Currency != w.price.Currency.Code {
				v.extractionMisses++
			}
		}
	}
	return false
}

// reconcile compares /api/v1/stats with what the client saw.
func (v *verifier) reconcile(st client.Stats, ok200, preload int) {
	if st.Checks != ok200 {
		v.g.fail("stats_checks", "stats.checks=%d, client saw %d replies with 200", st.Checks, ok200)
	}
	if want := len(v.tw.vps)*ok200 + preload; st.Observations != want {
		v.g.fail("stats_observations", "stats.observations=%d, want 14×%d + %d preloaded = %d", st.Observations, ok200, preload, want)
	}
	if st.Analysis == nil || st.Analysis.ObservationsFolded != uint64(st.Observations) {
		folded := -1
		if st.Analysis != nil {
			folded = int(st.Analysis.ObservationsFolded)
		}
		v.g.fail("stats_folded", "analysis.observations_folded=%d, observations=%d", folded, st.Observations)
	}
}

// decodeExport streams the export through the SDK, decoding every line,
// and checks the row count.
func (v *verifier) decodeExport(ctx context.Context, cl *client.Client, want int) {
	n := 0
	for _, err := range cl.StreamObservations(ctx, client.ObservationsQuery{}) {
		if err != nil {
			v.g.fail("export_decode", "after %d rows: %v", n, err)
			return
		}
		n++
	}
	if n != want {
		v.g.fail("export_lines", "SDK decoded %d rows, stats.observations=%d", n, want)
	}
}
