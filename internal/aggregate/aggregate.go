// Package aggregate is the incremental analysis engine: per-domain
// aggregates maintained as a write-path fold over the observation store,
// so the per-domain report and the strategy verdict answer in
// O(domains-touched-by-delta) instead of recomputing over the dataset.
//
// The engine installs itself as the store's write observer (see
// store.Observer): every applied batch is folded — counters, per-product
// currency-filter state, per-family detector evidence — row by row in
// sequence order, under a per-domain-shard lock. On open it first
// rebuilds from whatever the store already holds (the durable engine's
// recovery path) by running the same fold over the log cut into
// store.Chunks, so the aggregates always equal a full recomputation:
//
//   - Counters (observations, OK prices, per-source splits) are sums —
//     exact under any batching or interleaving.
//   - The per-product group ratio folds fx.Market.RealVariation's
//     max-of-lows / min-of-highs directly: max and min are associative
//     and commutative comparisons and the final division uses the same
//     two operands, so the folded ratio is BIT-IDENTICAL to the full
//     path's GroupRatio, not merely close. It is also monotone
//     non-decreasing in the observations, which makes the variation
//     threshold crossing fire exactly once per product group, at the
//     row that crosses it.
//   - Per-family detector evidence is per-product: each crawled product
//     keeps an analysis.ProductState, the same round-by-round fold the
//     batch reference (internal/reference) runs per product. Where a
//     crawl product-round ends (store.SameProductRound), the round is
//     absorbed, the product's verdict is diffed into the domain's
//     tallies and the domain's flags are re-evaluated. A round that does not follow the
//     absorbed ones (written out of order, or one product-round split
//     over two batches) rebuilds the product's state from the store, so
//     the verdict stays exact.
//
// Threshold crossings and verdict flips are emitted into an append-only
// events.Log, served by GET /api/v1/events as replayable history and a
// live tail. Since both fire only at rows and product-round ends, the
// event log is a function of the sequence-ordered log under any batching
// that keeps product-rounds whole: live writes, a restart's rebuild and
// a follower's replicated chunks all emit the same events.
//
// Folds never unfold, so when retention prunes rows the engine Restarts:
// it drops every aggregate and its log and rebuilds over the surviving
// rows into a fresh log under a new events epoch — the rebuild a process
// reopening the pruned directory runs. Within an epoch, then, the event
// log is the fold of the live rows on every node.
package aggregate

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/analysis"
	"sheriff/internal/events"
	"sheriff/internal/fx"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// numShards partitions the engine's domain locks; same scale as the
// store's sharding, for the same reason (a 14-way fan-out plus crawler
// parallelism must not contend on one mutex).
const numShards = 16

// shardIdx maps a domain to its aggregate shard (FNV-1a, as the store
// hashes — but the partitions are independent; only consistency per
// domain matters here).
func shardIdx(domain string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(domain); i++ {
		h ^= uint32(domain[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

// variationThreshold is the conservative ratio at which a product
// group's variation fires a TypeVariation event: 5% above what the
// day's extreme fixings could explain — comfortably past the currency
// filter, the paper's "interesting domain" neighbourhood.
const variationThreshold = 1.05

// Options configures the engine.
type Options struct {
	// Log is the first event sink; nil builds a fresh one under epoch 0.
	// A recovered durable store passes a log under its epoch (see
	// Restart).
	Log *events.Log
}

// SourceCount splits one source's observations into total and OK.
type SourceCount struct {
	Total int `json:"total"`
	OK    int `json:"ok"`
}

// VariationSummary is the price-variation picture of one domain: how
// many products vary after the currency filter, and by how much.
type VariationSummary struct {
	// Products judged (product groups with at least one observation).
	Products int `json:"products"`
	// Varied is how many survive the conservative currency filter.
	Varied int `json:"varied"`
	// Extent is Varied/Products — the paper's Fig. 3 metric.
	Extent float64 `json:"extent"`
	// MaxRatio and MedianRatio summarize the varied products' max/min
	// USD ratios (zero when nothing varies).
	MaxRatio    float64 `json:"max_ratio"`
	MedianRatio float64 `json:"median_ratio"`
}

// FamilyVerdict is one strategy family's attribution for the domain.
type FamilyVerdict struct {
	// Family is the strategy family (geo, fingerprint, disclosure,
	// temporal).
	Family string `json:"family"`
	// Flagged reports whether the detector attributes variation to it.
	Flagged bool `json:"flagged"`
	// Affected of Eligible products show the family's signature; Share
	// is their ratio.
	Affected int     `json:"affected"`
	Eligible int     `json:"eligible"`
	Share    float64 `json:"share"`
}

// DomainSummary is the per-domain report — the wire shape of GET
// /api/v1/domains/{domain}/report: dataset counts, the variation
// summary and the per-family strategy attribution. The engine assembles
// it from fold state in O(products of the domain) and caches it until
// the next write touches the domain. Returned summaries are immutable —
// folds invalidate the cache, they never mutate a published summary.
type DomainSummary struct {
	Domain       string                 `json:"domain"`
	Observations int                    `json:"observations"`
	OKPrices     int                    `json:"ok_prices"`
	Products     int                    `json:"products"`
	BySource     map[string]SourceCount `json:"by_source,omitempty"`
	// ByTenant splits the domain's observations per contributing tenant
	// (the reward ledger, scoped to one retailer); nil while tenancy is
	// unused.
	ByTenant  map[string]SourceCount `json:"by_tenant,omitempty"`
	Variation VariationSummary       `json:"variation"`
	// Families is sorted by family name.
	Families []FamilyVerdict `json:"families"`
}

// groupAgg is the folded state of one product group.
type groupAgg struct {
	// quotes, maxLow, minHigh fold RealVariation over every OK
	// known-currency observation of the group (any source, like the full
	// path's GroupRatio over the whole group).
	quotes  int
	maxLow  float64
	minHigh float64
	// crossed marks the variation event as fired (the folded ratio is
	// monotone, so once true it stays true).
	crossed bool
	// crawl counts the group's folded crawl-source observations, state
	// holds the detector evidence absorbed from them and verdict its
	// latest Verdict; both exist only when crawl > 0.
	crawl   int
	state   *analysis.ProductState
	verdict analysis.ProductVerdict
}

// ratio mirrors fx.Market.RealVariation over the folded state: the same
// guards, the same operands, the same division — bit-identical results.
func (g *groupAgg) ratio() (float64, bool) {
	if g.quotes < 2 {
		return 1, false
	}
	if g.minHigh <= 0 {
		return 1, false
	}
	r := g.maxLow / g.minHigh
	if r < 1 {
		r = 1
	}
	return r, r > 1
}

// famCount is one family's summed product tallies.
type famCount struct {
	affected, eligible int
}

// domainAgg is the folded state of one domain.
type domainAgg struct {
	observations int
	okPrices     int
	bySource     map[string]*SourceCount
	// byTenant counts authenticated crowd contributions per tenant;
	// empty (never populated) while tenancy is unused.
	byTenant map[string]*SourceCount
	groups   map[string]*groupAgg // by SKU
	// fam and flagged index by position in analysis.DetectableFamilies
	// (sized off it at construction, so a new detectable family grows
	// every aggregate in lockstep).
	fam      []famCount
	flagged  []bool
	lastTime time.Time // newest folded observation time, stamps flip events
	cache    *DomainSummary
}

// aggShard is one independently-locked partition of the engine.
type aggShard struct {
	mu      sync.Mutex
	domains map[string]*domainAgg
}

// Engine maintains the aggregates. Safe for concurrent use once
// constructed; construct (New) before concurrent writers start.
type Engine struct {
	st     store.Reader
	market *fx.Market
	det    *analysis.Detector
	log    atomic.Pointer[events.Log]
	shards [numShards]aggShard

	folded   atomic.Uint64 // observations folded (writes + rebuild)
	hits     atomic.Uint64 // DomainSummary served from cache
	rebuilds atomic.Uint64 // DomainSummary cache assemblies

	closed atomic.Bool // Close ran: a Restart's fresh log starts sealed
}

// New builds an engine over an open backend: the store's existing
// contents are folded in first (the durable engine's recovered dataset
// arrives this way), then the engine installs itself as the write
// observer so every subsequent AddAll folds incrementally. Call before
// concurrent writers start — batches applied between recovery and New
// would be missed, and the rebuild scan itself is not synchronized with
// writers.
func New(b store.Backend, market *fx.Market, opts Options) *Engine {
	e := newEngine(b, market, opts)
	e.rebuild()
	b.SetObserver(e.fold)
	return e
}

// NewReader builds an engine over a read-only store: rebuild only, no
// observer (there is no write path to observe). The analysis-side open
// of a recovered data directory uses this.
func NewReader(st store.Reader, market *fx.Market, opts Options) *Engine {
	e := newEngine(st, market, opts)
	e.rebuild()
	return e
}

func newEngine(st store.Reader, market *fx.Market, opts Options) *Engine {
	if opts.Log == nil {
		opts.Log = events.NewLog(0)
	}
	e := &Engine{
		st:     st,
		market: market,
		det:    analysis.NewDetector(market),
	}
	e.log.Store(opts.Log)
	for i := range e.shards {
		e.shards[i].domains = make(map[string]*domainAgg)
	}
	return e
}

// Events returns the engine's current event log. A Restart replaces it,
// so a caller that serves one request or tail holds on to the log it got.
func (e *Engine) Events() *events.Log { return e.log.Load() }

// Close seals the event log: live tails drain and disconnect. The
// aggregates stay queryable; folds still apply (their events land in
// history but wake nobody).
func (e *Engine) Close() {
	e.closed.Store(true)
	e.log.Load().Close()
}

// rebuild folds the store's current contents: the live fold, run over
// the sequence-ordered log cut into store.Chunks. Chunks never split a
// product-round, so the rebuilt aggregates — and the events a rebuild
// emits — are the ones the live fold produced from the same log.
func (e *Engine) rebuild() {
	for _, batch := range store.Chunks(e.st.ScanRange(store.Query{Round: -1}, 0, e.st.Watermark())) {
		e.fold(batch)
	}
}

// fold is the write observer: applied batches land here one at a time,
// in sequence order, inside the writer's turn (see store.Observer). It
// walks the batch in order, one same-domain run at a time.
func (e *Engine) fold(batch []store.Observation) {
	e.folded.Add(uint64(len(batch)))
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Domain == batch[i].Domain {
			j++
		}
		e.foldDomain(batch[i].Domain, batch[i:j])
		i = j
	}
}

// foldDomain folds one domain's run of a batch under its shard lock,
// row by row. Where a crawl product-round ends (see
// store.SameProductRound), the product is re-judged and the domain's
// flags re-evaluated — the only points where strategy events fire, so
// the events depend only on the sequence-ordered log, never on how it
// was cut into batches around whole product-rounds.
func (e *Engine) foldDomain(domain string, obs []store.Observation) {
	sh := &e.shards[shardIdx(domain)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.domains[domain]
	if d == nil {
		d = &domainAgg{
			bySource: make(map[string]*SourceCount),
			byTenant: make(map[string]*SourceCount),
			groups:   make(map[string]*groupAgg),
			fam:      make([]famCount, len(analysis.DetectableFamilies)),
			flagged:  make([]bool, len(analysis.DetectableFamilies)),
		}
		sh.domains[domain] = d
	}
	d.cache = nil

	start := 0 // first row of the current product-round
	for i := range obs {
		o := &obs[i]
		d.observations++
		if o.OK {
			d.okPrices++
		}
		sc := d.bySource[o.Source]
		if sc == nil {
			sc = &SourceCount{}
			d.bySource[o.Source] = sc
		}
		sc.Total++
		if o.OK {
			sc.OK++
		}
		if o.Tenant != "" {
			tc := d.byTenant[o.Tenant]
			if tc == nil {
				tc = &SourceCount{}
				d.byTenant[o.Tenant] = tc
			}
			tc.Total++
			if o.OK {
				tc.OK++
			}
		}
		if o.Time.After(d.lastTime) {
			d.lastTime = o.Time
		}

		g := d.groups[o.SKU]
		if g == nil {
			g = &groupAgg{maxLow: math.Inf(-1), minHigh: math.Inf(1)}
			d.groups[o.SKU] = g
		}
		if o.OK {
			if a, ok := o.Amount(); ok {
				lo, hi := e.market.USDRange(a, o.Time)
				g.quotes++
				if lo > g.maxLow {
					g.maxLow = lo
				}
				if hi < g.minHigh {
					g.minHigh = hi
				}
				if !g.crossed {
					if r, real := g.ratio(); real && r >= variationThreshold {
						g.crossed = true
						e.log.Load().Append(events.Event{
							Time: o.Time, Type: events.TypeVariation,
							Domain: domain, SKU: o.SKU, Ratio: r,
						})
					}
				}
			}
		}
		if o.Source != store.SourceCrawl {
			continue
		}
		g.crawl++
		if i == 0 || !store.SameProductRound(&obs[i-1], o) {
			start = i
		}
		if i+1 < len(obs) && store.SameProductRound(o, &obs[i+1]) {
			continue
		}
		e.judge(d, domain, g, obs[start:i+1])
		e.evalFlags(d, domain)
	}
}

// famIdx returns a family's position in analysis.DetectableFamilies.
func famIdx(f shop.StrategyFamily) int {
	for i, df := range analysis.DetectableFamilies {
		if df == f {
			return i
		}
	}
	return -1
}

// judge absorbs one product-round into its product's detector state and
// diffs the new verdict into the domain's family tallies. A round that
// does not follow the absorbed ones — written out of order, or a
// product-round split across batches — rebuilds the state from the
// product's first g.crawl crawl rows in the store instead: exactly the
// rows folded so far, since the store holds everything up to this batch
// and the fold walks it in sequence order. Caller holds the shard lock.
func (e *Engine) judge(d *domainAgg, domain string, g *groupAgg, round []store.Observation) {
	if g.state == nil {
		g.state = e.det.NewProductState(nil)
	}
	if !g.state.Absorb(round) {
		rows := e.st.Filter(store.Query{Domain: domain, SKU: round[0].SKU, Source: store.SourceCrawl, Round: -1})
		g.state = e.det.NewProductState(rows[:g.crawl])
	}
	newV := g.state.Verdict()
	oldV := g.verdict
	for i, f := range analysis.DetectableFamilies {
		o, n := oldV.Of(f), newV.Of(f)
		if o.Eligible != n.Eligible {
			if n.Eligible {
				d.fam[i].eligible++
			} else {
				d.fam[i].eligible--
			}
		}
		if o.Affected != n.Affected {
			if n.Affected {
				d.fam[i].affected++
			} else {
				d.fam[i].affected--
			}
		}
	}
	g.verdict = newV
}

// evalFlags re-applies the flag rule per family and emits a strategy
// event for every verdict flip. Caller holds the domain's shard lock.
func (e *Engine) evalFlags(d *domainAgg, domain string) {
	for i, f := range analysis.DetectableFamilies {
		ev := e.det.Evidence(f, d.fam[i].affected, d.fam[i].eligible)
		if ev.Flagged == d.flagged[i] {
			continue
		}
		d.flagged[i] = ev.Flagged
		e.log.Load().Append(events.Event{
			Time: d.lastTime, Type: events.TypeStrategy,
			Domain: domain, Family: string(f), Flagged: ev.Flagged,
			Affected: ev.Affected, Eligible: ev.Eligible,
		})
	}
}

// Restart discards every aggregate and the event log, installs a fresh
// log under epoch and refolds the store's current contents into it —
// the retention hook. After the durable engine prunes whole time buckets,
// the engine becomes exactly what a process restarted on the pruned
// directory builds: the same rebuild over the same surviving rows, the
// same events, the same epoch. The durable engine calls this under its
// exclusive write gate (no concurrent folds); concurrent readers may
// observe partially rebuilt aggregates for the duration, the same
// transient a process restart has always shown. The old log is sealed
// once the rebuild is done, so its live tails drain and disconnect.
func (e *Engine) Restart(epoch uint64) {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		sh.domains = make(map[string]*domainAgg)
		sh.mu.Unlock()
	}
	// The fold counter restarts with the aggregates, keeping the
	// "folded == store length" invariant the stats surface promises.
	e.folded.Store(0)
	fresh := events.NewLog(epoch)
	old := e.log.Swap(fresh)
	e.rebuild()
	old.Close()
	if e.closed.Load() {
		fresh.Close() // a prune during a server drain stays sealed
	}
}

// DomainSummary returns the aggregate-backed report for a domain, or
// ok=false when the domain has never been observed. Served from the
// per-domain cache when no write touched the domain since the last
// assembly.
func (e *Engine) DomainSummary(domain string) (*DomainSummary, bool) {
	sh := &e.shards[shardIdx(domain)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.domains[domain]
	if d == nil {
		return nil, false
	}
	if d.cache != nil {
		e.hits.Add(1)
		return d.cache, true
	}
	e.rebuilds.Add(1)
	d.cache = e.assemble(d, domain)
	return d.cache, true
}

// assemble builds the summary from fold state, mirroring the full
// report path's assembly (internal/api) operation for operation: the
// same ratio multiset sorted the same way, the same median index, the
// same family sort.
func (e *Engine) assemble(d *domainAgg, domain string) *DomainSummary {
	s := &DomainSummary{
		Domain:       domain,
		Observations: d.observations,
		OKPrices:     d.okPrices,
		BySource:     make(map[string]SourceCount, len(d.bySource)),
	}
	for src, sc := range d.bySource {
		s.BySource[src] = *sc
	}
	if len(d.byTenant) > 0 {
		s.ByTenant = make(map[string]SourceCount, len(d.byTenant))
		for tn, tc := range d.byTenant {
			s.ByTenant[tn] = *tc
		}
	}
	s.Variation.Products = len(d.groups)
	s.Products = s.Variation.Products
	var ratios []float64
	for _, g := range d.groups {
		if r, real := g.ratio(); real {
			s.Variation.Varied++
			ratios = append(ratios, r)
		}
	}
	if s.Variation.Products > 0 {
		s.Variation.Extent = float64(s.Variation.Varied) / float64(s.Variation.Products)
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		s.Variation.MaxRatio = ratios[len(ratios)-1]
		s.Variation.MedianRatio = ratios[len(ratios)/2]
	}
	fams := make([]string, 0, len(analysis.DetectableFamilies))
	for _, f := range analysis.DetectableFamilies {
		fams = append(fams, string(f))
	}
	sort.Strings(fams)
	for _, name := range fams {
		f := shop.StrategyFamily(name)
		i := famIdx(f)
		ev := e.det.Evidence(f, d.fam[i].affected, d.fam[i].eligible)
		s.Families = append(s.Families, FamilyVerdict{
			Family: name, Flagged: ev.Flagged,
			Affected: ev.Affected, Eligible: ev.Eligible,
			Share: ev.Affected01(),
		})
	}
	return s
}

// StrategyReport returns the domain's strategy verdict off the
// aggregates, O(1) per call. It is the verdict sheriffd serves and the
// one the scenario matrix scores; the differential tests hold it to the
// batch reference.DetectStrategies. A never-observed domain yields
// all-zero evidence.
func (e *Engine) StrategyReport(domain string) analysis.StrategyReport {
	rep := analysis.StrategyReport{
		Domain:   domain,
		Evidence: make(map[shop.StrategyFamily]analysis.FamilyEvidence, len(analysis.DetectableFamilies)),
	}
	sh := &e.shards[shardIdx(domain)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.domains[domain]
	for i, f := range analysis.DetectableFamilies {
		var c famCount
		if d != nil {
			c = d.fam[i]
		}
		rep.Evidence[f] = e.det.Evidence(f, c.affected, c.eligible)
	}
	return rep
}

// Stats is the monitoring view of the engine, surfaced in the HTTP
// stats payload's "analysis" block.
type Stats struct {
	// Domains is how many domains carry aggregates.
	Domains int `json:"domains"`
	// ObservationsFolded counts every observation folded in, rebuild
	// included — equals the store's length when the engine saw every
	// write.
	ObservationsFolded uint64 `json:"observations_folded"`
	// ReportHits and ReportRebuilds split DomainSummary calls into
	// cache-served and reassembled.
	ReportHits     uint64 `json:"report_hits"`
	ReportRebuilds uint64 `json:"report_rebuilds"`
	// Events is the event log's current length.
	Events uint64 `json:"events"`
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		ObservationsFolded: e.folded.Load(),
		ReportHits:         e.hits.Load(),
		ReportRebuilds:     e.rebuilds.Load(),
		Events:             e.log.Load().Len(),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		s.Domains += len(sh.domains)
		sh.mu.Unlock()
	}
	return s
}
