// Package store is the measurement database: every price the system
// extracts — crowdsourced check, systematic crawl round, or controlled
// experiment — lands here as an Observation. The analysis pipeline only
// ever reads this store, so a dataset can be persisted as JSON Lines,
// reloaded, and re-analyzed without re-running a campaign, mirroring how
// the paper separates collection from analysis.
//
// The engine is sharded and indexed for campaign scale: observations are
// partitioned by hash(Domain) into independently-locked shards, so the
// backend's 14-way check fan-outs and concurrent crawler rounds never
// contend on one mutex, and every shard maintains incremental indexes at
// append time (per-product posting lists, per-source posting lists, per-VP
// counters, domain/SKU sets). Queries that used to be O(dataset) linear
// scans — Products, Domains, LenOK, Groups, domain-scoped
// Filters — are O(result) index walks. Readers iterate through Scan and
// Groups, which snapshot only a query's matching rows (never rescanning
// or copying the rest of the dataset) and hold no lock while the
// consumer's loop body runs; the slice-returning APIs remain as thin
// adapters over them.
//
// Ordering: every observation receives a global sequence number when it
// is admitted, batches apply in sequence order even under concurrent
// writers, and all query and serialization paths yield observations in
// sequence order. For any serial sequence of AddAll calls this is
// exactly insertion order, so WriteJSONL emits byte-identical output to
// the historical single-slice engine.
package store

import (
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/money"
)

// Source labels the campaign that produced an observation.
const (
	// SourceCrowd marks $heriff crowd checks (Sec. 3).
	SourceCrowd = "crowd"
	// SourceCrawl marks systematic crawl rounds (Sec. 4).
	SourceCrawl = "crawl"
	// SourceLogin marks the Kindle login experiment (Fig. 10).
	SourceLogin = "login"
	// SourcePersona marks the affluent/budget persona experiment.
	SourcePersona = "persona"
)

// Observation is one extracted price (or extraction failure).
type Observation struct {
	// Domain is the retailer.
	Domain string `json:"domain"`
	// SKU identifies the product within the domain.
	SKU string `json:"sku"`
	// URL is the exact product URI fetched.
	URL string `json:"url"`
	// VP is the vantage point ID ("us-nyc") or a user tag for crowd
	// originators.
	VP string `json:"vp"`
	// VPLabel is the display label ("USA - New York").
	VPLabel string `json:"vp_label"`
	// Country is the vantage point's country code.
	Country string `json:"country"`
	// City is the vantage point's city.
	City string `json:"city"`
	// PriceUnits is the displayed price in minor units.
	PriceUnits int64 `json:"price_units"`
	// Currency is the displayed price's ISO code.
	Currency string `json:"currency"`
	// Time is the simulated observation time.
	Time time.Time `json:"time"`
	// Round is the crawl round (0-based); -1 outside crawls.
	Round int `json:"round"`
	// Source is one of the Source* constants.
	Source string `json:"source"`
	// Account is the logged-in account for login experiments.
	Account string `json:"account,omitempty"`
	// Segment is the persona segment for persona experiments.
	Segment string `json:"segment,omitempty"`
	// UserCountry is the originating crowd user's country code — where the
	// highlight was made — empty outside crowd checks.
	UserCountry string `json:"user_country,omitempty"`
	// Tenant is the contributing tenant's ID for authenticated crowd
	// checks; empty for anonymous and non-crowd observations.
	Tenant string `json:"tenant,omitempty"`
	// OK reports whether extraction succeeded; when false Err explains.
	OK bool `json:"ok"`
	// Err is the extraction failure, empty on success.
	Err string `json:"err,omitempty"`
}

// Amount reconstructs the money value of the observation.
func (o Observation) Amount() (money.Amount, bool) {
	c, ok := money.ByCode(o.Currency)
	if !ok {
		return money.Amount{}, false
	}
	return money.FromMinor(o.PriceUnits, c), true
}

// Key identifies the product a group of observations belongs to.
type Key struct {
	Domain string
	SKU    string
}

// Store is an append-only observation database, sharded by domain hash.
// It is safe for concurrent use; writers to different domains proceed in
// parallel and readers never block writers of other shards.
type Store struct {
	seq    atomic.Uint64
	shards [numShards]shard

	// bucketSecs is the time-bucket width the per-shard bucket indexes
	// are keyed by — the partition unit of durable segments, retention
	// and time-range pushdown. Fixed at construction.
	bucketSecs int64
	// maxUnix tracks the newest observation time seen (unix seconds);
	// noObservations while empty. Retention ages buckets against this
	// simulated clock, never the host's.
	maxUnix atomic.Int64

	// segScanned and segSkipped count time-range pushdown decisions
	// (see ScanStats).
	segScanned atomic.Uint64
	segSkipped atomic.Uint64

	// wmMu guards the write order. Batches apply strictly in reservation
	// order: applied is the last sequence of the newest applied batch,
	// and a batch applies only once applied reaches its base. A writer
	// whose batch is not next parks it in waiting, keyed by base; the
	// writer that publishes the sequence just below a parked batch
	// applies that batch too, so the turn passes along the queue without
	// waiting for a goroutine to be scheduled. Every index list thus
	// grows by appending in sequence order, and applied is the
	// watermark: everything at or below it is visible and folded, and no
	// row below it can still appear.
	wmMu    sync.Mutex
	waiting map[uint64]queued
	applied atomic.Uint64

	// observer, when set, receives every applied batch (see SetObserver).
	observer Observer
}

// noObservations is maxUnix's empty-store sentinel: below any real
// observation time, including zero time.Time values.
const noObservations = int64(-1 << 62)

// Observer receives each applied batch inside the batch's turn: after
// its rows are visible to readers and before the watermark moves past
// them or any later batch applies — the write-path fold hook the
// incremental analysis engine hangs off. It runs on the goroutine of
// the writer holding the turn, which may be a writer whose own batch
// applied just before this one. An observer may read the store, which
// holds exactly the rows up to its batch, but must not write to it (the
// write would wait for the turn the observer holds) and must not panic
// (later writers would wait for a turn that never ends). The slice is
// the caller's; treat it as read-only and do not retain it. A writer
// should append each crawl product-round (see SameProductRound) as one
// batch: the analysis observer judges strategy verdicts where a
// product-round ends, so a split one is folded exactly but judged at
// the split too.
type Observer func(batch []Observation)

// New returns an empty store with the default (daily) bucket width.
func New() *Store {
	return newBucketed(DefaultBucketSeconds)
}

// newBucketed returns an empty store partitioned at the given bucket
// width (seconds).
func newBucketed(bucketSecs int64) *Store {
	if bucketSecs <= 0 {
		bucketSecs = DefaultBucketSeconds
	}
	s := &Store{bucketSecs: bucketSecs, waiting: make(map[uint64]queued)}
	s.maxUnix.Store(noObservations)
	for i := range s.shards {
		s.shards[i].init()
	}
	return s
}

// SetObserver installs the write-path observer (nil removes it; see
// Observer for where it runs). Install before concurrent writers start —
// typically right after construction or recovery — and fold the store's
// existing contents first: batches applied while no observer is set are
// not replayed.
func (s *Store) SetObserver(fn Observer) { s.observer = fn }

// AddAll appends a batch, preserving batch order in the store's global
// sequence (a backend check's 14 per-VP observations or a crawler
// product-round land with one reservation and, when they share a domain,
// one lock acquisition). Concurrent calls apply in reservation order.
// Append a crawl product-round in one call (see Observer).
func (s *Store) AddAll(os []Observation) {
	if len(os) == 0 {
		return
	}
	s.apply(os, nil, s.reserve(len(os)))
}

// reserve claims n consecutive sequence numbers and returns the base: the
// i-th observation of the batch gets sequence base+i+1. The durable
// engine reserves before logging so WAL records carry the same sequence
// numbers the memory engine assigns. The batch must then be applied
// (apply with this base): every later batch waits for it.
func (s *Store) reserve(n int) uint64 {
	s.wmMu.Lock()
	base := s.seq.Add(uint64(n)) - uint64(n)
	s.wmMu.Unlock()
	return base
}

// Watermark returns the largest sequence number S such that every
// observation with sequence <= S has been applied and folded into the
// observer. Batches apply in reservation order, so no row at or below
// the watermark can still appear — which is what makes seq-based
// pagination cursors stable under concurrent appends.
func (s *Store) Watermark() uint64 { return s.applied.Load() }

// queued is a batch parked until its turn: its rows, their explicit
// sequences (nil on the primary) and the channel closed once it applied.
type queued struct {
	os   []Observation
	seqs []uint64
	done chan struct{}
}

// rowSeq is row i's sequence number in a batch: seqs[i] when the batch
// carries explicit sequences, base+i+1 otherwise.
func rowSeq(seqs []uint64, base uint64, i int) uint64 {
	if seqs != nil {
		return seqs[i]
	}
	return base + uint64(i) + 1
}

// apply appends a batch reserved above base in its turn and returns once
// it is applied. The primary passes nil seqs; a follower passes the
// primary's. If an earlier reservation has not applied yet, the batch is
// parked for the writer ahead of it to apply. Otherwise this writer
// applies it — and then every batch parked behind it, in order — each
// one through applyRows, then publishing the watermark at its last
// sequence.
func (s *Store) apply(os []Observation, seqs []uint64, base uint64) {
	s.wmMu.Lock()
	if s.applied.Load() != base {
		done := make(chan struct{})
		s.waiting[base] = queued{os: os, seqs: seqs, done: done}
		s.wmMu.Unlock()
		<-done
		return
	}
	s.wmMu.Unlock()
	q := queued{os: os, seqs: seqs}
	for {
		s.applyRows(q.os, q.seqs, base)
		upto := rowSeq(q.seqs, base, len(q.os)-1)
		s.wmMu.Lock()
		s.applied.Store(upto)
		next, ok := s.waiting[upto]
		delete(s.waiting, upto)
		s.wmMu.Unlock()
		if q.done != nil {
			close(q.done)
		}
		if !ok {
			return
		}
		q, base = next, upto
	}
}

// applyRows adds row i of a batch under rowSeq(seqs, base, i), then
// hands the batch to the observer (if any) — outside every shard lock,
// so an observer may read the store. Only apply calls it, in the
// batch's turn.
func (s *Store) applyRows(os []Observation, seqs []uint64, base uint64) {
	newest := noObservations
	for i := range os {
		if u := os[i].Time.Unix(); u > newest {
			newest = u
		}
	}
	groups, single := groupByShard(os)
	if single >= 0 {
		// Fast path: single-shard batches (the common shape — one product
		// fanned out across vantage points) take one shard lock.
		sh := &s.shards[single]
		sh.mu.Lock()
		for i := range os {
			sh.add(os[i], rowSeq(seqs, base, i), bucketOf(os[i].Time, s.bucketSecs))
		}
		sh.mu.Unlock()
	} else {
		for si := range groups {
			if len(groups[si]) == 0 {
				continue
			}
			sh := &s.shards[si]
			sh.mu.Lock()
			for _, i := range groups[si] {
				sh.add(os[i], rowSeq(seqs, base, int(i)), bucketOf(os[i].Time, s.bucketSecs))
			}
			sh.mu.Unlock()
		}
	}
	maxUnixUpdate(&s.maxUnix, newest)
	if obs := s.observer; obs != nil {
		obs(os)
	}
}

// groupByShard splits a non-empty batch by destination shard: either
// every observation maps to one shard (single >= 0, no allocation — the
// fan-out fast path) or groups holds each shard's batch indices in batch
// order, so per-shard sequences stay ascending. The memory engine's
// apply path and the durable engine's logging path both partition
// through here — the WAL record layout must agree with shard placement.
func groupByShard(os []Observation) (groups [numShards][]int32, single int) {
	first := shardIdx(os[0].Domain)
	for i := 1; i < len(os); i++ {
		if shardIdx(os[i].Domain) != first {
			for j := range os {
				si := shardIdx(os[j].Domain)
				groups[si] = append(groups[si], int32(j))
			}
			return groups, -1
		}
	}
	return groups, int(first)
}

// Len returns the number of observations (successes and failures).
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.order)
		sh.mu.RUnlock()
	}
	return n
}

// LenOK returns the number of successfully extracted prices — the paper's
// "188K extracted prices" counts these. Maintained incrementally: O(shards).
func (s *Store) LenOK() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.ok
		sh.mu.RUnlock()
	}
	return n
}

// LenSource returns the number of observations of one campaign source,
// and how many of them carry a successfully extracted price.
func (s *Store) LenSource(source string) (total, ok int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.bySource[source])
		ok += sh.okBySource[source]
		sh.mu.RUnlock()
	}
	return total, ok
}

// LenVP returns the number of observations recorded from one vantage point.
func (s *Store) LenVP(vp string) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.byVP[vp]
		sh.mu.RUnlock()
	}
	return n
}

// TenantCount splits one tenant's contributed observations into total
// and successfully extracted.
type TenantCount struct {
	Total int
	OK    int
}

// TenantCounts returns per-tenant contribution counts for every tenant
// that has submitted observations. Anonymous observations (empty Tenant)
// are not counted, so the map is empty — not nil-keyed — when tenancy is
// unused. Maintained incrementally: O(shards × tenants).
func (s *Store) TenantCounts() map[string]TenantCount {
	out := make(map[string]TenantCount)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for tn, n := range sh.byTenant {
			tc := out[tn]
			tc.Total += n
			tc.OK += sh.okByTenant[tn]
			out[tn] = tc
		}
		sh.mu.RUnlock()
	}
	return out
}
