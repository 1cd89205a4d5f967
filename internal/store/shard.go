package store

import (
	"sort"
	"sync"
)

// shardBits fixes the shard count. 16 shards keep lock contention
// negligible for a 14-way vantage-point fan-out plus crawler parallelism
// while costing nothing on small datasets.
const (
	shardBits = 4
	numShards = 1 << shardBits
)

// shardIdx maps a domain to its shard (FNV-1a over the domain bytes).
// Everything observed at one retailer lives in one shard, so
// domain-scoped queries touch a single lock.
func shardIdx(domain string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(domain); i++ {
		h ^= uint32(domain[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

// keyGroup is the primary storage unit: one product's observations,
// contiguous in memory and in append order. Keeping the dataset grouped
// by key at ingest is what makes Groups — the analysis layer's
// dominant query — an index walk over cache-local runs instead of a
// full-dataset scan-and-partition. All slices are append-only; elements
// are never mutated once published, so a slice header captured under the
// shard's read lock stays valid forever.
type keyGroup struct {
	// obs and seqs hold the group's observations and their global
	// sequence numbers, in append order, which is sequence order.
	obs  []Observation
	seqs []uint64
	// bySource posts group-local observation positions per campaign
	// source, for source-restricted grouping.
	bySource map[string][]int32
}

// gref addresses one observation: the group it lives in plus its
// position there. Index lists of grefs give the shard its sequence
// order without storing the dataset twice.
type gref struct {
	g   *keyGroup
	pos int32
}

// obs returns the referenced observation. Only call with the shard lock
// held (reading g.obs's live header), or via headers captured under it.
func (r gref) obs() *Observation { return &r.g.obs[r.pos] }

// seq returns the referenced observation's global sequence number.
func (r gref) seq() uint64 { return r.g.seqs[r.pos] }

// domainIndex is the posting state of one domain.
type domainIndex struct {
	// order lists the domain's observations in sequence order.
	order []gref
	// skus is the domain's distinct product set.
	skus map[string]struct{}
}

// shard is one independently-locked partition of the store.
//
// Rows arrive in sequence order (batches apply in reservation order, see
// Store.apply), so every gref index list (order, domainIndex.order,
// bySource, byBucket) and every keyGroup is seq-sorted by appending
// alone: an ordered read binary-searches its window start and merges
// shards without sorting rows.
type shard struct {
	mu sync.RWMutex
	// ok counts successful extractions.
	ok int
	// groups is the primary storage, keyed by product.
	groups map[Key]*keyGroup
	// order lists every observation in sequence order — the shard's
	// contribution to global insertion-order scans and serialization.
	order []gref
	// byDomain indexes each domain's observations and SKU set — the
	// Filter{Domain} and Products fast paths.
	byDomain map[string]*domainIndex
	// bySource lists observations per campaign source in sequence
	// order — the Filter{Source} fast path.
	bySource map[string][]gref
	// okBySource counts successful extractions per campaign source.
	okBySource map[string]int
	// byVP counts observations per vantage point.
	byVP map[string]int
	// byTenant and okByTenant count observations (total / extraction-OK)
	// per contributing tenant; anonymous observations are not counted.
	byTenant   map[string]int
	okByTenant map[string]int
	// byBucket lists observations per time bucket (keyed by bucket
	// start, unix seconds) in sequence order — the unit durable
	// segments, retention and time-range pushdown partition by.
	byBucket map[int64][]gref
}

// init readies the shard's maps.
func (sh *shard) init() {
	sh.groups = make(map[Key]*keyGroup)
	sh.byDomain = make(map[string]*domainIndex)
	sh.bySource = make(map[string][]gref)
	sh.okBySource = make(map[string]int)
	sh.byVP = make(map[string]int)
	sh.byTenant = make(map[string]int)
	sh.okByTenant = make(map[string]int)
	sh.byBucket = make(map[int64][]gref)
}

// add appends one observation and updates every index; bucket is the
// observation's time bucket start. Caller holds mu and adds rows in
// increasing sequence order, which keeps every list sorted. Groups
// address observations with int32 positions; at ~2 billion observations
// per product the store must grow a wider posting type.
func (sh *shard) add(o Observation, seq uint64, bucket int64) {
	k := Key{Domain: o.Domain, SKU: o.SKU}
	g := sh.groups[k]
	if g == nil {
		g = &keyGroup{bySource: make(map[string][]int32)}
		sh.groups[k] = g
	}
	pos := int32(len(g.obs))
	g.obs = append(g.obs, o)
	g.seqs = append(g.seqs, seq)
	g.bySource[o.Source] = append(g.bySource[o.Source], pos)

	r := gref{g: g, pos: pos}
	sh.order = append(sh.order, r)

	di := sh.byDomain[o.Domain]
	if di == nil {
		di = &domainIndex{skus: make(map[string]struct{})}
		sh.byDomain[o.Domain] = di
	}
	di.order = append(di.order, r)
	di.skus[o.SKU] = struct{}{}

	sh.bySource[o.Source] = append(sh.bySource[o.Source], r)
	sh.byBucket[bucket] = append(sh.byBucket[bucket], r)
	sh.byVP[o.VP]++
	if o.Tenant != "" {
		sh.byTenant[o.Tenant]++
	}
	if o.OK {
		sh.ok++
		sh.okBySource[o.Source]++
		if o.Tenant != "" {
			sh.okByTenant[o.Tenant]++
		}
	}
}

// fill places rows into an empty shard that no other goroutine can see
// yet, so it takes no lock: refs are in ascending sequence order and
// name each sequence once (recovery's merge and the retention rebuild
// both hand it such a list). It first counts the rows of every group,
// group source, domain, campaign source and bucket, so each list is
// allocated once at its final size and add appends within capacity. A
// later append grows a list as it would any other. fill returns the
// newest observation time placed, in unix seconds (noObservations when
// refs is empty).
func (sh *shard) fill(refs []seqRef, bucketSecs int64) int64 {
	newest := noObservations
	if len(refs) == 0 {
		return newest
	}
	type groupSource struct {
		k      Key
		source string
	}
	perGroupSource := make(map[groupSource]int)
	perBucket := make(map[int64]int)
	for _, r := range refs {
		o := r.obs
		perGroupSource[groupSource{Key{Domain: o.Domain, SKU: o.SKU}, o.Source}]++
		perBucket[bucketOf(o.Time, bucketSecs)]++
		newest = max(newest, o.Time.Unix())
	}
	perGroup := make(map[Key]int, len(perGroupSource))
	perSource := make(map[string]int)
	for gs, n := range perGroupSource {
		perGroup[gs.k] += n
		perSource[gs.source] += n
	}
	type domainCount struct{ rows, skus int }
	perDomain := make(map[string]domainCount)
	sh.groups = make(map[Key]*keyGroup, len(perGroup))
	for k, n := range perGroup {
		sh.groups[k] = &keyGroup{
			obs:      make([]Observation, 0, n),
			seqs:     make([]uint64, 0, n),
			bySource: make(map[string][]int32),
		}
		dc := perDomain[k.Domain]
		perDomain[k.Domain] = domainCount{rows: dc.rows + n, skus: dc.skus + 1}
	}
	for gs, n := range perGroupSource {
		sh.groups[gs.k].bySource[gs.source] = make([]int32, 0, n)
	}
	for d, dc := range perDomain {
		sh.byDomain[d] = &domainIndex{order: make([]gref, 0, dc.rows), skus: make(map[string]struct{}, dc.skus)}
	}
	for source, n := range perSource {
		sh.bySource[source] = make([]gref, 0, n)
	}
	for b, n := range perBucket {
		sh.byBucket[b] = make([]gref, 0, n)
	}
	sh.order = make([]gref, 0, len(refs))
	for _, r := range refs {
		sh.add(*r.obs, r.seq, bucketOf(r.obs.Time, bucketSecs))
	}
	return newest
}

// searchSeq returns the index of the first entry of a seq-sorted list
// whose sequence number is above after.
func searchSeq(list []gref, after uint64) int {
	return sort.Search(len(list), func(i int) bool { return list[i].seq() > after })
}
