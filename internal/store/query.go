package store

import (
	"iter"
	"sort"
	"time"
)

// Query filters observations. Zero-valued fields match everything.
type Query struct {
	// Domain restricts to one retailer.
	Domain string
	// SKU restricts to one product.
	SKU string
	// Source restricts to one campaign type.
	Source string
	// VP restricts to one vantage point ID.
	VP string
	// Tenant restricts to one contributing tenant's observations.
	Tenant string
	// Round restricts to one crawl round when >= 0 (use -1 to match all).
	Round int
	// OnlyOK drops failed extractions.
	OnlyOK bool
	// Since and Until bound the observation time: [Since, Until) —
	// Since inclusive, Until exclusive, zero values unbounded. On scans
	// with no narrower index, the range pushes down to time-bucket
	// selection: buckets entirely outside the range are skipped without
	// touching a row (see ScanStats).
	Since time.Time
	Until time.Time
}

// match reports whether an observation satisfies the query.
func (q Query) match(o *Observation) bool {
	if q.Domain != "" && o.Domain != q.Domain {
		return false
	}
	if q.SKU != "" && o.SKU != q.SKU {
		return false
	}
	if q.Source != "" && o.Source != q.Source {
		return false
	}
	if q.VP != "" && o.VP != q.VP {
		return false
	}
	if q.Tenant != "" && o.Tenant != q.Tenant {
		return false
	}
	if q.Round >= 0 && o.Round != q.Round {
		return false
	}
	if q.OnlyOK && !o.OK {
		return false
	}
	if !q.Since.IsZero() && o.Time.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !o.Time.Before(q.Until) {
		return false
	}
	return true
}

// timeBounded reports whether the query carries a time range at all.
func (q Query) timeBounded() bool { return !q.Since.IsZero() || !q.Until.IsZero() }

// bucketOverlaps reports whether the bucket [start, start+secs) can hold
// rows in the query's time range.
func (q Query) bucketOverlaps(start, secs int64) bool {
	if !q.Since.IsZero() && start+secs <= q.Since.Unix() {
		return false // bucket ends before the range starts
	}
	if !q.Until.IsZero() {
		u := q.Until.Unix()
		// Until is exclusive; a bucket starting at or past it holds only
		// rows >= Until — unless Until has sub-second precision, which
		// reaches u's second itself.
		if start >= u && !(start == u && q.Until.Nanosecond() > 0) {
			return false
		}
	}
	return true
}

// seqObs carries one matched observation with its sequence number
// through a cross-shard merge.
type seqObs struct {
	seq uint64
	obs Observation
}

// collectRange gathers the shard's matching observations with sequence
// numbers in (after, upto] under its read lock, choosing the narrowest
// index for the query: a product's source posting, a product group, a
// domain order, a source order, a time-bucket selection, or the shard
// order. The window bounds how much one gather materializes for the
// streaming/pagination layer.
func (s *Store) collectRange(si int, q Query, after, upto uint64, out []seqObs) []seqObs {
	sh := &s.shards[si]
	inWindow := func(seq uint64) bool { return seq > after && seq <= upto }
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if q.Domain != "" && q.SKU != "" {
		g := sh.groups[Key{Domain: q.Domain, SKU: q.SKU}]
		if g == nil {
			return out
		}
		if q.Source != "" {
			for _, pos := range g.bySource[q.Source] {
				if o := &g.obs[pos]; inWindow(g.seqs[pos]) && q.match(o) {
					out = append(out, seqObs{seq: g.seqs[pos], obs: *o})
				}
			}
			return out
		}
		for pos := range g.obs {
			if o := &g.obs[pos]; inWindow(g.seqs[pos]) && q.match(o) {
				out = append(out, seqObs{seq: g.seqs[pos], obs: *o})
			}
		}
		return out
	}
	var order []gref
	switch {
	case q.Domain != "":
		di := sh.byDomain[q.Domain]
		if di == nil {
			return out
		}
		order = di.order
	case q.Source != "":
		order = sh.bySource[q.Source]
	case q.timeBounded():
		// Time-range pushdown: with no narrower index to walk, the range
		// predicate selects whole bucket partitions instead of testing
		// every row — a cold bucket outside the range is never touched.
		// Rows re-sort by sequence at the Scan/ScanRange layer, so bucket
		// visit order is free.
		for b, refs := range sh.byBucket {
			if !q.bucketOverlaps(b, s.bucketSecs) {
				s.segSkipped.Add(1)
				continue
			}
			s.segScanned.Add(1)
			for _, r := range refs {
				if !inWindow(r.seq()) {
					continue
				}
				if o := r.obs(); q.match(o) {
					out = append(out, seqObs{seq: r.seq(), obs: *o})
				}
			}
		}
		return out
	default:
		order = sh.order
	}
	for _, r := range order {
		if !inWindow(r.seq()) {
			continue
		}
		if o := r.obs(); q.match(o) {
			out = append(out, seqObs{seq: r.seq(), obs: *o})
		}
	}
	return out
}

// Scan streams matching observations in insertion order: ScanRange over
// every sequence number, without the numbers.
func (s *Store) Scan(q Query) iter.Seq[Observation] {
	return func(yield func(Observation) bool) {
		for _, o := range s.ScanRange(q, 0, ^uint64(0)) {
			if !yield(o) {
				return
			}
		}
	}
}

// ScanRange streams matching observations whose sequence numbers fall
// in (after, upto], in sequence order, yielding each with its sequence
// number. The HTTP layer pages and streams large datasets window by
// window, so no single gather materializes more than one window of rows.
// Pair upto with Watermark() to read only the stable prefix (every
// sequence at or below the watermark is applied and can never be
// reordered by an in-flight batch).
//
// Domain-scoped queries walk a single shard's indexes; global queries
// merge candidates across shards by sequence number. Each shard is
// snapshotted under its read lock before any element is yielded, so the
// caller's loop body never runs under a store lock and observations
// admitted mid-iteration do not appear.
func (s *Store) ScanRange(q Query, after, upto uint64) iter.Seq2[uint64, Observation] {
	return func(yield func(uint64, Observation) bool) {
		if after >= upto {
			return
		}
		var rows []seqObs
		if q.Domain != "" {
			rows = s.collectRange(int(shardIdx(q.Domain)), q, after, upto, nil)
		} else {
			for si := range s.shards {
				rows = s.collectRange(si, q, after, upto, rows)
			}
		}
		// Index orders follow shard append order, which is sequence order
		// for every serial caller; sorting is a near-no-op then and
		// restores global insertion order across shards and after
		// concurrent batch interleavings.
		sort.Slice(rows, func(a, b int) bool { return rows[a].seq < rows[b].seq })
		for i := range rows {
			if !yield(rows[i].seq, rows[i].obs) {
				return
			}
		}
	}
}

// Filter returns matching observations in insertion order.
func (s *Store) Filter(q Query) []Observation {
	var out []Observation
	for o := range s.Scan(q) {
		out = append(out, o)
	}
	return out
}

// All returns every observation. The paper's analysis scripts iterate the
// whole dataset; so do ours. Prefer Scan(Query{Round: -1}) to stream.
func (s *Store) All() []Observation {
	return s.Filter(Query{Round: -1})
}

// Domains returns the distinct domains observed, sorted. O(domains), off
// the per-shard domain indexes.
func (s *Store) Domains() []string {
	set := make(map[string]struct{})
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for d := range sh.byDomain {
			set[d] = struct{}{}
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Products returns the distinct product keys of a domain, sorted by SKU.
// O(products of the domain), off the domain's SKU index.
func (s *Store) Products(domain string) []Key {
	sh := &s.shards[shardIdx(domain)]
	sh.mu.RLock()
	di := sh.byDomain[domain]
	var skus []string
	if di != nil {
		skus = make([]string, 0, len(di.skus))
		for sku := range di.skus {
			skus = append(skus, sku)
		}
	}
	sh.mu.RUnlock()
	if len(skus) == 0 {
		return nil
	}
	sort.Strings(skus)
	out := make([]Key, len(skus))
	for i, sku := range skus {
		out[i] = Key{Domain: domain, SKU: sku}
	}
	return out
}

// groupView is one product group snapshotted under the shard lock:
// immutable slice headers into the group's append-only storage.
type groupView struct {
	k    Key
	obs  []Observation
	seqs []uint64
	// posts holds the source-restricted positions; nil when the whole
	// group is selected.
	posts []int32
}

// makeView snapshots one product group under the shard lock, restricted
// to a source. The second return is false when the group has nothing for
// the source; the third is the gather size the view contributes.
func makeView(k Key, g *keyGroup, source string) (groupView, bool, int) {
	gv := groupView{k: k, obs: g.obs, seqs: g.seqs}
	if source != "" {
		posts := g.bySource[source]
		if len(posts) == 0 {
			return groupView{}, false, 0
		}
		if len(posts) < len(g.obs) {
			gv.posts = posts
			return gv, true, len(posts)
		}
	}
	return gv, true, 0
}

// yieldViews materializes and yields snapshotted group views, lock-free.
// It returns false when the consumer stopped the iteration.
func yieldViews(views []groupView, gathered int, yield func(Key, []Observation) bool) bool {
	// One arena for all source-restricted gathers: group-sized
	// allocations are what GC pressure is made of.
	arena := make([]Observation, 0, gathered)
	for _, gv := range views {
		group := gv.obs
		if gv.posts != nil {
			// Source-restricted gather, local to the group's
			// contiguous storage.
			start := len(arena)
			for _, pos := range gv.posts {
				arena = append(arena, gv.obs[pos])
			}
			group = arena[start:len(arena):len(arena)]
		} else {
			// Zero-copy: cap the view so a caller append cannot
			// collide with the store's next write.
			group = group[:len(group):len(group)]
		}
		if !gv.inOrder() {
			group = gv.sortedCopy(group)
		}
		if !yield(gv.k, group) {
			return false
		}
	}
	return true
}

// Groups streams one product at a time: the product key plus its
// observations (restricted to one source when source != "") in insertion
// order. This is the streaming face of GroupByProduct: the analysis
// figures fold each group as it arrives instead of materializing the
// whole partition, and a group whose observations all match is yielded
// as a zero-copy view of the store's own memory. Treat yielded slices as
// read-only and do not append to them. Group iteration order is
// unspecified, as map iteration was before.
func (s *Store) Groups(source string) iter.Seq2[Key, []Observation] {
	return func(yield func(Key, []Observation) bool) {
		for si := range s.shards {
			sh := &s.shards[si]
			sh.mu.RLock()
			views := make([]groupView, 0, len(sh.groups))
			gathered := 0
			for k, g := range sh.groups {
				gv, ok, n := makeView(k, g, source)
				if !ok {
					continue
				}
				gathered += n
				views = append(views, gv)
			}
			sh.mu.RUnlock()
			if !yieldViews(views, gathered, yield) {
				return
			}
		}
	}
}

// DomainGroups streams one domain's product groups (restricted to one
// source when source != ""), touching only the domain's shard and its
// SKU index — O(products of the domain), not O(dataset). Fig. 6 and
// Fig. 8 run on this.
func (s *Store) DomainGroups(domain, source string) iter.Seq2[Key, []Observation] {
	return func(yield func(Key, []Observation) bool) {
		sh := &s.shards[shardIdx(domain)]
		sh.mu.RLock()
		di := sh.byDomain[domain]
		var views []groupView
		gathered := 0
		if di != nil {
			views = make([]groupView, 0, len(di.skus))
			for sku := range di.skus {
				k := Key{Domain: domain, SKU: sku}
				gv, ok, n := makeView(k, sh.groups[k], source)
				if !ok {
					continue
				}
				gathered += n
				views = append(views, gv)
			}
		}
		sh.mu.RUnlock()
		yieldViews(views, gathered, yield)
	}
}

// inOrder reports whether the view's selected observations already
// follow global sequence order — always true for serial writers; only
// concurrent batch interleavings on one product can break it.
func (gv groupView) inOrder() bool {
	if gv.posts != nil {
		for j := 1; j < len(gv.posts); j++ {
			if gv.seqs[gv.posts[j-1]] > gv.seqs[gv.posts[j]] {
				return false
			}
		}
		return true
	}
	for j := 1; j < len(gv.seqs); j++ {
		if gv.seqs[j-1] > gv.seqs[j] {
			return false
		}
	}
	return true
}

// sortedCopy re-sorts the selected group into sequence order (copying
// first when the group was a zero-copy view).
func (gv groupView) sortedCopy(group []Observation) []Observation {
	seqs := make([]uint64, len(group))
	if gv.posts != nil {
		for j, pos := range gv.posts {
			seqs[j] = gv.seqs[pos]
		}
	} else {
		group = append([]Observation(nil), group...)
		copy(seqs, gv.seqs)
	}
	sort.Sort(&bySeq{seqs: seqs, obs: group})
	return group
}

// bySeq sorts a group and its sequence numbers together.
type bySeq struct {
	seqs []uint64
	obs  []Observation
}

func (b *bySeq) Len() int           { return len(b.seqs) }
func (b *bySeq) Less(i, j int) bool { return b.seqs[i] < b.seqs[j] }
func (b *bySeq) Swap(i, j int) {
	b.seqs[i], b.seqs[j] = b.seqs[j], b.seqs[i]
	b.obs[i], b.obs[j] = b.obs[j], b.obs[i]
}

// GroupByProduct partitions observations of one source by product key.
// It is a materializing adapter over Groups; the yielded slices may be
// zero-copy views — treat them as read-only.
func (s *Store) GroupByProduct(source string) map[Key][]Observation {
	out := make(map[Key][]Observation)
	for k, g := range s.Groups(source) {
		out[k] = g
	}
	return out
}
