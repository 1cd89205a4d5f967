package store

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestBucketOfEdges pins bucketOf's floor division where truncation
// would go wrong: before the epoch, exactly on a boundary, one
// nanosecond either side of one, and in a non-UTC zone.
func TestBucketOfEdges(t *testing.T) {
	const day = 86400
	cases := []struct {
		t    time.Time
		secs int64
		want int64
	}{
		{time.Unix(0, 0), day, 0},
		{time.Unix(-1, 0), day, -day},
		{time.Unix(0, -1), day, -day}, // one nanosecond before the epoch
		{time.Unix(-day, 0), day, -day},
		{time.Unix(-day-1, 0), day, -2 * day},
		{time.Unix(-day, -1), day, -2 * day},
		{time.Unix(day-1, 999_999_999), day, 0},
		{time.Unix(day, 0), day, day},
		{time.Unix(-7, 0), 7, -7},
		{time.Unix(-8, 0), 7, -14},
		{time.Unix(-1, 500_000_000), 1, -1},
		{bucketBase, day, bucketBase.Unix()},
		{bucketBase.Add(-time.Nanosecond), day, bucketBase.Unix() - day},
		// Local midnight at +05:30 is 18:30 UTC the day before.
		{time.Date(2013, 1, 10, 0, 0, 0, 0, time.FixedZone("IST", 19800)), day, bucketBase.Unix() - day},
		{time.Date(2013, 1, 9, 19, 0, 0, 0, time.FixedZone("EST", -18000)), day, bucketBase.Unix()},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.t, tc.secs); got != tc.want {
			t.Errorf("bucketOf(%s, %d) = %d, want %d", tc.t.Format(time.RFC3339Nano), tc.secs, got, tc.want)
		}
	}
}

// TestTimeEdgePushdown checks the time-range pushdown against the row
// predicate at the edges bucketOverlaps decides on: sub-second Since and
// Until, RFC 3339 offsets other than Z, ranges that end exactly on a
// bucket start, and pre-epoch buckets. For each bucket width and query,
// the pushed-down ScanRange must return exactly the rows Query.match
// keeps from an unbounded scan.
func TestTimeEdgePushdown(t *testing.T) {
	base := bucketBase.Unix()
	var times []time.Time
	for _, sec := range []int64{-86401, -86400, -2, -1, 0, 1, base - 1, base, base + 1, base + 86399, base + 86400, base + 2*86400} {
		for _, ns := range []int64{0, 1, 500_000_000, 999_999_999} {
			times = append(times, time.Unix(sec, ns))
		}
	}
	ts := func(t *testing.T, s string) time.Time {
		t.Helper()
		if s == "" {
			return time.Time{} // unbounded
		}
		v, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cases := []struct {
		name         string
		since, until string
	}{
		{"until-exact-bucket-start", "", "2013-01-10T00:00:00Z"},
		{"since-exact-bucket-start", "2013-01-10T00:00:00Z", ""},
		{"one-bucket-exactly", "2013-01-10T00:00:00Z", "2013-01-11T00:00:00Z"},
		{"sub-second-since", "2013-01-09T23:59:59.5Z", "2013-01-10T00:00:01Z"},
		{"sub-second-until", "2013-01-09T23:59:59Z", "2013-01-10T00:00:00.5Z"},
		{"until-one-ns-past-start", "", "2013-01-10T00:00:00.000000001Z"},
		{"since-one-ns-before-end", "2013-01-10T23:59:59.999999999Z", ""},
		{"positive-offset", "2013-01-10T05:30:00+05:30", "2013-01-11T05:29:59.5+05:30"},
		{"negative-offset", "2013-01-09T19:00:00.5-05:00", "2013-01-10T19:00:00-05:00"},
		{"offset-ends-on-bucket-start", "2013-01-09T12:00:00-12:00", "2013-01-11T09:00:00+09:00"},
		{"pre-epoch-bucket", "1969-12-31T00:00:00Z", "1970-01-01T00:00:00Z"},
		{"pre-epoch-sub-second", "1969-12-31T23:59:59.5Z", "1970-01-01T00:00:00.5Z"},
		{"across-the-epoch-offset", "1969-12-31T20:00:00-04:00", "1970-01-01T01:00:00+01:00"},
		{"empty-range", "2013-01-10T00:00:00Z", "2013-01-10T00:00:00Z"},
	}
	for _, secs := range []int64{1, 7, 3600, 86400} {
		s := newBucketed(secs)
		for i, tm := range times {
			s.AddAll([]Observation{{Domain: fmt.Sprintf("d%d.example", i%5), SKU: "S", Time: tm, Round: -1, OK: true}})
		}
		all := collectSeqs(s, Query{Round: -1}, nil)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("width=%d/%s", secs, tc.name), func(t *testing.T) {
				q := Query{Round: -1, Since: ts(t, tc.since), Until: ts(t, tc.until)}
				before := s.ScanStats()
				got := collectSeqs(s, q, nil)
				after := s.ScanStats()
				want := collectSeqs(s, Query{Round: -1}, func(o *Observation) bool { return q.match(o) })
				if !slices.Equal(got, want) {
					t.Fatalf("pushdown returned seqs %v, the row predicate %v", got, want)
				}
				if after.SegmentsScanned+after.SegmentsSkipped == before.SegmentsScanned+before.SegmentsSkipped {
					t.Fatal("time-bounded scan did not take the bucket pushdown path")
				}
				if len(want) == len(all) {
					t.Fatal("case excludes no row, so it tests no edge")
				}
			})
		}
	}
}

// collectSeqs returns the sequence numbers ScanRange yields for q over
// the whole store, keeping only rows keep accepts (all when nil).
func collectSeqs(s *Store, q Query, keep func(*Observation) bool) []uint64 {
	var out []uint64
	for seq, o := range s.ScanRange(q, 0, s.Watermark()) {
		if keep == nil || keep(&o) {
			out = append(out, seq)
		}
	}
	return out
}
