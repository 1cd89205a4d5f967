package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tailPercentile returns the highest percentile no greater than want that
// leaves at least minTail of n samples beyond it; false when n is too
// small for any tail percentile.
func tailPercentile(n int, want float64) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	return math.Min(want, 100*(1-float64(minTail)/float64(n))), true
}

// quantile is the nearest-rank percentile p (0..100) of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// latencySummary is a latency distribution reported the benchmark's way:
// the median, the highest percentile with minTail samples beyond it (up
// to the wanted one), and the sample count.
type latencySummary struct {
	N    int
	P50  float64
	Tail float64 // value at TailPct
	// TailPct is the percentile Tail reports; below the wanted one when
	// there were too few samples.
	TailPct float64
}

// summarize reports zeros for an empty distribution: at a seam nothing
// passed through (no fabric serve on a fully cached run) took no time.
func summarize(values []float64, wantTail float64) latencySummary {
	if len(values) == 0 {
		return latencySummary{}
	}
	s := sortedCopy(values)
	out := latencySummary{N: len(s), P50: quantile(s, 50)}
	if p, ok := tailPercentile(len(s), wantTail); ok {
		out.Tail, out.TailPct = quantile(s, p), p
	} else {
		out.Tail, out.TailPct = s[len(s)-1], 100
	}
	return out
}

func (l latencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.4g p%.4g=%.4g", l.N, l.P50, l.TailPct, l.Tail)
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total length covered by the intervals clipped to
// [lo, hi]; overlapping intervals count once.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(span interval, children []interval) int64 {
	return span.end - span.start - unionLength(children, span.start, span.end)
}

// openLoopSample is one request of an open-loop run, as offsets from the
// run's start: when it was due, when the generator sent it, when its
// reply arrived.
type openLoopSample struct{ due, sent, done time.Duration }

// latency is measured from the due time, so a stall is charged to every
// request queued behind it, not only to the one that hit it.
func (s openLoopSample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator sent the request.
func (s openLoopSample) late() time.Duration { return max(0, s.sent-s.due) }

// dueAt is the i-th arrival of a fixed-rate schedule.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// cpuTicks parses utime+stime (clock ticks) from /proc/<pid>/stat. The
// command name may hold spaces and parentheses, so fields count from the
// last ')'.
func cpuTicks(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return ut + st, nil
}

// clockTicksPerSec is USER_HZ, fixed at 100 on every Linux architecture
// Go supports.
const clockTicksPerSec = 100

// statusKB returns a "Key:   N kB" line's value from /proc/<pid>/status.
func statusKB(status []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad %s line %q", key, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// gcCycle is one GODEBUG=gctrace=1 line.
type gcCycle struct {
	at    time.Duration // since process start
	cpuMs float64       // assist + background + idle mark, plus both STW phases
}

// parseGCTrace parses a gctrace line:
//
//	gc 7 @0.513s 3%: 0.020+1.2+0.003 ms clock, 0.041+0.30/1.1/0.2+0.006 ms cpu, 4->4->1 MB, ...
func parseGCTrace(line string) (gcCycle, bool) {
	f := strings.Fields(line)
	if len(f) < 10 || f[0] != "gc" || !strings.HasPrefix(f[2], "@") || !strings.HasSuffix(f[2], "s") {
		return gcCycle{}, false
	}
	at, err := strconv.ParseFloat(f[2][1:len(f[2])-1], 64)
	if err != nil {
		return gcCycle{}, false
	}
	for i := 5; i+2 < len(f); i++ {
		if f[i+1] != "ms" || !strings.HasPrefix(f[i+2], "cpu") {
			continue
		}
		var sum float64
		for _, part := range strings.FieldsFunc(f[i], func(r rune) bool { return r == '+' || r == '/' }) {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return gcCycle{}, false
			}
			sum += v
		}
		return gcCycle{at: time.Duration(at * float64(time.Second)), cpuMs: sum}, true
	}
	return gcCycle{}, false
}
