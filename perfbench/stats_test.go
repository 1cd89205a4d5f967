package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"sheriff"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5000, want: 99, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 500, want: 98, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 10, ok: false},
	} {
		got, ok := tailPercentile(tc.n, 99)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d, 99) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarizeReportsTheValueWithTenBeyond(t *testing.T) {
	values := make([]float64, 500)
	for i := range values {
		values[len(values)-1-i] = float64(i + 1) // 500..1, unsorted on purpose
	}
	s := summarize(values, 99)
	if s.N != 500 || s.TailPct != 98 || s.P50 != 250 {
		t.Fatalf("summary %+v; want n=500 at p98, p50=250", s)
	}
	beyond := 0
	for _, v := range values {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond != minTail {
		t.Errorf("%d samples beyond the tail value %v, want %d", beyond, s.Tail, minTail)
	}
	if e := summarize(nil, 99); e.N != 0 || e.P50 != 0 || e.Tail != 0 {
		t.Errorf("empty summary %+v, want zeros", e)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	span := interval{0, 100}
	children := []interval{
		{10, 40}, {30, 60}, // overlapping fan-out: [10,60] covered once
		{55, 58},  // nested in the union
		{80, 90},  // disjoint
		{95, 130}, // runs past the span: only [95,100] counts
		{-20, -5}, // outside entirely
	}
	if got := unionLength(children, span.start, span.end); got != 50+10+5 {
		t.Errorf("union = %d, want 65", got)
	}
	if got := selfTime(span, children); got != 35 {
		t.Errorf("self time = %d, want 35", got)
	}
	if got := selfTime(span, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestOpenLoopSampleTimesFromDue(t *testing.T) {
	s := openLoopSample{due: 10 * time.Millisecond, sent: 25 * time.Millisecond, done: 27 * time.Millisecond}
	if s.latency() != 17*time.Millisecond {
		t.Errorf("latency %v, want 17ms (from due, not from send)", s.latency())
	}
	if s.late() != 15*time.Millisecond {
		t.Errorf("late %v, want 15ms", s.late())
	}
	early := openLoopSample{due: 10 * time.Millisecond, sent: 9 * time.Millisecond, done: 12 * time.Millisecond}
	if early.late() != 0 {
		t.Errorf("a send before its due time is not late: %v", early.late())
	}
	if d := dueAt(50, 200); d != 250*time.Millisecond {
		t.Errorf("dueAt(50, 200/s) = %v, want 250ms", d)
	}
}

// TestOpenLoopChargesAStallToTheChecksQueuedBehindIt drives the real
// generator at a stub server whose third check stalls: the checks due
// during the stall are sent late and their latency, timed from the due
// time, includes the wait.
func TestOpenLoopChargesAStallToTheChecksQueuedBehindIt(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(sheriff.CheckResult{Domain: "d"})
	}))
	defer srv.Close()

	inputs := make([]checkInput, 40)
	for i := range inputs {
		inputs[i].req = sheriff.CheckRequest{URL: "http://d/product/x", Highlight: "$1.00", UserAddr: netip.MustParseAddr("10.0.0.1")}
	}
	l := newLoader(1, inputs)
	l.connect(srv.URL)
	const rate = 200.0 // one check due every 5ms
	outs := l.open(context.Background(), rate, 100*time.Millisecond)
	if len(outs) != 20 {
		t.Fatalf("%d checks sent, want rate×duration = 20", len(outs))
	}
	for i, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("check %d: status %d, err %v", i, o.status, o.err)
		}
		if o.sample.due != dueAt(i, rate) {
			t.Fatalf("check %d due at %v, want %v", i, o.sample.due, dueAt(i, rate))
		}
	}
	// Checks 3..12 were due while check 2 stalled; the first of them
	// waited for most of the stall.
	if late := outs[3].sample.late(); late < stall/2 {
		t.Errorf("check due during the stall was sent only %v late", late)
	}
	if lat := outs[3].sample.latency(); lat < stall/2 {
		t.Errorf("check queued behind the stall has latency %v, want the wait included", lat)
	}
	if lat := outs[3].sample.latency(); lat < outs[3].rtt() {
		t.Errorf("latency from due (%v) is below the round trip (%v)", lat, outs[3].rtt())
	}
}

func TestCPUTicksFromProcStat(t *testing.T) {
	// The command name holds spaces and a ')', as a process may name itself.
	stat := []byte("4242 (sheriffd (x) y) S 1 4242 4242 0 -1 4194560 5000 0 0 0 731 269 0 0 20 0 9 0 123 456 789")
	got, err := cpuTicks(stat)
	if err != nil || got != 731+269 {
		t.Fatalf("cpuTicks = %d, %v; want 1000", got, err)
	}
	if _, err := cpuTicks([]byte("4242 sheriffd S 1")); err == nil {
		t.Error("a stat line without a command field should not parse")
	}
}

func TestStatusKBReadsVmHWM(t *testing.T) {
	status := []byte("Name:\tsheriffd\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n")
	if kb, err := statusKB(status, "VmHWM"); err != nil || kb != 123456 {
		t.Fatalf("VmHWM = %d, %v", kb, err)
	}
	if _, err := statusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key should be an error")
	}
}

func TestParseGCTrace(t *testing.T) {
	c, ok := parseGCTrace("gc 12 @3.514s 4%: 0.021+2.1+0.005 ms clock, 0.043+0.50/1.9/0.75+0.011 ms cpu, 38->39->20 MB, 40 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok {
		t.Fatal("gctrace line did not parse")
	}
	if c.at != 3514*time.Millisecond {
		t.Errorf("at = %v, want 3.514s", c.at)
	}
	if want := 0.043 + 0.50 + 1.9 + 0.75 + 0.011; math.Abs(c.cpuMs-want) > 1e-9 {
		t.Errorf("cpu = %v ms, want %v", c.cpuMs, want)
	}
	if _, ok := parseGCTrace("gc 3 @0.100s 1%: 0.01+0.2+0.01 ms clock, 0.02+0.1/0.2/0.3+0.02 ms cpu, 4->4->1 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)"); !ok {
		t.Error("a forced cycle's line should parse")
	}
	if _, ok := parseGCTrace("2026/10/16 15:29:20 api: POST /api/v1/checks -> 200 (932µs)"); ok {
		t.Error("a request log line parsed as gctrace")
	}
	n, cpu := gcIn([]gcCycle{{at: time.Second, cpuMs: 1}, {at: 2 * time.Second, cpuMs: 2}, {at: 3 * time.Second, cpuMs: 4}},
		[]window{{from: 1500 * time.Millisecond, to: 3 * time.Second}, {from: 5 * time.Second, to: 6 * time.Second}})
	if n != 1 || cpu != 2 {
		t.Errorf("gcIn = %d cycles, %v ms; want the one cycle inside the window", n, cpu)
	}
}
