package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sheriff"
	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/store"
)

// Span kinds: the seams the traced run times from outside the program.
const (
	spHandler = iota // the API's http.Handler
	spServe          // a registered fabric handler: shop render + failure injection
	spAddAll         // store.Backend.AddAll
	spFold           // the aggregate engine's write observer, nested in AddAll
)

// span is one timed call at a seam. Times are nanoseconds since the
// tracer's epoch; check is the send id the check's user_id carries.
type span struct {
	kind       int8
	check      int64
	parent     int32 // index of the enclosing span, -1 when none
	start, end int64
}

func (s span) iv() interval { return interval{s.start, s.end} }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	// compaction is when the forced compaction ran.
	compaction interval

	// checkOf maps a product URL to the check currently fetching it.
	checkOf sync.Map
	// folds links a fold to its AddAll through the batch's first row.
	folds sync.Map

	// sample lists the URLs whose fabric pages are kept for the stage
	// replay; pages holds them by url|client IP.
	sample atomic.Pointer[map[string]bool]
	pageMu sync.Mutex
	pages  map[string]string
}

func (t *tracer) sampled(url string) bool {
	m := t.sample.Load()
	return m != nil && (*m)[url]
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) checkFor(url string) int64 {
	if v, ok := t.checkOf.Load(url); ok {
		return v.(int64)
	}
	return 0
}

// wrapAPI times the API handler for each check.
func (t *tracer) wrapAPI(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/api/v1/checks" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var p struct {
			URL    string `json:"url"`
			UserID string `json:"user_id"`
		}
		json.Unmarshal(body, &p)
		id, _ := strconv.ParseInt(strings.TrimPrefix(p.UserID, "b"), 10, 64)
		t.checkOf.Store(p.URL, id)
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{kind: spHandler, check: id, parent: -1, start: start, end: t.now()})
	})
}

// serveTracer wraps one registered fabric handler.
type serveTracer struct {
	t     *tracer
	inner http.Handler
}

type captureWriter struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) { c.status = code; c.ResponseWriter.WriteHeader(code) }
func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

func (s *serveTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := s.t
	url := "http://" + r.URL.Host + r.URL.Path
	var cw *captureWriter
	if t.sampled(url) {
		cw = &captureWriter{ResponseWriter: w, status: http.StatusOK}
		w = cw
	}
	start := t.now()
	s.inner.ServeHTTP(w, r)
	end := t.now()
	if t.on.Load() {
		t.add(span{kind: spServe, check: t.checkFor(url), parent: -1, start: start, end: end})
	}
	if cw != nil && cw.status == http.StatusOK {
		t.pageMu.Lock()
		t.pages[url+"|"+r.Header.Get(netsim.HeaderClientIP)] = cw.buf.String()
		t.pageMu.Unlock()
	}
}

// tracedStore decorates the durable backend: AddAll is timed, and the
// observer it installs (the aggregate engine's fold) is timed inside it.
type tracedStore struct {
	store.Backend
	t *tracer
}

func (s *tracedStore) SetObserver(fn store.Observer) {
	if fn == nil {
		s.Backend.SetObserver(nil)
		return
	}
	s.Backend.SetObserver(func(batch []store.Observation) {
		if !s.t.on.Load() || len(batch) == 0 {
			fn(batch)
			return
		}
		start := s.t.now()
		fn(batch)
		s.t.folds.Store(&batch[0], interval{start, s.t.now()})
	})
}

func (s *tracedStore) Add(o store.Observation) { s.AddAll([]store.Observation{o}) }

func (s *tracedStore) AddAll(os []store.Observation) {
	if !s.t.on.Load() || len(os) == 0 {
		s.Backend.AddAll(os)
		return
	}
	start := s.t.now()
	s.Backend.AddAll(os)
	end := s.t.now()
	id := s.t.checkFor(os[0].URL)
	i := s.t.add(span{kind: spAddAll, check: id, parent: -1, start: start, end: end})
	if v, ok := s.t.folds.LoadAndDelete(&os[0]); ok {
		iv := v.(interval)
		s.t.add(span{kind: spFold, check: id, parent: i, start: iv.start, end: iv.end})
	}
}

// inProcess is the traced run's server: the same world sheriffd builds,
// on the same data dir options, served on a loopback listener.
type inProcess struct {
	d       *store.Durable
	srv     *http.Server
	base    string
	logf    *os.File
	stopped bool
}

func startInProcess(t *tracer, c config, longtail int, dir string) (*inProcess, error) {
	d, _, err := sheriff.OpenDataDir(dir, sheriff.DurableOptions{Fsync: store.FsyncInterval, CompactWALBytes: compactWALBytes})
	if err != nil {
		return nil, err
	}
	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: c.seed, LongTail: longtail, Store: &tracedStore{Backend: d, t: t}})
	for _, dom := range w.Registry.Domains() {
		h, _ := w.Registry.Lookup(dom)
		w.Registry.Register(dom, &serveTracer{t: t, inner: h})
	}
	logf, err := os.Create(filepath.Join(c.run, "inprocess.log"))
	if err != nil {
		d.Close()
		return nil, err
	}
	api := sheriff.NewAPIWithOptions(w, sheriff.APIOptions{Logger: log.New(logf, "", log.LstdFlags|log.Lmicroseconds)})
	mux := http.NewServeMux()
	mux.Handle("/api/", t.wrapAPI(api))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		logf.Close()
		return nil, err
	}
	p := &inProcess{d: d, srv: &http.Server{Handler: mux}, base: "http://" + ln.Addr().String(), logf: logf}
	go p.srv.Serve(ln)
	return p, nil
}

func (p *inProcess) stop() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	p.srv.Close()
	p.logf.Close()
	return p.d.Close()
}

// traceInProcess reruns the workload in-process: alternating untraced and
// traced slices of equal work, then the replay of the stages no seam
// exposes and a traced block across a compaction. The export and restart
// stages are timed directly on crashed, the data dir sheriffd left at
// kill -9, which is what the timed restarts recover.
func traceInProcess(ctx context.Context, c config, tw *twin, seq, warm []checkInput, pristine, crashed string, res *result) error {
	longtail := tw.w.Opts.LongTail
	t := &tracer{epoch: time.Now(), pages: map[string]string{}}
	// Keep the pages of every 20th upcoming product, and of the hot set.
	sampleFrom := func(from int) {
		m := map[string]bool{}
		for i := from; i < len(seq) && len(m) < 200; i += 20 {
			m[seq[i].req.URL] = true
		}
		for _, in := range warm {
			m[in.req.URL] = true
		}
		t.sample.Store(&m)
	}
	sampleFrom(0)

	dir := filepath.Join(c.run, "inprocess")
	if pristine != "" {
		if err := copyDir(pristine, dir); err != nil {
			return err
		}
	}
	p, err := startInProcess(t, c, longtail, dir)
	if err != nil {
		return err
	}
	defer p.stop()
	l := newLoader(c.workers, seq)
	l.connect(p.base)
	if c.spec.hot {
		l.sequential(ctx, warm)
	} else {
		l.sequential(ctx, seq[:distinctWarm])
		l.next.Store(distinctWarm)
		sampleFrom(distinctWarm)
	}
	// Untraced and traced slices alternate, so drift over the run (a
	// growing store, a warming heap) falls on both sides alike.
	slice := c.closedChecks(0.1)
	var traced []outcome
	var plainN, tracedN int
	var plainT, tracedT time.Duration
	for k := 0; k < 2; k++ {
		outs, el := l.closed(ctx, slice)
		plainN, plainT = plainN+len(outs), plainT+el
		t.on.Store(true)
		outs, el = l.closed(ctx, slice)
		t.on.Store(false)
		traced = append(traced, outs...)
		tracedN, tracedT = tracedN+len(outs), tracedT+el
	}
	plainRate := float64(plainN) / plainT.Seconds()
	tracedRate := float64(tracedN) / tracedT.Seconds()
	res.set("trace.overhead_ratio", tracedRate/plainRate, "ratio")
	fmt.Fprintf(os.Stderr, "tracing overhead (%s): in-process %.1f checks/s untraced, %.1f traced (%.1f%%)\n",
		c.workload, plainRate, tracedRate, 100*(1-tracedRate/plainRate))

	costs, err := replayStages(tw, t, traced, res)
	if err != nil {
		return err
	}
	if err := attribute(t, traced, costs, res); err != nil {
		return err
	}
	if err := timeCompactionStall(ctx, t, l, p.d, res); err != nil {
		return err
	}
	if err := p.stop(); err != nil {
		return err
	}
	return timeStoreStages(c, tw, crashed, res)
}

// stageCosts are mean per-operation costs (µs) from the replay.
type stageCosts struct {
	parse, derive, extract, fx, encode, roundtrip float64
}

// replayStages times, over the captured pages and the traced replies,
// the steps inside the handler that no seam exposes.
func replayStages(tw *twin, t *tracer, traced []outcome, res *result) (stageCosts, error) {
	var parse, derive, extr, fxs, enc, rt []float64
	docs := map[string]*htmlx.Node{}
	for key, page := range t.pages {
		t0 := time.Now()
		doc, err := htmlx.ParseString(page)
		parse = append(parse, us(time.Since(t0)))
		if err == nil {
			docs[key] = doc
		}
	}
	for _, o := range traced {
		if o.status != http.StatusOK || !t.sampled(o.in.req.URL) {
			continue
		}
		doc := docs[o.in.req.URL+"|"+o.in.req.UserAddr.String()]
		loc, ok := tw.w.GeoDB.Lookup(o.in.req.UserAddr)
		if doc == nil || !ok {
			continue
		}
		t0 := time.Now()
		anchor, err := extract.Derive(doc, o.in.req.Highlight, loc.Country.Currency)
		derive = append(derive, us(time.Since(t0)))
		if err != nil {
			continue
		}
		for _, vp := range tw.vps {
			if vdoc := docs[o.in.req.URL+"|"+vp.Addr.String()]; vdoc != nil {
				t0 := time.Now()
				anchor.Extract(vdoc, vp.Location.Country.Currency)
				extr = append(extr, us(time.Since(t0)))
			}
		}
	}
	for i, o := range traced {
		if o.status != http.StatusOK || i%4 != 0 {
			continue
		}
		var quotes []fx.Quote
		for _, pr := range o.res.Prices {
			if c, ok := money.ByCode(pr.Currency); ok && pr.OK {
				quotes = append(quotes, fx.Quote{Amount: money.FromMinor(pr.PriceUnits, c), Day: tw.now})
			}
		}
		t0 := time.Now()
		tw.w.Market.RealVariation(quotes)
		fxs = append(fxs, us(time.Since(t0)))
		t0 = time.Now()
		json.NewEncoder(io.Discard).Encode(o.res)
		enc = append(enc, us(time.Since(t0)))
	}
	// Transport self time: a RoundTrip to a handler that only writes a
	// captured page, minus that handler's own time.
	reg := netsim.NewRegistry()
	var body string
	var inner time.Duration
	reg.Register("replay.invalid", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, body)
		inner = time.Since(t0)
	}))
	tr := netsim.NewTransport(reg, tw.w.Clock, tw.vps[0].Addr)
	n := 0
	for _, page := range t.pages {
		if n++; n > 500 {
			break
		}
		body = page
		req, _ := http.NewRequest(http.MethodGet, "http://replay.invalid/product/X", nil)
		t0 := time.Now()
		resp, err := tr.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rt = append(rt, us(time.Since(t0)-inner))
	}
	var empty []string
	set := func(name string, v []float64) float64 {
		if len(v) == 0 {
			empty = append(empty, name)
		}
		s := summarize(v, 99)
		res.set(name+".p50", s.P50, "us")
		res.set(name+".p99", s.Tail, "us")
		return mean(v)
	}
	costs := stageCosts{
		parse: set("htmlx.parse_us", parse), derive: set("extract.derive_us", derive),
		extract: set("extract.extract_us", extr), fx: set("fx.real_variation_us", fxs),
		encode: set("api.encode_us", enc), roundtrip: set("netsim.roundtrip_us", rt),
	}
	if len(empty) > 0 {
		return costs, fmt.Errorf("stage replay had nothing to time for %v", empty)
	}
	return costs, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// attribute splits each traced check's round trip into layer self times
// and prints the per-layer table and its attribution check.
func attribute(t *tracer, traced []outcome, costs stageCosts, res *result) error {
	byCheck := map[int64][]span{}
	for _, s := range t.spans {
		if s.check != 0 {
			byCheck[s.check] = append(byCheck[s.check], s)
		}
	}
	type parts struct{ wire, serve, addAll, fold, parse, derive, extract, fx, encode, roundtrip, residual, rtt float64 }
	var rows []parts
	var rtt, wire, handler, residual, pages, serves []float64
	for _, o := range traced {
		var h *span
		var serveIv, storeIv, foldIv []interval
		nServe := 0
		for i, s := range byCheck[o.id] {
			switch s.kind {
			case spHandler:
				h = &byCheck[o.id][i]
			case spServe:
				serveIv = append(serveIv, s.iv())
				nServe++
			case spAddAll:
				storeIv = append(storeIv, s.iv())
			case spFold:
				foldIv = append(foldIv, s.iv())
			}
		}
		if h == nil {
			return fmt.Errorf("check %d has no handler span", o.id)
		}
		ns := func(v int64) float64 { return float64(v) / 1e3 }
		all := append(append([]interval{}, serveIv...), storeIv...)
		u := unionLength(all, h.start, h.end)
		sv := unionLength(serveIv, h.start, h.end)
		fd := unionLength(foldIv, h.start, h.end)
		p := parts{
			rtt:    us(o.rtt()),
			serve:  ns(sv),
			fold:   ns(fd),
			addAll: ns(u - sv - fd),
		}
		p.wire = p.rtt - ns(h.end-h.start)
		self := ns(selfTime(h.iv(), all))
		nPages := 0
		if o.status == http.StatusOK {
			nPages = 1
			for _, pr := range o.res.Prices {
				if !strings.Contains(pr.Err, ": status ") {
					nPages++
				}
			}
			p.derive, p.fx, p.encode = costs.derive, costs.fx, costs.encode
			p.extract = float64(nPages-1) * costs.extract
		}
		p.parse = float64(nPages) * costs.parse
		p.roundtrip = float64(nServe) * costs.roundtrip
		p.residual = self - (p.parse + p.derive + p.extract + p.fx + p.encode + p.roundtrip)
		rows = append(rows, p)
		rtt = append(rtt, p.rtt)
		wire = append(wire, p.wire)
		handler = append(handler, self)
		residual = append(residual, p.residual)
		pages = append(pages, float64(nPages))
		serves = append(serves, float64(nServe))
	}
	if len(rows) == 0 {
		return fmt.Errorf("no traced checks")
	}
	// Self time per span: a fold nests in its AddAll, serves have no
	// children at these seams.
	children := map[int32][]interval{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.iv())
		}
	}
	var serveUs, addAllUs, foldUs []float64
	for i, s := range t.spans {
		self := float64(selfTime(s.iv(), children[int32(i)])) / 1e3
		switch s.kind {
		case spServe:
			serveUs = append(serveUs, self)
		case spAddAll:
			addAllUs = append(addAllUs, self)
		case spFold:
			foldUs = append(foldUs, self)
		}
	}
	pct := func(name, unit string, v []float64) {
		s := summarize(v, 99)
		res.set(name+".p50", s.P50, unit)
		res.set(name+".p99", s.Tail, unit)
	}
	pct("client.rtt_us", "us", rtt)
	pct("http.wire_us", "us", wire)
	pct("api.handler_us", "us", handler)
	pct("trace.residual_us", "us", residual)
	pct("shop.serve_us", "us", serveUs)
	pct("store.add_all_us", "us", addAllUs)
	pct("aggregate.fold_us", "us", foldUs)
	res.set("shop.serves_per_check", mean(serves), "count/check")
	res.set("htmlx.pages_per_check", mean(pages), "count/check")

	// The table: mean per check. The residual is what the handler's self
	// time leaves after the replayed stages, so the rows add up to the
	// round trip by construction.
	var m parts
	for _, p := range rows {
		m.rtt += p.rtt
		m.wire += p.wire
		m.serve += p.serve
		m.addAll += p.addAll
		m.fold += p.fold
		m.parse += p.parse
		m.derive += p.derive
		m.extract += p.extract
		m.fx += p.fx
		m.encode += p.encode
		m.roundtrip += p.roundtrip
		m.residual += p.residual
	}
	k := float64(len(rows))
	table := []struct {
		layer string
		v     float64
	}{
		{"http.wire (client SDK, net/http, TCP)", m.wire / k},
		{"shop.serve (render + failure injection, fan-out union)", m.serve / k},
		{"netsim.roundtrip (replayed)", m.roundtrip / k},
		{"htmlx.parse (replayed)", m.parse / k},
		{"extract.derive (replayed)", m.derive / k},
		{"extract.extract (replayed)", m.extract / k},
		{"fx.real_variation (replayed)", m.fx / k},
		{"api.encode (replayed)", m.encode / k},
		{"store.add_all (self)", m.addAll / k},
		{"aggregate.fold", m.fold / k},
		{"trace.residual (fan-out, locks, scheduling, middleware)", m.residual / k},
	}
	fmt.Fprintf(os.Stderr, "per-layer self time, mean per check over %d traced checks:\n", len(rows))
	for _, r := range table {
		fmt.Fprintf(os.Stderr, "  %-58s %9.1f us  %5.1f%%\n", r.layer, r.v, 100*r.v/(m.rtt/k))
	}
	fmt.Fprintf(os.Stderr, "  %-58s %9.1f us\n", "client.rtt", m.rtt/k)
	// The attribution fails when the replayed stage costs, charged per
	// check by page count, exceed the handler self time they are taken
	// from: the residual goes negative. That is a wrong model (the handler
	// skipped a replayed stage, say), not a wrong output, so it is flagged
	// in the provenance and on stderr rather than failing the run.
	p50 := summarize(residual, 99).P50
	res.provenance["attribution"] = "ok"
	if m.residual < 0 || p50 < 0 {
		res.provenance["attribution"] = "over-attributed"
		fmt.Fprintf(os.Stderr, "  attribution check FAILED: trace.residual_us mean %.1f, p50 %.1f; the replayed stage costs exceed the handler self time\n",
			m.residual/k, p50)
		return nil
	}
	fmt.Fprintf(os.Stderr, "  attribution check ok: trace.residual_us mean %.1f, p50 %.1f, both >= 0\n", m.residual/k, p50)
	return nil
}

// timeCompactionStall runs traced checks across one compaction and
// reports the longest AddAll it overlapped: the writer stall.
func timeCompactionStall(ctx context.Context, t *tracer, l *loader, d *store.Durable, res *result) error {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.on.Store(true)
	defer t.on.Store(false)
	done := make(chan error, 1)
	time.AfterFunc(20*time.Millisecond, func() {
		start := t.now()
		err := d.Compact()
		t.compaction = interval{start, t.now()}
		done <- err
	})
	var err error
checks:
	for {
		l.closed(ctx, 50)
		select {
		case err = <-done:
			break checks
		default:
		}
	}
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	var stall int64
	for _, s := range t.spans {
		if s.kind == spAddAll && s.start < t.compaction.end && s.end > t.compaction.start {
			stall = max(stall, s.end-s.start)
		}
	}
	res.set("store.compaction_stall_ms", float64(stall)/1e6, "ms")
	return nil
}

// timeStoreStages times the export and restart stages directly on a data
// dir as sheriffd left it at kill -9 (cold buckets plus a WAL tail):
// windowed ScanRange, NDJSON encode, read-only recovery, the writable
// open's checkpoint (on a copy), and the aggregate rebuild.
func timeStoreStages(c config, tw *twin, dir string, res *result) error {
	var recoverS, openS, rebuildS, encodeS, windowUs []float64
	var st *store.Store
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s, _, err := sheriff.OpenDataDirReadOnly(dir)
		if err != nil {
			return err
		}
		recoverS = append(recoverS, time.Since(t0).Seconds())
		st = s
		t0 = time.Now()
		sheriff.NewAnalysisReader(st, tw.w.Market, sheriff.AnalysisOptions{})
		rebuildS = append(rebuildS, time.Since(t0).Seconds())

		cp := filepath.Join(c.run, fmt.Sprintf("checkpoint-%d", i))
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		t0 = time.Now()
		d, _, err := sheriff.OpenDataDir(cp, sheriff.DurableOptions{Fsync: store.FsyncInterval})
		if err != nil {
			return err
		}
		openS = append(openS, time.Since(t0).Seconds())
		if err := d.Close(); err != nil {
			return err
		}
		os.RemoveAll(cp)
	}
	// The NDJSON path: watermark-capped windows of 8192 sequence numbers
	// (the API's window), each row encoded through one json.Encoder.
	const seqWindow = 8192
	q := store.Query{Round: -1}
	upto := st.Watermark()
	for i := 0; i < 3; i++ {
		enc := json.NewEncoder(io.Discard)
		var encode time.Duration
		for from := uint64(0); from < upto; from += seqWindow {
			t0 := time.Now()
			var rows []store.Observation
			for _, o := range st.ScanRange(q, from, min(from+seqWindow, upto)) {
				rows = append(rows, o)
			}
			if i == 0 {
				windowUs = append(windowUs, us(time.Since(t0)))
			}
			t0 = time.Now()
			for _, o := range rows {
				enc.Encode(o)
			}
			encode += time.Since(t0)
		}
		encodeS = append(encodeS, encode.Seconds())
	}
	recovery := median(recoverS)
	res.set("store.recover_s", recovery, "s")
	res.set("store.checkpoint_s", max(0, median(openS)-recovery), "s")
	res.set("aggregate.rebuild_s", median(rebuildS), "s")
	res.set("api.ndjson_encode_s", median(encodeS), "s")
	ws := summarize(windowUs, 99)
	res.set("store.scan_window_us.p50", ws.P50, "us")
	res.set("store.scan_window_us.p99", ws.Tail, "us")
	res.set("store.scan_windows", float64(len(windowUs)), "count")
	return nil
}
