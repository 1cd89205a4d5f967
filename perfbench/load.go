package main

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sheriff"
	"sheriff/client"
)

// outcome is one check as the client saw it.
type outcome struct {
	id         int64 // unique per send; travels as the check's user_id
	in         *checkInput
	status     int // HTTP status; 0 on a transport error
	err        error
	res        sheriff.CheckResult
	start, end time.Time
	sample     openLoopSample // open loop only
}

func (o outcome) rtt() time.Duration { return o.end.Sub(o.start) }

// loader drives checks through the typed SDK with at most `workers`
// goroutines and connections. Every phase draws from one shared cursor
// over inputs, so a check is never sent twice within a run.
type loader struct {
	cl      *client.Client
	workers int
	inputs  []checkInput
	next    atomic.Int64
	sends   atomic.Int64
}

func newLoader(workers int, inputs []checkInput) *loader {
	return &loader{workers: workers, inputs: inputs}
}

// connect points the loader at a (new) server, keeping its input cursor.
func (l *loader) connect(base string) {
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: l.workers, MaxConnsPerHost: l.workers},
	}
	// One attempt: a retry would hide the reply the server actually gave.
	l.cl = client.New(base, client.Options{HTTPClient: hc, MaxAttempts: 1})
}

// take returns the next unused input, or nil when they are exhausted.
func (l *loader) take() *checkInput {
	i := l.next.Add(1) - 1
	if i >= int64(len(l.inputs)) {
		return nil
	}
	return &l.inputs[i]
}

func (l *loader) check(ctx context.Context, in *checkInput) outcome {
	id := l.sends.Add(1)
	req := in.req
	req.UserID = "b" + strconv.FormatInt(id, 10)
	o := outcome{id: id, in: in, start: time.Now()}
	res, err := l.cl.Check(ctx, req)
	o.end = time.Now()
	var ae *client.APIError
	switch {
	case err == nil:
		o.status, o.res = http.StatusOK, res
	case errors.As(err, &ae):
		o.status = ae.StatusCode
	default:
		o.err = err
	}
	return o
}

// sequential sends every input once from one goroutine (warm-up).
func (l *loader) sequential(ctx context.Context, inputs []checkInput) []outcome {
	out := make([]outcome, 0, len(inputs))
	for i := range inputs {
		out = append(out, l.check(ctx, &inputs[i]))
	}
	return out
}

// closed runs the closed loop: each worker sends its next check when the
// previous reply arrives, until n checks have been sent or inputs run out.
// The work is fixed rather than the time, so every run of a seed writes
// the same dataset.
func (l *loader) closed(ctx context.Context, n int) (outs []outcome, elapsed time.Duration) {
	start := time.Now()
	var sent atomic.Int64
	per := make([][]outcome, l.workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent.Add(1) <= int64(n) {
				in := l.take()
				if in == nil {
					return
				}
				per[w] = append(per[w], l.check(ctx, in))
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// open runs the open loop: rate×dur checks due on a fixed schedule,
// each timed from its due time. A worker that falls behind sends at
// once; how late it sent is recorded.
func (l *loader) open(ctx context.Context, rate float64, dur time.Duration) []outcome {
	n := int(rate * dur.Seconds())
	var sched atomic.Int64
	start := time.Now()
	per := make([][]outcome, l.workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(sched.Add(1) - 1)
				if i >= n {
					return
				}
				due := dueAt(i, rate)
				if d := time.Until(start.Add(due)); d > 0 {
					time.Sleep(d)
				}
				in := l.take()
				if in == nil {
					return
				}
				sent := time.Since(start)
				o := l.check(ctx, in)
				o.sample = openLoopSample{due: due, sent: sent, done: o.end.Sub(start)}
				per[w] = append(per[w], o)
			}
		}()
	}
	wg.Wait()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs
}

// latencies are the open-loop outcomes' latencies from their due times, in ms.
func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = ms(o.sample.latency())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
