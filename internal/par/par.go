// Package par runs independent units of work on a bounded number of
// workers. It is the one fan-out the reproduction uses: a crowd check's
// vantage points, the crawler's product groups and their vantage points,
// the scenario matrix's worlds, and the store's recovery and retention
// rebuild units.
package par

import (
	"sync"
	"sync/atomic"
)

// Do runs units 0 … n-1 on min(workers, n) workers, the calling goroutine
// among them, and returns when every unit has run. Each worker calls
// worker once for its own do, so per-worker state (an intern table, say)
// lives in that closure, and then takes unit indexes by an atomic counter
// until none is left. With workers <= 1 the loop starts no goroutine, so
// every unit runs on the caller in index order. Units finish in no set
// order, so each writes its result into a slot of its own.
func Do(workers, n int, worker func() (do func(i int))) {
	if n <= 0 {
		return
	}
	p := &pool{n: n, worker: worker}
	for w := 1; w < min(workers, n); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.run()
		}()
	}
	p.run()
	p.wg.Wait()
}

// pool is one Do call's shared state, allocated once whatever the
// worker count.
type pool struct {
	next   atomic.Int64
	wg     sync.WaitGroup
	n      int
	worker func() func(int)
}

// run is one worker: it builds its do and takes indexes until none is
// left.
func (p *pool) run() {
	do := p.worker()
	for {
		i := int(p.next.Add(1) - 1)
		if i >= p.n {
			return
		}
		do(i)
	}
}
