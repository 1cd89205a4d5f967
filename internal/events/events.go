// Package events is the in-process event log behind GET /api/v1/events:
// an append-only, sequence-numbered history of typed analysis events
// (a product's variation crossing the detection threshold, a strategy
// family's verdict flipping) with subscription support for live tails.
//
// The log is deliberately simple: history is a slice, every event gets
// the next sequence number under one mutex, and subscribers are woken
// through capacity-1 signal channels — a subscriber that missed a wakeup
// re-reads everything after its cursor with After, so no event is ever
// lost between a notification and a read. Closing the log wakes every
// subscriber one final time; tails drain what remains and disconnect,
// which is what lets a graceful server drain flush live streams instead
// of cutting them.
//
// Every log carries an epoch. Sequence numbers are positions within one
// epoch's log; when retention prunes the dataset the engine starts a
// fresh log under a new epoch, so a cursor from an old epoch names
// nothing in the new one.
package events

import (
	"sync"
	"time"
)

// Type classifies an event.
type Type string

const (
	// TypeVariation fires the first time a product group's conservative
	// max/min USD ratio (the Sec. 2.2 currency filter's output) reaches
	// the engine's variation threshold. The folded ratio is monotone
	// non-decreasing, so this fires exactly once per product group
	// regardless of write batching — which is what makes the event log
	// stable across a crash-recovery rebuild within an epoch.
	TypeVariation Type = "variation"
	// TypeStrategy fires when a domain's per-family strategy verdict
	// flips (flagged <-> not flagged) as evidence accumulates.
	TypeStrategy Type = "strategy"
)

// Event is one entry of the log — the wire shape of /api/v1/events rows.
type Event struct {
	// Seq is the event's position in the log, starting at 1. History
	// replays resume after a sequence (?after=seq).
	Seq uint64 `json:"seq"`
	// Time is the simulated observation time that triggered the event,
	// so event streams are deterministic for deterministic worlds.
	Time time.Time `json:"time"`
	// Type is the event kind (variation, strategy).
	Type Type `json:"type"`
	// Domain is the retailer the event concerns.
	Domain string `json:"domain"`
	// SKU identifies the product for variation events.
	SKU string `json:"sku,omitempty"`
	// Ratio is the conservative ratio that crossed the threshold.
	Ratio float64 `json:"ratio,omitempty"`
	// Family is the strategy family for strategy events.
	Family string `json:"family,omitempty"`
	// Flagged is the family's new verdict for strategy events.
	Flagged bool `json:"flagged,omitempty"`
	// Affected and Eligible carry the evidence behind a strategy flip.
	Affected int `json:"affected,omitempty"`
	Eligible int `json:"eligible,omitempty"`
}

// Log is an append-only in-process event log. Safe for concurrent use.
type Log struct {
	epoch  uint64
	mu     sync.Mutex
	events []Event
	subs   map[chan struct{}]struct{}
	done   chan struct{}
	closed bool
}

// NewLog returns an empty open log under the given epoch.
func NewLog(epoch uint64) *Log {
	return &Log{
		epoch: epoch,
		subs:  make(map[chan struct{}]struct{}),
		done:  make(chan struct{}),
	}
}

// Append assigns the next sequence number, records the event and wakes
// subscribers. The stamped event is returned. Appending to a closed
// (sealed) log still records history — a drain-window write must not
// panic or vanish — but wakes nobody.
func (l *Log) Append(e Event) Event {
	l.mu.Lock()
	e.Seq = uint64(len(l.events)) + 1
	l.events = append(l.events, e)
	closed := l.closed
	if !closed {
		for ch := range l.subs {
			select {
			case ch <- struct{}{}:
			default: // already signaled; the subscriber re-reads anyway
			}
		}
	}
	l.mu.Unlock()
	return e
}

// After returns up to limit events with sequence > after, in sequence
// order (limit <= 0 means all). The returned slice is a copy-free view
// of the append-only history.
func (l *Log) After(after uint64, limit int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after >= uint64(len(l.events)) {
		return nil
	}
	out := l.events[after:]
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out[:len(out):len(out)]
}

// Epoch returns the epoch the log was created under.
func (l *Log) Epoch() uint64 { return l.epoch }

// Len returns the sequence number of the newest event (0 when empty).
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.events))
}

// Subscribe registers a wakeup channel: it receives (capacity 1,
// non-blocking send) whenever events are appended. Consumers read the
// actual events with After from their own cursor, so a coalesced signal
// never loses anything. cancel unregisters; always call it.
func (l *Log) Subscribe() (sig <-chan struct{}, cancel func()) {
	ch := make(chan struct{}, 1)
	l.mu.Lock()
	l.subs[ch] = struct{}{}
	l.mu.Unlock()
	return ch, func() {
		l.mu.Lock()
		delete(l.subs, ch)
		l.mu.Unlock()
	}
}

// Done is closed when the log is sealed — the tail-termination signal.
func (l *Log) Done() <-chan struct{} { return l.done }

// Close seals the log: Done() closes and every subscriber is woken so
// live tails drain their remaining events and disconnect. History stays
// readable; Close is idempotent.
func (l *Log) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.done)
		for ch := range l.subs {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
	l.mu.Unlock()
}
