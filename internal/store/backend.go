package store

import (
	"io"
	"iter"
)

// Reader is the query surface of an observation database — everything the
// analysis pipeline, the figures and the HTTP stats endpoint consume. It
// is satisfied by both engines (memory and durable); code that only reads
// should ask for a Reader so it can run over a live store or a dataset
// recovered read-only from disk.
type Reader interface {
	// Len counts all observations; LenOK only successful extractions.
	Len() int
	LenOK() int
	// LenSource counts one campaign source's observations and how many of
	// them carry a successfully extracted price.
	LenSource(source string) (total, ok int)
	// LenVP counts observations recorded from one vantage point.
	LenVP(vp string) int
	// Scan streams matching observations in insertion order.
	Scan(q Query) iter.Seq[Observation]
	// ScanRange streams matching observations with sequence numbers in
	// (after, upto], each with its sequence — the windowed scan the HTTP
	// layer pages and streams on.
	ScanRange(q Query, after, upto uint64) iter.Seq2[uint64, Observation]
	// Watermark is the largest sequence with every observation at or
	// below it applied and folded; (cursor, Watermark] is the stable
	// read window under concurrent appends.
	Watermark() uint64
	// Filter returns matching observations in insertion order.
	Filter(q Query) []Observation
	// Domains returns the distinct domains observed, sorted.
	Domains() []string
	// Products returns a domain's distinct product keys, sorted by SKU.
	Products(domain string) []Key
	// Groups streams one product group at a time (restricted to one
	// source when source != ""); yielded slices are read-only views.
	Groups(source string) iter.Seq2[Key, []Observation]
	// DomainGroups streams one domain's product groups.
	DomainGroups(domain, source string) iter.Seq2[Key, []Observation]
	// WriteJSONL serializes the dataset as JSON Lines in insertion order.
	WriteJSONL(w io.Writer) error
}

// Backend is the pluggable observation database: the Reader query surface
// plus the write path every campaign feeds. Two implementations exist —
// the in-memory sharded engine (*Store) and the durable engine (*Durable)
// that layers a per-shard write-ahead log and segmented snapshots under
// the same semantics. Both yield identical query results and identical
// JSONL bytes for the same sequence of adds.
type Backend interface {
	Reader
	// AddAll appends a batch, preserving batch order. Append a crawl
	// product-round (see SameProductRound) in one AddAll: the analysis
	// fold judges strategy verdicts where a product-round ends, so a
	// split one is still folded exactly but judged at the split too.
	AddAll(os []Observation)
	// SetObserver installs the write-path observer: fn receives every
	// applied batch in sequence order, inside the writer's turn — after
	// its rows are visible to readers, before the watermark passes them.
	// fn must not write to the store. Install before concurrent writers
	// start; nil removes it.
	SetObserver(fn Observer)
}

// Both engines implement the full Backend contract.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Durable)(nil)
)
