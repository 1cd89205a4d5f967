package store

import (
	"io"
	"iter"
	"sync"
	"testing"
)

// newBackendFunc builds one fresh, empty backend for a test run.
type newBackendFunc func(t *testing.T) Backend

// runBackends runs a test body once per Backend implementation: the
// in-memory engine, the durable engine on a temp data directory, and a
// replicated pair whose reads come from a follower synced through the
// Chunks/ApplyAt replication path. The durable run closes the store
// at cleanup and fails the test on any sticky write error, so every
// matrixed test doubles as a durability smoke test; the replica run
// makes every matrixed test assert that a caught-up follower answers
// queries exactly like the engine it follows.
func runBackends(t *testing.T, fn func(t *testing.T, newBackend newBackendFunc)) {
	t.Run("memory", func(t *testing.T) {
		fn(t, func(t *testing.T) Backend { return New() })
	})
	t.Run("durable", func(t *testing.T) {
		fn(t, func(t *testing.T) Backend {
			d, _, err := OpenDurable(t.TempDir(), DurableOptions{Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("open durable: %v", err)
			}
			t.Cleanup(func() {
				if err := d.Close(); err != nil {
					t.Errorf("close durable: %v", err)
				}
			})
			return d
		})
	})
	t.Run("replica", func(t *testing.T) {
		fn(t, func(t *testing.T) Backend {
			return &replicaBackend{primary: New(), follower: New()}
		})
	})
}

// replicaBackend is a primary/follower pair behind the Backend contract:
// writes land on the primary, each write synchronously pumps the new
// rows to the follower over the replication path, and every read is
// answered by the follower. The pump serializes on mu — the follower has
// one applier, matching the real stream's single connection.
type replicaBackend struct {
	mu       sync.Mutex
	primary  *Store
	follower *Store
	cursor   uint64
}

func (rb *replicaBackend) AddAll(os []Observation) {
	rb.primary.AddAll(os)
	rb.mu.Lock()
	defer rb.mu.Unlock()
	upto := rb.primary.Watermark()
	for seqs, obs := range Chunks(rb.primary.ScanRange(Query{Round: -1}, rb.cursor, upto)) {
		if err := rb.follower.ApplyAt(seqs, obs); err != nil {
			panic("replicaBackend: " + err.Error())
		}
	}
	rb.cursor = upto
}

// SetObserver installs the hook on the follower: derived state hangs off
// the engine that serves reads, exactly as on a real follower.
func (rb *replicaBackend) SetObserver(fn Observer) { rb.follower.SetObserver(fn) }

func (rb *replicaBackend) Len() int                           { return rb.follower.Len() }
func (rb *replicaBackend) LenOK() int                         { return rb.follower.LenOK() }
func (rb *replicaBackend) LenSource(source string) (int, int) { return rb.follower.LenSource(source) }
func (rb *replicaBackend) LenVP(vp string) int                { return rb.follower.LenVP(vp) }
func (rb *replicaBackend) Scan(q Query) iter.Seq[Observation] { return rb.follower.Scan(q) }
func (rb *replicaBackend) ScanRange(q Query, after, upto uint64) iter.Seq2[uint64, Observation] {
	return rb.follower.ScanRange(q, after, upto)
}
func (rb *replicaBackend) Watermark() uint64            { return rb.follower.Watermark() }
func (rb *replicaBackend) Filter(q Query) []Observation { return rb.follower.Filter(q) }
func (rb *replicaBackend) Domains() []string            { return rb.follower.Domains() }
func (rb *replicaBackend) Products(domain string) []Key { return rb.follower.Products(domain) }
func (rb *replicaBackend) Groups(source string) iter.Seq2[Key, []Observation] {
	return rb.follower.Groups(source)
}
func (rb *replicaBackend) DomainGroups(domain, source string) iter.Seq2[Key, []Observation] {
	return rb.follower.DomainGroups(domain, source)
}
func (rb *replicaBackend) WriteJSONL(w io.Writer) error { return rb.follower.WriteJSONL(w) }
