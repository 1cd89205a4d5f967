package tenant

// Durability for the registry, through the store's own durable-file
// code at tenancy scale: an atomic snapshot (TENANTS.json, committed by
// store.ReplaceFile like the manifest) plus a write-ahead journal
// (tenant-wal.log) of every mutation since the snapshot, framed by
// store.SealFrame and split by store.NextFrame like the observation WAL.
// Recovery restores the snapshot and replays the journal, tolerating a
// torn tail exactly like the WAL: stop at the first bad frame, truncate
// it away, keep everything before it. Because both sides share the
// store's frame limit, append refuses any record replay would reject.
// The journal checkpoints (snapshot rewrite + truncate) every
// journalCheckpointEvery mutations and at Close, so the journal stays
// bounded by checkpoint cadence, not uptime.
//
// A frame is an 8-byte header — payload length then CRC-32C (Castagnoli)
// of the payload, both little-endian uint32 — followed by a JSON mutation
// record.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"sheriff/internal/store"
)

const (
	// snapshotFile and journalFile live inside the data directory,
	// alongside (and invisible to) the observation engine's manifest,
	// segments and WAL.
	snapshotFile = "TENANTS.json"
	journalFile  = "tenant-wal.log"

	// journalCheckpointEvery is the mutation count that triggers a
	// checkpoint.
	journalCheckpointEvery = 256
)

// mutation is one journaled state change: the full post-image of the
// touched tenant or campaign (replace-by-value, so replay is idempotent)
// plus the registry counters after applying it.
type mutation struct {
	// V is the registry version after this mutation.
	V uint64 `json:"v"`
	// TS and CS are the tenant and campaign ID counters after it.
	TS uint64 `json:"ts"`
	CS uint64 `json:"cs"`

	Tenant   *Tenant   `json:"tenant,omitempty"`
	Campaign *Campaign `json:"campaign,omitempty"`
}

// journal is the open write-ahead file plus checkpoint bookkeeping.
type journal struct {
	dir string
	f   *os.File
	// mutations counts appends since the last checkpoint.
	mutations int
}

// Open loads (or creates) a journaled registry rooted at dir: restore
// the snapshot if one exists, replay journal mutations on top, truncate
// any torn tail, and keep the journal open for appends. The directory
// may be (and in sheriffd is) the durable store's data dir — the file
// names are disjoint from the observation engine's.
func Open(dir string, opts Options) (*Registry, error) {
	r := NewRegistry(opts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: create dir: %w", err)
	}

	snapPath := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(snapPath)
	switch {
	case err == nil:
		var st State
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, fmt.Errorf("tenant: parse %s: %w", snapshotFile, err)
		}
		r.restoreLocked(st)
	case errors.Is(err, fs.ErrNotExist):
		// Fresh directory: empty registry.
	default:
		return nil, fmt.Errorf("tenant: read %s: %w", snapshotFile, err)
	}

	jpath := filepath.Join(dir, journalFile)
	replayed, goodLen, discarded, err := replayJournal(jpath, r.applyLocked)
	if err != nil {
		return nil, err
	}
	// 0600: the journal carries key hashes and the claims ledger —
	// credential-adjacent material no other local user needs to read.
	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("tenant: open journal: %w", err)
	}
	// Tighten journals created by earlier builds: O_CREATE only sets the
	// mode on creation.
	if err := f.Chmod(0o600); err != nil {
		f.Close()
		return nil, fmt.Errorf("tenant: chmod journal: %w", err)
	}
	if discarded > 0 {
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("tenant: truncate torn journal tail: %w", err)
		}
		r.logf("tenant: discarded %d bytes of torn journal tail", discarded)
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tenant: seek journal: %w", err)
	}
	r.jr = &journal{dir: dir, f: f, mutations: replayed}
	if replayed > 0 {
		r.logf("tenant: replayed %d journal mutations (version %d, %d tenants, %d campaigns)",
			replayed, r.version, len(r.tenants), len(r.campaigns))
	}
	return r, nil
}

// replayJournal applies every intact frame of the journal in order and
// reports how many it applied, the byte length of the intact prefix, and
// how many trailing bytes a torn or corrupt tail discards. A missing
// file is an empty journal.
func replayJournal(path string, apply func(mutation)) (count int, goodLen int64, discarded int, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("tenant: read journal: %w", err)
	}
	rest := data
	for {
		payload, next, err := store.NextFrame(rest)
		if err != nil {
			break
		}
		var m mutation
		if err := json.Unmarshal(payload, &m); err != nil {
			break
		}
		apply(m)
		count++
		rest = next
	}
	return count, int64(len(data) - len(rest)), len(rest), nil
}

// applyLocked folds one replayed mutation into the registry maps.
// Replace-by-value: the record carries the touched entity's full
// post-image, so applying a prefix of the journal always lands on a
// state the registry actually passed through.
func (r *Registry) applyLocked(m mutation) {
	r.version = m.V
	r.tenantSeq, r.campaignSeq = m.TS, m.CS
	if m.Tenant != nil {
		t := *m.Tenant
		if old, ok := r.tenants[t.ID]; ok {
			delete(r.byHash, old.KeyHash)
		}
		r.tenants[t.ID] = &t
		r.byHash[t.KeyHash] = t.ID
	}
	if m.Campaign != nil {
		c := m.Campaign.clone()
		r.campaigns[c.ID] = &c
	}
}

// commitLocked assigns the mutation its version and durably appends it.
// Callers hold r.mu and roll their map changes back on error. Memory-only
// registries just bump the version.
func (r *Registry) commitLocked(m mutation) error {
	r.version++
	m.V = r.version
	m.TS, m.CS = r.tenantSeq, r.campaignSeq
	if r.jr == nil {
		return nil
	}
	if err := r.jr.append(m); err != nil {
		r.version--
		return err
	}
	if r.jr.mutations >= journalCheckpointEvery {
		// A failed checkpoint is not fatal — the journal still holds
		// every mutation. The counter stays put (checkpoint zeroes it
		// only on success), so the very next append retries instead of
		// deferring another full threshold while the journal grows.
		if err := r.jr.checkpoint(r.snapshotLocked()); err != nil {
			r.logf("tenant: checkpoint: %v", err)
		}
	}
	return nil
}

// append frames and fsyncs one mutation. Admin mutations are rare and
// claims are one-per-work-unit, so an fsync per record is cheap
// insurance against losing an issued API key to a crash.
func (j *journal) append(m mutation) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("tenant: encode mutation: %w", err)
	}
	frame := append(make([]byte, store.FrameHeaderSize, store.FrameHeaderSize+len(payload)), payload...)
	if err := store.SealFrame(frame); err != nil {
		return fmt.Errorf("tenant: append journal: %w", err)
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("tenant: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("tenant: sync journal: %w", err)
	}
	j.mutations++
	return nil
}

// checkpoint atomically rewrites the snapshot and truncates the journal.
// A crash leaves either the old snapshot (plus the journal that rebuilds
// past it) or the new one, never a torn file.
func (j *journal) checkpoint(st State) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("tenant: encode snapshot: %w", err)
	}
	// 0600 like the journal: the snapshot holds every tenant's key hash.
	if err := store.ReplaceFile(filepath.Join(j.dir, snapshotFile), append(data, '\n'), 0o600); err != nil {
		return fmt.Errorf("tenant: write snapshot: %w", err)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("tenant: truncate journal: %w", err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return fmt.Errorf("tenant: rewind journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("tenant: sync truncated journal: %w", err)
	}
	j.mutations = 0
	return nil
}

// Close checkpoints the state and releases the journal; memory-only
// registries no-op. The registry must not be mutated after Close.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jr == nil {
		return nil
	}
	ckErr := r.jr.checkpoint(r.snapshotLocked())
	closeErr := r.jr.f.Close()
	r.jr = nil
	if ckErr != nil {
		return ckErr
	}
	return closeErr
}
