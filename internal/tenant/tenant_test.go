package tenant

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sheriff/internal/store"
)

// fakeClock is an injectable registry clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestCreateAndAuthenticate(t *testing.T) {
	r := NewRegistry(Options{})
	if r.Enabled() {
		t.Fatal("empty registry reports Enabled")
	}

	tn, key, err := r.CreateTenant("alice", RoleContributor, 0, 0)
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	if tn.ID != "t-000001" {
		t.Fatalf("first tenant ID = %q, want t-000001", tn.ID)
	}
	if key == "" || tn.KeyHash != HashKey(key) {
		t.Fatalf("key %q does not hash to stored KeyHash %q", key, tn.KeyHash)
	}
	if !r.Enabled() {
		t.Fatal("registry with a tenant reports disabled")
	}

	got, ok := r.Authenticate(key)
	if !ok || got.ID != tn.ID {
		t.Fatalf("Authenticate(minted key) = %+v, %v", got, ok)
	}
	if _, ok := r.Authenticate("sk_wrong"); ok {
		t.Fatal("Authenticate accepted an unknown key")
	}
}

func TestCreateTenantValidation(t *testing.T) {
	r := NewRegistry(Options{})
	if _, _, err := r.CreateTenant("", RoleContributor, 0, 0); err == nil {
		t.Error("empty name accepted")
	}
	if _, _, err := r.CreateTenant("x", Role("superuser"), 0, 0); err == nil {
		t.Error("bad role accepted")
	}
	if _, err := r.CreateTenantWithKey("x", RoleAdmin, "", 0, 0); err == nil {
		t.Error("empty explicit key accepted")
	}
}

func TestCreateTenantWithKeyDuplicate(t *testing.T) {
	r := NewRegistry(Options{})
	a, err := r.CreateTenantWithKey("admin", RoleAdmin, "sk_boot", 0, 0)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	// Same key again is ErrKeyExists, never a silent success that hands
	// back someone else's identity — a re-bootstrap (sheriffd restart
	// with the same -admin-key) detects this case and verifies the
	// existing tenant itself; the HTTP handler maps it to 409.
	if _, err := r.CreateTenantWithKey("intruder", RoleContributor, "sk_boot", 0, 0); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("duplicate key: %v, want ErrKeyExists", err)
	}
	if got := len(r.Tenants()); got != 1 {
		t.Fatalf("duplicate key minted a tenant: %d tenants", got)
	}
	// The original registration is untouched.
	tn, ok := r.Authenticate("sk_boot")
	if !ok || tn.ID != a.ID || tn.Role != RoleAdmin {
		t.Fatalf("Authenticate after collision = %+v, %v", tn, ok)
	}
}

func TestRoleCovers(t *testing.T) {
	cases := []struct {
		have, need Role
		want       bool
	}{
		{RoleAdmin, RoleAdmin, true},
		{RoleAdmin, RoleContributor, true},
		{RoleContributor, RoleContributor, true},
		{RoleContributor, RoleAdmin, false},
	}
	for _, c := range cases {
		if got := c.have.Covers(c.need); got != c.want {
			t.Errorf("%s.Covers(%s) = %v, want %v", c.have, c.need, got, c.want)
		}
	}
}

func TestQuotaBucket(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(Options{Now: clk.now})
	tn, _, err := r.CreateTenant("bob", RoleContributor, 1, 2) // 1 rps, burst 2
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}

	// Burst drains, then the bucket denies with a refill hint.
	for i := 0; i < 2; i++ {
		if ok, _ := r.Allow(tn.ID); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := r.Allow(tn.ID)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("refill hint %v, want (0s, 1s]", wait)
	}
	if r.QuotaDenied() != 1 {
		t.Fatalf("QuotaDenied = %d, want 1", r.QuotaDenied())
	}

	// One second refills one token.
	clk.advance(time.Second)
	if ok, _ := r.Allow(tn.ID); !ok {
		t.Fatal("request after refill denied")
	}

	// No quota configured = unlimited.
	free, _, _ := r.CreateTenant("carol", RoleContributor, 0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := r.Allow(free.ID); !ok {
			t.Fatalf("unlimited tenant denied at request %d", i)
		}
	}
	// Unknown tenants pass too (the server never blocks on a stale ID).
	if ok, _ := r.Allow("t-999999"); !ok {
		t.Fatal("unknown tenant denied")
	}
}

func TestCampaignLifecycle(t *testing.T) {
	r := NewRegistry(Options{})
	c, err := r.CreateCampaign("sweep", []string{"a.com", "b.com"}, 2, 0, "t-000001")
	if err != nil {
		t.Fatalf("CreateCampaign: %v", err)
	}
	if c.ID != "c-000001" || c.State != StateDraft || c.TotalUnits() != 4 {
		t.Fatalf("draft = %+v", c)
	}

	// Draft campaigns hand out nothing.
	if _, err := r.ClaimUnit(c.ID, "t-000001"); !errors.Is(err, ErrConflict) {
		t.Fatalf("claim on draft: %v, want ErrConflict", err)
	}

	if _, err := r.Activate(c.ID); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	// Activating twice conflicts.
	if _, err := r.Activate(c.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("double Activate: %v, want ErrConflict", err)
	}

	// Units walk domains round-robin: a,b in round 0 then a,b in round 1.
	wantDomains := []string{"a.com", "b.com", "a.com", "b.com"}
	wantRounds := []int{0, 0, 1, 1}
	for i := 0; i < 4; i++ {
		cl, err := r.ClaimUnit(c.ID, "t-000001")
		if err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		if cl.Unit != i || cl.Domain != wantDomains[i] || cl.Round != wantRounds[i] || cl.Remaining != 3-i {
			t.Fatalf("claim %d = %+v", i, cl)
		}
	}

	// Last unit flipped it to done; further claims report Done.
	got, _ := r.Campaign(c.ID)
	if got.State != StateDone {
		t.Fatalf("state after final claim = %q, want done", got.State)
	}
	cl, err := r.ClaimUnit(c.ID, "t-000001")
	if err != nil || !cl.Done {
		t.Fatalf("claim on done = %+v, %v", cl, err)
	}

	if _, err := r.ClaimUnit("c-404", "t-000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("claim on missing campaign: %v, want ErrNotFound", err)
	}
}

func TestCampaignPerTenantQuota(t *testing.T) {
	r := NewRegistry(Options{})
	c, err := r.CreateCampaign("fair", []string{"a.com"}, 4, 2, "")
	if err != nil {
		t.Fatalf("CreateCampaign: %v", err)
	}
	if _, err := r.Activate(c.ID); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.ClaimUnit(c.ID, "t-1"); err != nil {
			t.Fatalf("t-1 claim %d: %v", i, err)
		}
	}
	if _, err := r.ClaimUnit(c.ID, "t-1"); !errors.Is(err, ErrQuota) {
		t.Fatalf("t-1 over quota: %v, want ErrQuota", err)
	}
	// Another tenant still gets units.
	if _, err := r.ClaimUnit(c.ID, "t-2"); err != nil {
		t.Fatalf("t-2 claim: %v", err)
	}
}

func TestCampaignValidation(t *testing.T) {
	r := NewRegistry(Options{})
	if _, err := r.CreateCampaign("", []string{"a"}, 1, 0, ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.CreateCampaign("x", nil, 1, 0, ""); err == nil {
		t.Error("no domains accepted")
	}
	if _, err := r.CreateCampaign("x", []string{"a"}, 0, 0, ""); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := r.CreateCampaign("x", []string{"a"}, 1, -1, ""); err == nil {
		t.Error("negative quota accepted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := NewRegistry(Options{})
	_, key, _ := r.CreateTenant("alice", RoleAdmin, 5, 10)
	c, _ := r.CreateCampaign("sweep", []string{"a.com"}, 3, 0, "t-000001")
	r.Activate(c.ID)
	r.ClaimUnit(c.ID, "t-000001")

	follower := NewRegistry(Options{})
	follower.Restore(r.Snapshot())

	// Keys authenticate on the restored side (hash travels, plaintext
	// never does).
	if _, ok := follower.Authenticate(key); !ok {
		t.Fatal("restored registry rejects the primary's key")
	}
	if follower.Version() != r.Version() {
		t.Fatalf("versions diverge: %d vs %d", follower.Version(), r.Version())
	}
	got, ok := follower.Campaign(c.ID)
	if !ok || got.NextUnit != 1 || got.Claims["t-000001"] != 1 {
		t.Fatalf("restored campaign = %+v, %v", got, ok)
	}

	// Sequences restore too: new IDs continue, not collide.
	follower.CreateCampaign("next", []string{"b.com"}, 1, 0, "")
	if got, _ := follower.Campaign("c-000002"); got.Name != "next" {
		t.Fatalf("post-restore campaign seq wrong: %+v", got)
	}
}

func TestJournalPersistence(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_, key, err := r.CreateTenant("alice", RoleContributor, 2, 4)
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	c, _ := r.CreateCampaign("sweep", []string{"a.com", "b.com"}, 1, 0, "")
	r.Activate(c.ID)
	r.ClaimUnit(c.ID, "t-000001")
	version := r.Version()

	// Crash path: abandon the registry without Close, so recovery rides
	// the journal alone (no final checkpoint).
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if r2.Version() != version {
		t.Fatalf("recovered version %d, want %d", r2.Version(), version)
	}
	if _, ok := r2.Authenticate(key); !ok {
		t.Fatal("recovered registry rejects the issued key")
	}
	got, ok := r2.Campaign(c.ID)
	if !ok || got.State != StateActive || got.NextUnit != 1 {
		t.Fatalf("recovered campaign = %+v, %v", got, ok)
	}

	// Clean path: Close checkpoints (journal truncates to zero), reopen
	// recovers the same state from the snapshot.
	if err := r2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after Close: %v, size %d (want 0)", err, fi.Size())
	}
	r3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer r3.Close()
	if r3.Version() != version {
		t.Fatalf("snapshot-recovered version %d, want %d", r3.Version(), version)
	}
	if _, ok := r3.Authenticate(key); !ok {
		t.Fatal("snapshot-recovered registry rejects the issued key")
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := r.CreateTenantWithKey("alice", RoleContributor, "sk_a", 0, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := r.CreateTenantWithKey("bob", RoleContributor, "sk_b", 0, 0); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Tear the last frame mid-payload, as a crash mid-write would.
	jpath := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if err := os.WriteFile(jpath, data[:len(data)-5], 0o644); err != nil {
		t.Fatalf("tear journal: %v", err)
	}

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	defer r2.Close()
	// Alice survived; bob's frame was torn away.
	if _, ok := r2.Authenticate("sk_a"); !ok {
		t.Fatal("intact prefix lost")
	}
	if _, ok := r2.Authenticate("sk_b"); ok {
		t.Fatal("torn frame replayed")
	}
	// The tail was truncated: appends go to a clean journal.
	if _, err := r2.CreateTenantWithKey("carol", RoleContributor, "sk_c", 0, 0); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	r2.Close()
	r3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r3.Close()
	if _, ok := r3.Authenticate("sk_c"); !ok {
		t.Fatal("post-truncate append lost")
	}
}

func TestJournalCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c, _ := r.CreateCampaign("big", []string{"a.com"}, journalCheckpointEvery+8, 0, "")
	r.Activate(c.ID)
	// Enough claims to cross the checkpoint threshold.
	for i := 0; i < journalCheckpointEvery+2; i++ {
		if _, err := r.ClaimUnit(c.ID, "t-x"); err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
	}
	// The journal was truncated by the mid-run checkpoint: far fewer
	// frames than mutations remain.
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatalf("stat journal: %v", err)
	}
	if fi.Size() > int64(journalCheckpointEvery*store.FrameHeaderSize*8) {
		t.Fatalf("journal grew unbounded: %d bytes after checkpoint threshold", fi.Size())
	}
	// Crash-reopen still lands on the exact post-claim state.
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	got, _ := r2.Campaign(c.ID)
	if got.NextUnit != journalCheckpointEvery+2 {
		t.Fatalf("recovered NextUnit = %d, want %d", got.NextUnit, journalCheckpointEvery+2)
	}
}

func TestJournalFilePermissions(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := r.CreateTenantWithKey("alice", RoleContributor, "sk_a", 0, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := r.Close(); err != nil { // Close checkpoints, writing the snapshot
		t.Fatalf("Close: %v", err)
	}
	// Both files hold key hashes (and the claims ledger): no other local
	// user gets to read credential digests for offline cracking.
	for _, name := range []string{journalFile, snapshotFile} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("stat %s: %v", name, err)
		}
		if perm := fi.Mode().Perm(); perm != 0o600 {
			t.Errorf("%s mode = %o, want 600", name, perm)
		}
	}
	// A journal created world-readable by an earlier build tightens on
	// reopen.
	jpath := filepath.Join(dir, journalFile)
	if err := os.Chmod(jpath, 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Errorf("reopened journal mode = %o, want 600", perm)
	}
}

func TestJournalCheckpointFailureRetries(t *testing.T) {
	dir := t.TempDir()
	var notes []string
	r, err := Open(dir, Options{Logf: func(f string, a ...any) {
		notes = append(notes, fmt.Sprintf(f, a...))
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	c, _ := r.CreateCampaign("big", []string{"a.com"}, journalCheckpointEvery*4, 0, "")
	r.Activate(c.ID)

	// Break checkpointing: the snapshot tmp lands in a directory that
	// does not exist. Appends still succeed (the journal file handle is
	// open), so mutations keep committing while every checkpoint fails.
	r.jr.dir = filepath.Join(dir, "gone")
	for i := 0; i < journalCheckpointEvery+3; i++ {
		if _, err := r.ClaimUnit(c.ID, "t-x"); err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
	}
	// The counter must NOT reset on failure: each failed attempt leaves
	// it at/above the threshold so the next append retries, rather than
	// deferring by a further 256 mutations per failure while the journal
	// grows unboundedly.
	if r.jr.mutations < journalCheckpointEvery {
		t.Fatalf("mutations = %d after failed checkpoints, want >= %d (failure must not clear the counter)",
			r.jr.mutations, journalCheckpointEvery)
	}
	if len(notes) < 3 {
		t.Fatalf("expected a checkpoint-failure note per append past the threshold, got %d: %v", len(notes), notes)
	}

	// Heal the directory: the very next mutation checkpoints and
	// truncates the journal.
	r.jr.dir = dir
	if _, err := r.ClaimUnit(c.ID, "t-x"); err != nil {
		t.Fatalf("claim after heal: %v", err)
	}
	if r.jr.mutations != 0 {
		t.Fatalf("mutations = %d after healed checkpoint, want 0", r.jr.mutations)
	}
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatalf("stat journal: %v", err)
	}
	if fi.Size() != 0 {
		t.Fatalf("journal size = %d after healed checkpoint, want 0", fi.Size())
	}
}

// TestJournalFormatPin pins the on-disk tenancy format independently of
// the code that writes it: a TENANTS.json snapshot and a tenant-wal.log
// written by hand (uint32 LE payload length, uint32 LE CRC-32C of the
// payload, then json.Marshal of the mutation), followed by a torn frame,
// reopen to the exact state the snapshot plus the intact frames describe,
// and the torn bytes are cut away.
func TestJournalFormatPin(t *testing.T) {
	dir := t.TempDir()
	created := time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)
	alice := Tenant{ID: "t-000001", Name: "alice", Role: RoleAdmin, KeyHash: "aa11", Created: created}
	bob := Tenant{ID: "t-000002", Name: "bob", Role: RoleContributor, KeyHash: "bb22",
		QuotaRate: 2, QuotaBurst: 4, Created: created.Add(time.Hour)}
	draft := Campaign{ID: "c-000001", Name: "sweep", Domains: []string{"a.com", "b.com"}, Rounds: 2,
		State: StateDraft, CreatedBy: "t-000001", Created: created.Add(2 * time.Hour)}
	claimed := draft
	claimed.State, claimed.NextUnit, claimed.Claims = StateActive, 1, map[string]int{"t-000002": 1}

	snap := State{Version: 2, TenantSeq: 1, CampaignSeq: 1, Tenants: []Tenant{alice}, Campaigns: []Campaign{draft}}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), append(data, '\n'), 0o600); err != nil {
		t.Fatal(err)
	}
	var journal []byte
	for _, m := range []mutation{
		{V: 3, TS: 2, CS: 1, Tenant: &bob},
		{V: 4, TS: 2, CS: 1, Campaign: &claimed},
	} {
		payload, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		journal = binary.LittleEndian.AppendUint32(journal, uint32(len(payload)))
		journal = binary.LittleEndian.AppendUint32(journal, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		journal = append(journal, payload...)
	}
	intact := len(journal)
	journal = append(journal, 0x10, 0, 0, 0, 0xde, 0xad) // a torn header
	if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o600); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := State{Version: 4, TenantSeq: 2, CampaignSeq: 1, Tenants: []Tenant{alice, bob}, Campaigns: []Campaign{claimed}}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened state\n got %+v\nwant %+v", got, want)
	}
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(intact) {
		t.Fatalf("journal is %d bytes after reopen, want the %d intact bytes", fi.Size(), intact)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
