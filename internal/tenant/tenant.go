// Package tenant is the identity and tenancy layer: named tenants
// holding hashed API keys and roles, per-tenant token-bucket request
// quotas, and the campaign subsystem that hands contributors their next
// work unit. The paper's §5 deployment is a crowd of *identified*
// contributors earning rewards, not anonymous IPs — the registry is what
// turns raw observations into per-tenant contribution ledgers.
//
// The registry is a small, mutex-guarded state machine. Every mutation
// bumps a version counter; the full state snapshots into a single JSON
// value (State) that followers poll and restore, and that the journal
// checkpoints to disk (see journal.go). Keys are stored only as SHA-256
// hashes: the plaintext is returned exactly once, at creation.
package tenant

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Role grades what a tenant's key may do.
type Role string

const (
	// RoleAdmin manages tenants and campaigns; it covers everything a
	// contributor may do.
	RoleAdmin Role = "admin"
	// RoleContributor submits checks and claims campaign work units.
	RoleContributor Role = "contributor"
)

// Valid reports whether r is a known role.
func (r Role) Valid() bool { return r == RoleAdmin || r == RoleContributor }

// Covers reports whether a tenant holding r satisfies an endpoint that
// requires need. Admin covers contributor; roles otherwise match exactly.
func (r Role) Covers(need Role) bool { return r == need || r == RoleAdmin }

// Tenant is one identified crowd member. KeyHash is the hex SHA-256 of
// the API key; the plaintext is never stored.
type Tenant struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Role    Role   `json:"role"`
	KeyHash string `json:"key_hash"`
	// QuotaRate and QuotaBurst shape the tenant's request token bucket
	// (requests/second, bucket depth). Rate <= 0 means unlimited.
	QuotaRate  float64   `json:"quota_rate,omitempty"`
	QuotaBurst int       `json:"quota_burst,omitempty"`
	Created    time.Time `json:"created"`
}

// Campaign states: campaigns are created as drafts, activated to accept
// claims, and flip to done when the last work unit is handed out.
const (
	StateDraft  = "draft"
	StateActive = "active"
	StateDone   = "done"
)

// Campaign is a server-orchestrated probing schedule: Rounds passes over
// Domains, cut into len(Domains)×Rounds work units that contributors
// claim one at a time. Unit i targets Domains[i % len(Domains)] in round
// i / len(Domains), so each round visits every domain once before the
// next begins.
type Campaign struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Domains []string `json:"domains"`
	Rounds  int      `json:"rounds"`
	// PerTenantQuota caps how many units one tenant may claim (the
	// paper's reward-fairness angle); 0 means uncapped.
	PerTenantQuota int       `json:"per_tenant_quota,omitempty"`
	State          string    `json:"state"`
	CreatedBy      string    `json:"created_by,omitempty"`
	Created        time.Time `json:"created"`
	// NextUnit is the next unclaimed unit index; Claims counts units
	// handed to each tenant.
	NextUnit int            `json:"next_unit"`
	Claims   map[string]int `json:"claims,omitempty"`
}

// TotalUnits is the campaign's work-unit count.
func (c *Campaign) TotalUnits() int { return len(c.Domains) * c.Rounds }

// Unit maps a unit index to its target domain and round.
func (c *Campaign) Unit(i int) (domain string, round int) {
	return c.Domains[i%len(c.Domains)], i / len(c.Domains)
}

// Claim is the outcome of one claim call: either Done (no work left) or
// the unit the caller now owns plus how many units remain after it.
type Claim struct {
	CampaignID string `json:"campaign_id"`
	Done       bool   `json:"done"`
	Unit       int    `json:"unit,omitempty"`
	Domain     string `json:"domain,omitempty"`
	Round      int    `json:"round,omitempty"`
	Remaining  int    `json:"remaining"`
}

// State is the registry's full replicable snapshot: what followers
// restore and the journal checkpoints.
type State struct {
	Version     uint64     `json:"version"`
	TenantSeq   uint64     `json:"tenant_seq"`
	CampaignSeq uint64     `json:"campaign_seq"`
	Tenants     []Tenant   `json:"tenants"`
	Campaigns   []Campaign `json:"campaigns"`
}

// Stats is the registry's "tenancy" block of /api/v1/stats.
type Stats struct {
	Tenants         int    `json:"tenants"`
	Campaigns       int    `json:"campaigns"`
	ActiveCampaigns int    `json:"active_campaigns"`
	Version         uint64 `json:"version"`
	// QuotaDenied counts requests rejected by per-tenant buckets. Kept
	// separate from the per-IP limiter's counter so anonymous-mode stats
	// bodies stay byte-identical.
	QuotaDenied uint64 `json:"quota_denied"`
}

// Registry errors, mapped to typed API envelopes by the server.
var (
	// ErrNotFound: no tenant or campaign with that ID.
	ErrNotFound = errors.New("tenant: not found")
	// ErrConflict: the mutation is invalid against the resource's current
	// state (activating a non-draft, claiming a draft).
	ErrConflict = errors.New("tenant: state conflict")
	// ErrQuota: the tenant exhausted its per-tenant campaign allowance.
	ErrQuota = errors.New("tenant: quota exhausted")
	// ErrKeyExists: the requested API key already maps to a tenant. The
	// HTTP surface answers it 409 — silently returning the existing
	// tenant would ignore the requested name/role/quotas and turn the
	// endpoint into a key-membership oracle.
	ErrKeyExists = errors.New("tenant: key already registered")
)

// Options configures a registry.
type Options struct {
	// Now supplies the clock for Created stamps and quota refill;
	// defaults to time.Now. Tests inject a fake.
	Now func() time.Time
	// Logf receives recovery and checkpoint notes; nil discards.
	Logf func(format string, args ...any)
}

// Bucket is a request token bucket: it refills continuously at a rate in
// tokens per second up to a depth, and each request takes one token. The
// per-tenant quotas and the API layer's per-address rate limiter both
// meter with it.
type Bucket struct {
	tokens float64
	last   time.Time
}

// NewBucket returns a bucket holding depth tokens as of now.
func NewBucket(depth float64, now time.Time) *Bucket {
	return &Bucket{tokens: depth, last: now}
}

// Take refills the bucket for the time since its last use at rate tokens
// per second, capped at depth, then debits one token. A false return
// carries how long until the next token accrues.
func (b *Bucket) Take(now time.Time, rate, depth float64) (bool, time.Duration) {
	b.tokens = min(b.tokens+now.Sub(b.last).Seconds()*rate, depth)
	b.last = now
	if b.tokens < 1 {
		return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
	}
	b.tokens--
	return true, 0
}

// Idle reports how long the bucket has gone unused as of now.
func (b *Bucket) Idle(now time.Time) time.Duration { return now.Sub(b.last) }

// Registry holds the tenancy state. Safe for concurrent use.
type Registry struct {
	now  func() time.Time
	logf func(string, ...any)

	mu          sync.Mutex
	version     uint64
	tenantSeq   uint64
	campaignSeq uint64
	tenants     map[string]*Tenant
	byHash      map[string]string // key hash → tenant ID
	campaigns   map[string]*Campaign
	buckets     map[string]*Bucket

	quotaDenied atomic.Uint64

	jr *journal // nil on memory-only registries (followers, tests)
}

// NewRegistry returns a memory-only registry: state lives until the
// process exits. Followers run one of these and restore replicated
// snapshots into it; primaries without a data dir use it directly.
func NewRegistry(opts Options) *Registry {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Registry{
		now:       opts.Now,
		logf:      logf,
		tenants:   make(map[string]*Tenant),
		byHash:    make(map[string]string),
		campaigns: make(map[string]*Campaign),
		buckets:   make(map[string]*Bucket),
	}
}

// HashKey returns the hex SHA-256 of an API key — the only form a key is
// ever stored or replicated in.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// newKey mints a fresh API key: 32 hex chars of crypto/rand entropy
// under a recognizable prefix.
func newKey() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("tenant: mint key: %w", err)
	}
	return "sk_" + hex.EncodeToString(b[:]), nil
}

// Enabled reports whether tenancy is active: any tenant exists. An empty
// registry leaves the server in anonymous mode, byte-identical to the
// pre-tenancy surface.
func (r *Registry) Enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants) > 0
}

// Version returns the mutation counter, bumped by every applied change.
func (r *Registry) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// CreateTenant registers a tenant with a freshly minted key and returns
// the tenant plus the plaintext key — the only time it is visible.
func (r *Registry) CreateTenant(name string, role Role, rate float64, burst int) (Tenant, string, error) {
	key, err := newKey()
	if err != nil {
		return Tenant{}, "", err
	}
	t, err := r.CreateTenantWithKey(name, role, key, rate, burst)
	if err != nil {
		return Tenant{}, "", err
	}
	return t, key, nil
}

// CreateTenantWithKey registers a tenant under a caller-chosen key. A
// key that already maps to a tenant is ErrKeyExists — bootstrap paths
// that want restart-idempotency (sheriffd's -admin-key) check the
// existing tenant themselves instead of having collisions silently
// return someone else's identity.
func (r *Registry) CreateTenantWithKey(name string, role Role, key string, rate float64, burst int) (Tenant, error) {
	if name == "" {
		return Tenant{}, fmt.Errorf("tenant: name is required")
	}
	if !role.Valid() {
		return Tenant{}, fmt.Errorf("tenant: bad role %q", role)
	}
	if key == "" {
		return Tenant{}, fmt.Errorf("tenant: key is required")
	}
	hash := HashKey(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byHash[hash]; ok {
		return Tenant{}, ErrKeyExists
	}
	if burst <= 0 && rate > 0 {
		burst = int(rate)
		if burst < 1 {
			burst = 1
		}
	}
	r.tenantSeq++
	t := &Tenant{
		ID:         fmt.Sprintf("t-%06d", r.tenantSeq),
		Name:       name,
		Role:       role,
		KeyHash:    hash,
		QuotaRate:  rate,
		QuotaBurst: burst,
		Created:    r.now().UTC(),
	}
	r.tenants[t.ID] = t
	r.byHash[hash] = t.ID
	if err := r.commitLocked(mutation{Tenant: t}); err != nil {
		delete(r.tenants, t.ID)
		delete(r.byHash, hash)
		r.tenantSeq--
		return Tenant{}, err
	}
	return *t, nil
}

// Authenticate resolves an API key to its tenant.
func (r *Registry) Authenticate(key string) (Tenant, bool) {
	hash := HashKey(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byHash[hash]
	if !ok {
		return Tenant{}, false
	}
	return *r.tenants[id], true
}

// Tenants lists all tenants, sorted by ID.
func (r *Registry) Tenants() []Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Allow debits one request from the tenant's quota bucket. A false
// return carries how long until a token refills. Tenants with no quota
// configured always pass. Buckets are ephemeral (never persisted or
// replicated): a restart refills them, which errs toward admitting work.
func (r *Registry) Allow(tenantID string) (bool, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[tenantID]
	if !ok || t.QuotaRate <= 0 {
		return true, 0
	}
	now := r.now()
	b := r.buckets[tenantID]
	if b == nil {
		b = NewBucket(float64(t.QuotaBurst), now)
		r.buckets[tenantID] = b
	}
	ok, wait := b.Take(now, t.QuotaRate, float64(t.QuotaBurst))
	if !ok {
		r.quotaDenied.Add(1)
	}
	return ok, wait
}

// QuotaDenied counts requests the per-tenant buckets have rejected.
func (r *Registry) QuotaDenied() uint64 { return r.quotaDenied.Load() }

// CreateCampaign registers a draft campaign over the given domains.
func (r *Registry) CreateCampaign(name string, domains []string, rounds, perTenantQuota int, createdBy string) (Campaign, error) {
	if name == "" {
		return Campaign{}, fmt.Errorf("tenant: campaign name is required")
	}
	if len(domains) == 0 {
		return Campaign{}, fmt.Errorf("tenant: campaign has no domains")
	}
	if rounds < 1 {
		return Campaign{}, fmt.Errorf("tenant: campaign rounds %d < 1", rounds)
	}
	if perTenantQuota < 0 {
		return Campaign{}, fmt.Errorf("tenant: negative per-tenant quota %d", perTenantQuota)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.campaignSeq++
	c := &Campaign{
		ID:             fmt.Sprintf("c-%06d", r.campaignSeq),
		Name:           name,
		Domains:        append([]string(nil), domains...),
		Rounds:         rounds,
		PerTenantQuota: perTenantQuota,
		State:          StateDraft,
		CreatedBy:      createdBy,
		Created:        r.now().UTC(),
		Claims:         make(map[string]int),
	}
	r.campaigns[c.ID] = c
	if err := r.commitLocked(mutation{Campaign: c}); err != nil {
		delete(r.campaigns, c.ID)
		r.campaignSeq--
		return Campaign{}, err
	}
	return c.clone(), nil
}

// Campaigns lists all campaigns, sorted by ID.
func (r *Registry) Campaigns() []Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Campaign, 0, len(r.campaigns))
	for _, c := range r.campaigns {
		out = append(out, c.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Campaign returns one campaign by ID.
func (r *Registry) Campaign(id string) (Campaign, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.campaigns[id]
	if !ok {
		return Campaign{}, false
	}
	return c.clone(), true
}

// Activate transitions a draft campaign to active. Any other starting
// state is ErrConflict.
func (r *Registry) Activate(id string) (Campaign, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.campaigns[id]
	if !ok {
		return Campaign{}, ErrNotFound
	}
	if c.State != StateDraft {
		return Campaign{}, fmt.Errorf("%w: campaign %s is %s, not %s", ErrConflict, id, c.State, StateDraft)
	}
	c.State = StateActive
	if err := r.commitLocked(mutation{Campaign: c}); err != nil {
		c.State = StateDraft
		return Campaign{}, err
	}
	return c.clone(), nil
}

// ClaimUnit hands tenantID the campaign's next work unit. Draft
// campaigns conflict; done campaigns return Done without error (the
// contributor should stop polling); a tenant at its per-tenant quota
// gets ErrQuota. Claiming the final unit flips the campaign to done.
func (r *Registry) ClaimUnit(id, tenantID string) (Claim, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.campaigns[id]
	if !ok {
		return Claim{}, ErrNotFound
	}
	switch c.State {
	case StateDraft:
		return Claim{}, fmt.Errorf("%w: campaign %s is still a draft", ErrConflict, id)
	case StateDone:
		return Claim{CampaignID: id, Done: true}, nil
	}
	if c.PerTenantQuota > 0 && c.Claims[tenantID] >= c.PerTenantQuota {
		return Claim{}, fmt.Errorf("%w: tenant %s claimed %d of %d units",
			ErrQuota, tenantID, c.Claims[tenantID], c.PerTenantQuota)
	}
	unit := c.NextUnit
	domain, round := c.Unit(unit)
	c.NextUnit++
	if c.Claims == nil {
		c.Claims = make(map[string]int)
	}
	c.Claims[tenantID]++
	prevState := c.State
	if c.NextUnit >= c.TotalUnits() {
		c.State = StateDone
	}
	if err := r.commitLocked(mutation{Campaign: c}); err != nil {
		c.NextUnit--
		c.Claims[tenantID]--
		c.State = prevState
		return Claim{}, err
	}
	return Claim{
		CampaignID: id,
		Unit:       unit,
		Domain:     domain,
		Round:      round,
		Remaining:  c.TotalUnits() - c.NextUnit,
	}, nil
}

// Stats assembles the tenancy stats block.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Tenants:     len(r.tenants),
		Campaigns:   len(r.campaigns),
		Version:     r.version,
		QuotaDenied: r.quotaDenied.Load(),
	}
	for _, c := range r.campaigns {
		if c.State == StateActive {
			s.ActiveCampaigns++
		}
	}
	return s
}

// Snapshot captures the full replicable state, sorted deterministically.
func (r *Registry) Snapshot() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Registry) snapshotLocked() State {
	st := State{
		Version:     r.version,
		TenantSeq:   r.tenantSeq,
		CampaignSeq: r.campaignSeq,
		Tenants:     make([]Tenant, 0, len(r.tenants)),
		Campaigns:   make([]Campaign, 0, len(r.campaigns)),
	}
	for _, t := range r.tenants {
		st.Tenants = append(st.Tenants, *t)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].ID < st.Tenants[j].ID })
	for _, c := range r.campaigns {
		st.Campaigns = append(st.Campaigns, c.clone())
	}
	sort.Slice(st.Campaigns, func(i, j int) bool { return st.Campaigns[i].ID < st.Campaigns[j].ID })
	return st
}

// Restore replaces the registry's state with a snapshot — the follower
// sync path. Quota buckets reset (they are node-local). Restore never
// journals: followers are memory-only, and a journaled registry restores
// only at Open, before the journal accepts appends.
func (r *Registry) Restore(st State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restoreLocked(st)
}

func (r *Registry) restoreLocked(st State) {
	r.version = st.Version
	r.tenantSeq = st.TenantSeq
	r.campaignSeq = st.CampaignSeq
	r.tenants = make(map[string]*Tenant, len(st.Tenants))
	r.byHash = make(map[string]string, len(st.Tenants))
	for i := range st.Tenants {
		t := st.Tenants[i]
		r.tenants[t.ID] = &t
		r.byHash[t.KeyHash] = t.ID
	}
	r.campaigns = make(map[string]*Campaign, len(st.Campaigns))
	for i := range st.Campaigns {
		c := st.Campaigns[i].clone()
		r.campaigns[c.ID] = &c
	}
	r.buckets = make(map[string]*Bucket)
}

// clone deep-copies a campaign (Domains and Claims are reference types).
func (c *Campaign) clone() Campaign {
	out := *c
	out.Domains = append([]string(nil), c.Domains...)
	if c.Claims != nil {
		out.Claims = make(map[string]int, len(c.Claims))
		for k, v := range c.Claims {
			out.Claims[k] = v
		}
	}
	return out
}
