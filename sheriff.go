// Package sheriff is a reproduction of "Crowd-assisted Search for Price
// Discrimination in E-Commerce: First results" (Mikians, Gyarmati,
// Erramilli, Laoutaris — CoNEXT 2013): the $heriff crowd-sourced price
// discrimination detector, its systematic crawler, and the full analysis
// pipeline behind the paper's Figures 1–10, running against a simulated
// e-commerce web (see DESIGN.md for the substitution map).
//
// The entry point is a World: a deterministic, seeded universe of
// retailers, GeoIP, exchange rates and measurement vantage points.
//
//	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: 1})
//	crowdRep, _ := w.RunCrowd(sheriff.CrowdOptions{})       // Sec. 3
//	_ = w.EnsureAnchors(w.Crawled)
//	w.RunCrawl(sheriff.CrawlOptions{})                      // Sec. 4
//	fmt.Print(w.Report(crowdRep))                           // Figs. 1–10
//
// Individual price checks — what the browser extension triggers — go
// through the backend:
//
//	res, _ := w.Backend.Check(sheriff.CheckRequest{URL: ..., Highlight: ...})
//
// Everything below this package lives in internal/ subpackages; this
// package re-exports the types a downstream user needs.
package sheriff

import (
	"context"

	"sheriff/internal/aggregate"
	"sheriff/internal/analysis"
	"sheriff/internal/api"
	"sheriff/internal/backend"
	"sheriff/internal/core"
	"sheriff/internal/crowd"
	"sheriff/internal/events"
	"sheriff/internal/extract"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/replica"
	"sheriff/internal/shop"
	"sheriff/internal/store"
	"sheriff/internal/tenant"
)

// World is the assembled simulation plus measurement machinery; see
// core.World for the field-by-field description.
type World = core.World

// WorldOptions configures NewWorld; the zero value reproduces the paper's
// scale parameters (580 long-tail domains, 8.5% transient failures).
// Every world starts on 10 January 2013; a world built from Configs
// injects no failures.
type WorldOptions = core.WorldOptions

// NewWorld builds a deterministic world. Equal options give identical
// worlds, identical campaigns and identical figures.
func NewWorld(opts WorldOptions) *World { return core.NewWorld(opts) }

// CrowdOptions configures the crowd campaign (Sec. 3.2); zero values use
// the paper's 340 users / 1500 requests / ~4 months.
type CrowdOptions = core.CrowdOptions

// CrawlOptions configures the systematic crawl (Sec. 4.1); zero values use
// the paper's 21 domains × ≤100 products × 7 daily rounds.
type CrawlOptions = core.CrawlOptions

// LoadOptions configures the crowd-load harness (World.RunLoad /
// crowd.RunLoad): N concurrent simulated users issuing checks in
// synchronized rounds against the backend.
type LoadOptions = crowd.LoadOptions

// CheckFunc issues one check; crowd.RunLoad drives any implementation —
// Backend.Check in-process, or an HTTP client POSTing a live sheriffd
// (examples/loadgen).
type CheckFunc = crowd.CheckFunc

// RunLoad drives the crowd-load harness against an arbitrary CheckFunc;
// for the common in-process case use World.RunLoad.
var RunLoad = crowd.RunLoad

// CheckRequest is a single $heriff price check: URL, user highlight, and
// the user's fabric address.
type CheckRequest = backend.CheckRequest

// CheckResult is the per-vantage-point outcome of a check.
type CheckResult = backend.CheckResult

// API is the backend's versioned HTTP surface: the /api/v1/ routes
// (checks single+batch, cursor-paginated/NDJSON observations, per-domain
// strategy reports, stats, anchors, events) behind the middleware stack.
// It is the only surface; the pre-v1 /api/check|anchors|stats aliases
// are retired. Serve it with net/http; drive it with sheriff/client.
type API = api.Server

// APIOptions tunes the API middleware stack: CORS allowlist, body
// limit, per-client rate limiting, logging.
type APIOptions = api.Options

// NewAPI wraps a world's backend for HTTP serving with default options
// (CORS open, 1 MiB bodies, no rate limit). The world's incremental
// analysis engine backs the domain-report and events endpoints.
func NewAPI(w *World) *API { return NewAPIWithOptions(w, api.Options{}) }

// NewAPIWithOptions is NewAPI with an explicit middleware configuration
// (cmd/sheriffd wires its flags through this). The world's incremental
// analysis engine always backs the domain-report, events and stats
// endpoints.
func NewAPIWithOptions(w *World, opts APIOptions) *API {
	return api.NewServer(w.Backend, w.Analysis, opts)
}

// Wire shapes of the v1 API, aliased so the server and the client SDK
// (sheriff/client) share one definition and cannot drift: a field added
// to a response lands in SDK users' structs in the same commit.
type (
	// APICheckPayload is the wire form of one check submission.
	APICheckPayload = api.CheckPayload
	// APIBatchCheckResponse wraps per-item batch outcomes.
	APIBatchCheckResponse = api.BatchCheckResponse
	// APIObservationsPage is one cursor-paginated observations page.
	APIObservationsPage = api.ObservationsPage
	// APIStats is the /api/v1/stats payload.
	APIStats = api.StatsResponse
	// APISourceCount is one source's total/ok split within stats.
	APISourceCount = api.SourceCount
	// APIDomainReport is the per-domain variation + strategy report.
	APIDomainReport = api.DomainReport
	// APIEventsPage is one /api/v1/events history page.
	APIEventsPage = api.EventsPage
	// APIHealthResponse is the /api/v1/healthz and /api/v1/readyz body.
	APIHealthResponse = api.HealthResponse
	// APITenantPayload is the POST /api/v1/tenants request body.
	APITenantPayload = api.TenantPayload
	// APITenant is the wire form of one tenant (the creation response
	// carries the plaintext key, once).
	APITenant = api.TenantInfo
	// APITenantsResponse wraps the tenant listing.
	APITenantsResponse = api.TenantsResponse
	// APICampaignPayload is the POST /api/v1/campaigns request body.
	APICampaignPayload = api.CampaignPayload
	// APICampaign is the wire form of one campaign.
	APICampaign = api.CampaignInfo
	// APICampaignsResponse wraps the campaign listing.
	APICampaignsResponse = api.CampaignsResponse
	// APIClaimResponse is one claimed campaign work unit.
	APIClaimResponse = api.ClaimResponse
)

// Multi-tenant crowd: the identity registry behind the API's auth layer —
// tenants with hashed API keys, roles, per-tenant quotas, and the
// campaign scheduler. Wire a registry into APIOptions.Tenants; leave it
// empty (or nil) for the anonymous single-principal surface.
type (
	// TenantRegistry holds tenants, quotas and campaigns; see
	// NewTenantRegistry and OpenTenantDir.
	TenantRegistry = tenant.Registry
	// TenantOptions tunes a registry (clock and logging injection).
	TenantOptions = tenant.Options
	// TenantSyncOptions tunes a follower's tenancy replication loop.
	TenantSyncOptions = tenant.SyncOptions
)

// Tenant roles.
const (
	TenantRoleAdmin       = tenant.RoleAdmin
	TenantRoleContributor = tenant.RoleContributor
)

// ErrTenantKeyExists reports a tenant registration whose API key is
// already taken (the HTTP surface answers it 409 conflict). Bootstrap
// paths treat it as "already registered" after verifying the existing
// tenant is the one they meant to create.
var ErrTenantKeyExists = tenant.ErrKeyExists

// NewTenantRegistry builds a memory-only tenant registry (follower
// nodes, tests, memory-engine primaries).
func NewTenantRegistry(opts TenantOptions) *TenantRegistry { return tenant.NewRegistry(opts) }

// OpenTenantDir opens (or creates) a journaled registry rooted at dir —
// typically the durable store's data directory; tenants, campaigns and
// claim progress survive restarts and crashes.
func OpenTenantDir(dir string, opts TenantOptions) (*TenantRegistry, error) {
	return tenant.Open(dir, opts)
}

// RunTenantSync polls a primary's tenancy snapshot into reg until ctx
// ends — the follower-side loop that lets replicas validate API keys
// locally.
func RunTenantSync(ctx context.Context, primaryURL string, reg *TenantRegistry, opts TenantSyncOptions) {
	tenant.Sync(ctx, primaryURL, reg, opts)
}

// Cluster mode: WAL-shipping read replicas. A Follower streams a
// primary's replication WAL (GET /api/v1/replication/wal) into a local
// in-memory store under the primary's own sequence numbers, so a
// read-only sheriffd -follow node serves the same v1 read surface off
// identical state. See DESIGN.md §11 for the protocol.
type (
	// Follower is the replication client: create with NewFollower, drive
	// with Run (reconnecting tail) or CatchUp (one bounded sync), observe
	// with Status.
	Follower = replica.Follower
	// FollowerOptions tunes a Follower (HTTP client, reconnect delay,
	// logging); the zero value works.
	FollowerOptions = replica.Options
)

// NewFollower builds a follower of the sheriffd at primaryURL that
// applies replicated batches into the given in-memory store. Nothing
// connects until Run or CatchUp.
func NewFollower(primaryURL string, target *Store, opts FollowerOptions) *Follower {
	return replica.New(primaryURL, target, opts)
}

// The incremental analysis engine: per-domain aggregates maintained as a
// fold on every store write, so reports and strategy verdicts answer in
// O(domains touched by the delta) instead of O(store), plus a typed
// event log of variation-threshold crossings and strategy-family flips.
// Every World carries one (World.Analysis); build one directly to attach
// to a recovered read-only store.
type (
	// AnalysisEngine maintains the per-domain aggregates and event log.
	AnalysisEngine = aggregate.Engine
	// AnalysisOptions configures the engine: an external event log.
	// Its detector and variation thresholds are constants.
	AnalysisOptions = aggregate.Options
	// Event is one analysis event: a product group's variation ratio
	// crossing the threshold, or a strategy family flipping.
	Event = events.Event
	// EventLog is the append-only in-process event history.
	EventLog = events.Log
	// Market is the FX market aggregates convert through (World.Market).
	Market = fx.Market
)

// Event types an EventLog carries.
const (
	EventVariation = events.TypeVariation
	EventStrategy  = events.TypeStrategy
)

// NewAnalysisEngine attaches an incremental analysis engine to a store
// backend: rebuilds aggregates from what the store already holds, then
// folds every subsequent write. NewWorld does this for you; call it
// directly when composing a custom backend.
func NewAnalysisEngine(b StoreBackend, market *fx.Market, opts AnalysisOptions) *AnalysisEngine {
	return aggregate.New(b, market, opts)
}

// NewAnalysisReader builds aggregates over a read-only store (e.g. one
// recovered with OpenDataDirReadOnly) without attaching a write
// observer.
func NewAnalysisReader(st StoreReader, market *fx.Market, opts AnalysisOptions) *AnalysisEngine {
	return aggregate.NewReader(st, market, opts)
}

// Anchor is a learned price-extraction anchor (path + context).
type Anchor = extract.Anchor

// VantagePoint is one of the paper's 14 measurement endpoints.
type VantagePoint = geo.VantagePoint

// VantagePoints returns the paper's 14 vantage points (Fig. 7).
func VantagePoints() []VantagePoint { return geo.VantagePoints() }

// Store is the observation database; Observation one extracted price.
// The store is sharded by domain and indexed at ingest; stream it with
// Store.Scan / Store.Groups, filter with a Query.
type (
	Store       = store.Store
	Observation = store.Observation
	// Query selects observations for Store.Scan and Store.Filter;
	// zero-valued fields match everything (set Round to -1 to match all
	// rounds).
	Query = store.Query
	// ProductKey identifies one (domain, SKU) product group.
	ProductKey = store.Key
)

// The observation database is pluggable: StoreBackend is the full
// read/write contract both engines satisfy, StoreReader the query-only
// subset the analysis layer consumes, and DurableStore the WAL-backed,
// snapshot-compacted engine whose dataset survives the process
// (sheriffd -data-dir runs on one).
type (
	StoreBackend = store.Backend
	StoreReader  = store.Reader
	DurableStore = store.Durable
	// DurableOptions tunes the durable engine: fsync policy, segment
	// size, compaction threshold.
	DurableOptions = store.DurableOptions
)

// NewStore builds an empty in-memory observation store — the landing
// zone for datasets pulled over the wire (client.FetchDataset).
func NewStore() *Store { return store.New() }

// OpenDataDir opens a data directory as a writable durable backend,
// recovering whatever a previous process (cleanly stopped or killed)
// left behind. Pass the result as WorldOptions.Store.
var OpenDataDir = store.OpenDurable

// OpenDataDirReadOnly recovers a data directory into a plain in-memory
// store without writing — the analysis-side open.
var OpenDataDirReadOnly = store.OpenReadOnly

// ReadDataset loads a JSONL dataset previously written with
// World.Store.WriteJSONL (cmd/crawl writes these, cmd/analyze reads them).
var ReadDataset = store.ReadJSONL

// Figure result types, re-exported for downstream analysis code.
type (
	// DomainCount is a Fig. 1 row.
	DomainCount = analysis.DomainCount
	// DomainBox is a Fig. 2/4/9 row.
	DomainBox = analysis.DomainBox
	// DomainExtent is a Fig. 3 row.
	DomainExtent = analysis.DomainExtent
	// LocationBox is a Fig. 7 row.
	LocationBox = analysis.LocationBox
	// Fig5EnvelopeBand is one price band of the Fig. 5 envelope.
	Fig5EnvelopeBand = analysis.Fig5Envelope
)

// Strategy kinds a Fig. 6 series' fitted pricing model can report.
const (
	StrategyMultiplicative = analysis.StrategyMultiplicative
	StrategyAdditive       = analysis.StrategyAdditive
)

// EnvelopeOf folds Fig. 5 points into the paper's price-band envelope
// (cheap ≤ ×3, mid ≤ ×2, expensive < ×1.5).
var EnvelopeOf = analysis.EnvelopeOf

// Summarize derives the dataset summary from a store plus crowd-campaign
// statistics.
var Summarize = analysis.Summarize

// Pricing-rule engine and strategy attribution, re-exported for
// downstream scenario work.
type (
	// StrategyFamily groups rules by discrimination strategy.
	StrategyFamily = shop.StrategyFamily
	// ShopConfig declares a retailer, rule parameters included.
	ShopConfig = shop.Config
	// MatrixOptions configures RunScenarioMatrix.
	MatrixOptions = core.MatrixOptions
)

// Market-dynamics strategy families: price movement every vantage point
// sees identically — a confound the detector separates from
// discrimination, not discrimination itself.
const (
	FamilyCompetitive = shop.FamilyCompetitive
	FamilyDemand      = shop.FamilyDemand
)

// DetectableFamilies lists the families the strategy detector can attribute
// from crawl data alone.
var DetectableFamilies = analysis.DetectableFamilies

// RunScenarioMatrix sweeps the discrimination-scenario presets
// (ScenarioConfigs) and scores per-family detection precision/recall.
var RunScenarioMatrix = core.RunScenarioMatrix

// ScenarioConfigs returns the scenario retailers the matrix sweeps, one
// per rule combination.
var ScenarioConfigs = shop.ScenarioConfigs
