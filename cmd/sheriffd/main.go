// Command sheriffd runs the $heriff backend as an HTTP service against a
// simulated e-commerce world — the server half of the paper's browser
// extension (Sec. 3.1).
//
//	sheriffd -addr :8080 -seed 1 -longtail 100
//
// With -data-dir the observation store is durable: every check's
// observations are written through a per-shard WAL (flushed per -fsync)
// and the dataset survives restarts and kill -9 — on boot the directory
// is recovered (snapshot + WAL tail replay) and the service continues
// where the previous process stopped:
//
//	sheriffd -addr :8080 -data-dir ./sheriff-data -fsync always
//
// Durable segments are keyed by time bucket (-bucket, default 24h of
// simulated observation time). Cold buckets — all but the newest —
// compress to gzip at each compaction, and retention prunes whole
// buckets: -retain-age drops buckets older than the newest observation
// minus the age, -retain-bytes evicts oldest-first to a disk budget.
// Pruning is recorded in the manifest, so restarts recover only live
// buckets and /api/v1/stats reports the cumulative totals.
//
// Endpoints (v1; see README "API reference" for the full table):
//
//	POST /api/v1/checks                    one check or {"checks":[...]} batch
//	GET  /api/v1/observations              cursor-paginated query; NDJSON stream
//	GET  /api/v1/domains/{domain}/report   per-domain variation + strategy report
//	GET  /api/v1/stats                     check/store/cache/analysis/server counters
//	GET  /api/v1/anchors                   anchors learned from checks so far
//	GET  /api/v1/events                    analysis event history; NDJSON/SSE live tail
//	GET  /                                 human-readable service description
//
// The v1 routes are the only API surface: the pre-v1 aliases
// /api/check, /api/anchors and /api/stats are retired and answer 404
// (the extension posts the same body to /api/v1/checks). Errors on v1
// travel as {"error":{"code","message","detail"}}. The middleware stack is
// tunable: -cors-origin restricts cross-origin callers, -rate-limit
// enables a per-client token bucket, -max-body caps request bodies.
//
// Cluster mode: a second sheriffd started with -follow streams the
// primary's WAL over GET /api/v1/replication/wal and serves the same v1
// read surface off an identical in-memory dataset:
//
//	sheriffd -addr :8318 -follow http://localhost:8317 -seed 1
//
// The follower is read-only (writes answer 403 {"error":{"code":
// "read_only"}} with a Location pointing at the primary), resumes from
// its last applied sequence after any disconnect, reports its role and
// lag in /api/v1/stats, and gates /api/v1/readyz on -ready-max-lag.
// Start it with the same -seed and -longtail as the primary so both
// nodes simulate the same world.
//
// Multi-tenant mode: -admin-key bootstraps an admin account — the ONLY
// way the first tenant comes to exist ( /api/v1/tenants always demands
// an admin key, so an open server cannot be claimed by whoever posts
// first). The admin then mints contributor/admin tenants with hashed
// API keys and per-tenant request quotas over POST /api/v1/tenants, and
// /api/v1/campaigns coordinates crowd measurement rounds (draft ->
// active -> done, claims handed out per tenant under a campaign quota).
// Keys travel as Authorization: Bearer or X-API-Key; authenticated
// observations carry the tenant through stats and domain reports. With
// -data-dir the registry is journaled beside the observation store and
// survives kill -9; followers replicate it from the primary (give them
// an admin key via -follow-key — the tenancy snapshot is admin-gated)
// and honor the same keys on reads. With no tenants registered the
// pre-existing surface stays fully anonymous, as before.
//
// Example check (the user at 10.0.1.50 highlighted "$49.99"):
//
//	curl -s localhost:8080/api/v1/checks -d '{
//	  "url": "http://www.amazon.com/product/WWW-00001",
//	  "highlight": "$49.99",
//	  "user_addr": "10.0.1.50",
//	  "user_id": "demo"}'
//
// The simulated shops themselves are browsable through the /world/ proxy,
// optionally as a visitor from another country:
//
//	curl 'localhost:8080/world/www.energie.it/product/WWW-00001?from=FI/Tampere'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sheriff"
	"sheriff/internal/geo"
	"sheriff/internal/netsim"
	"sheriff/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "world seed (deterministic)")
	longtail := flag.Int("longtail", 100, "number of long-tail domains to simulate")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	dataDir := flag.String("data-dir", "", "durable data directory (empty: in-memory, lost on exit)")
	fsyncMode := flag.String("fsync", "always", "durable WAL flush policy: always, interval or never")
	bucket := flag.Duration("bucket", 0, "time-bucket width in simulated observation time (default 24h)")
	retainAge := flag.Duration("retain-age", 0, "prune buckets older than this vs the newest observation (0 = keep forever)")
	retainBytes := flag.Int64("retain-bytes", 0, "prune oldest buckets until the snapshot fits this many bytes (0 = unlimited)")
	compactWAL := flag.Int64("compact-wal-bytes", 0, "compact once the WAL exceeds this many bytes (default 32MiB)")
	corsOrigins := flag.String("cors-origin", "*", "comma-separated CORS allowlist for the extension ('*' = any origin)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client requests/second (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "rate-limit bucket depth (default: the rate)")
	trustProxy := flag.Bool("trust-proxy", false, "rate-limit by the first X-Forwarded-For hop (only behind a proxy that sets it)")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	follow := flag.String("follow", "", "run as a read-only follower of the primary at this base URL (e.g. http://primary:8317)")
	followKey := flag.String("follow-key", "", "admin API key the follower presents when polling the primary's tenancy snapshot (required once the primary has tenants)")
	readyMaxLag := flag.Uint64("ready-max-lag", 0, "follower readiness bound: /api/v1/readyz reports unready past this replication lag (default 8192)")
	adminKey := flag.String("admin-key", "", "bootstrap an unlimited-quota admin tenant with this API key (enables tenancy)")
	flag.Parse()

	if *follow != "" && *dataDir != "" {
		log.Fatalf("sheriffd: -follow and -data-dir are mutually exclusive (followers hold the replicated dataset in memory and re-sync from the primary on restart)")
	}
	if *followKey != "" && *follow == "" {
		log.Fatalf("sheriffd: -follow-key only makes sense with -follow")
	}

	// With -data-dir the store outlives the process: recover whatever the
	// previous run left (a clean stop and a kill -9 recover the same way),
	// then record every new observation through the WAL.
	var durable *sheriff.DurableStore
	var backingStore sheriff.StoreBackend
	if *dataDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("sheriffd: %v", err)
		}
		d, rep, err := sheriff.OpenDataDir(*dataDir, sheriff.DurableOptions{
			Fsync:           policy,
			BucketDuration:  *bucket,
			RetainAge:       *retainAge,
			RetainBytes:     *retainBytes,
			CompactWALBytes: *compactWAL,
		})
		if err != nil {
			log.Fatalf("sheriffd: open %s: %v", *dataDir, err)
		}
		log.Printf("sheriffd: %s: %s", *dataDir, rep)
		durable, backingStore = d, d
	}

	// Follower mode: the local store is an empty in-memory engine the
	// replication stream fills under the primary's sequence numbers; the
	// analysis engine folds replicated batches exactly as the primary
	// folded the original writes, so reports and events match.
	var follower *sheriff.Follower
	if *follow != "" {
		st := sheriff.NewStore()
		backingStore = st
		follower = sheriff.NewFollower(*follow, st, sheriff.FollowerOptions{Logf: log.Printf})
	}

	// Tenancy: with -data-dir the registry is journaled next to the
	// observation segments (tenants and campaigns survive kill -9 with
	// the dataset); otherwise it lives in memory. A follower's registry
	// fills from the primary's replicated snapshot instead, so keys
	// issued on the primary authenticate reads on the replica.
	var tenants *sheriff.TenantRegistry
	if *dataDir != "" {
		reg, err := sheriff.OpenTenantDir(*dataDir, sheriff.TenantOptions{Logf: log.Printf})
		if err != nil {
			log.Fatalf("sheriffd: open tenant registry in %s: %v", *dataDir, err)
		}
		tenants = reg
	} else {
		tenants = sheriff.NewTenantRegistry(sheriff.TenantOptions{Logf: log.Printf})
	}
	if *adminKey != "" {
		if *follow != "" {
			log.Fatalf("sheriffd: -admin-key is a primary flag (followers replicate tenants from the primary)")
		}
		// Restart-idempotent: a recovered registry already holds the
		// bootstrap admin, and re-running -admin-key must not mint a
		// duplicate — but the key genuinely belonging to someone else
		// (say a contributor minted through the API) is operator error,
		// not a bootstrap.
		if _, err := tenants.CreateTenantWithKey("admin", sheriff.TenantRoleAdmin, *adminKey, 0, 0); err != nil {
			t, ok := tenants.Authenticate(*adminKey)
			if !errors.Is(err, sheriff.ErrTenantKeyExists) || !ok || t.Role != sheriff.TenantRoleAdmin {
				log.Fatalf("sheriffd: bootstrap admin tenant: %v", err)
			}
		}
		log.Printf("sheriffd: tenancy enabled (admin key bootstrapped; %d tenants registered)", len(tenants.Tenants()))
	}

	w := sheriff.NewWorld(sheriff.WorldOptions{Seed: *seed, LongTail: *longtail, Store: backingStore})
	apiOpts := sheriff.APIOptions{
		AllowedOrigins:    strings.Split(*corsOrigins, ","),
		MaxBodyBytes:      *maxBody,
		RateLimit:         *rateLimit,
		RateBurst:         *rateBurst,
		TrustProxyHeaders: *trustProxy,
		Follower:          follower,
		ReadyMaxLag:       *readyMaxLag,
		Tenants:           tenants,
	}
	api := sheriff.NewAPIWithOptions(w, apiOpts)

	mux := http.NewServeMux()
	mux.Handle("/api/", api)
	mux.HandleFunc("/world/", func(rw http.ResponseWriter, req *http.Request) {
		serveWorldProxy(w, rw, req)
	})
	mux.HandleFunc("/", func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(rw, req)
			return
		}
		fmt.Fprintf(rw, "$heriff backend\n\n")
		if follower != nil {
			fmt.Fprintf(rw, "role            read-only follower of %s\n", follower.Primary())
		}
		fmt.Fprintf(rw, "world seed      %d\n", *seed)
		fmt.Fprintf(rw, "domains         %d (%d crawl targets)\n", w.DomainCount(), len(w.Crawled))
		fmt.Fprintf(rw, "vantage points  %d\n", len(sheriff.VantagePoints()))
		fmt.Fprintf(rw, "\nPOST /api/v1/checks {url, highlight, user_addr, user_id} or {checks:[...]}\n")
		fmt.Fprintf(rw, "GET  /api/v1/observations[?domain=&source=&vp=&limit=&cursor=]  (NDJSON with Accept: application/x-ndjson)\n")
		fmt.Fprintf(rw, "GET  /api/v1/domains/{domain}/report\n")
		fmt.Fprintf(rw, "GET  /api/v1/anchors\nGET  /api/v1/stats\n")
		fmt.Fprintf(rw, "GET  /api/v1/events[?after=&limit=]  (live tail with Accept: application/x-ndjson or text/event-stream)\n")
		fmt.Fprintf(rw, "POST /api/v1/tenants  GET /api/v1/tenants  (crowd accounts; admin key, see -admin-key)\n")
		fmt.Fprintf(rw, "POST /api/v1/campaigns  GET /api/v1/campaigns[/{id}]  POST /api/v1/campaigns/{id}/activate|claim\n")
		fmt.Fprintf(rw, "GET  /api/v1/healthz  GET /api/v1/readyz\n")
		fmt.Fprintf(rw, "GET  /api/v1/replication/wal?after=N[&follow=true]  (WAL stream for -follow replicas)\n")
		fmt.Fprintf(rw, "\ntry a product: http://%s/product/%s\n",
			w.Crawled[0], w.Retailers[w.Crawled[0]].Catalog().Products()[0].SKU)
	})

	// A server with limits: a stuck or malicious client must not pin a
	// connection forever, and a concurrent check (14-VP fan-out included)
	// comfortably finishes inside the write window.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// Live event tails (/api/v1/events NDJSON/SSE) would otherwise pin
	// Shutdown for the whole drain window: sealing the event log wakes
	// every tail, which flushes the remaining history and disconnects.
	// Checks still in flight keep appending — a sealed log records
	// history, it just wakes nobody — so no event observed by the store
	// is ever dropped by a drain.
	srv.RegisterOnShutdown(func() { w.Analysis.Close() })
	// Tailing replication streams (follow=true) likewise pin the drain:
	// Stop releases them so followers disconnect and resume elsewhere.
	srv.RegisterOnShutdown(api.Stop)

	// Signal-driven graceful shutdown: on SIGINT/SIGTERM stop accepting,
	// drain in-flight checks for up to -drain, then exit. A second signal
	// kills the process the usual way (the handler is reset once fired).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The follower engine reconnects through transient failures on its
	// own; only a fatal divergence (epoch change, lost history) surfaces
	// here, and that needs an operator, not a retry.
	replc := make(chan error, 1)
	if follower != nil {
		go func() {
			if err := follower.Run(ctx); err != nil {
				replc <- err
			}
		}()
		// Tenancy rides its own (coarser) poll loop: keys issued on the
		// primary become valid here within one sync interval. The poll
		// presents -follow-key — the snapshot carries key hashes, so a
		// tenancy-enabled primary serves it to admins only.
		go sheriff.RunTenantSync(ctx, follower.Primary(), tenants, sheriff.TenantSyncOptions{
			APIKey: *followKey, Logf: log.Printf,
		})
		log.Printf("sheriffd: following %s (read-only replica)", follower.Primary())
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("sheriffd: %d domains simulated, %d vantage points, listening on %s",
			w.DomainCount(), len(sheriff.VantagePoints()), *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("sheriffd: serve: %v", err)
	case err := <-replc:
		log.Fatalf("sheriffd: replication failed: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("sheriffd: signal received, draining for up to %v", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("sheriffd: forced shutdown: %v", err)
			srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("sheriffd: serve: %v", err)
		}
		// The drain finished: every in-flight check has stored its
		// observations, so this flush makes the full dataset durable
		// regardless of fsync policy.
		if durable != nil {
			if err := durable.Close(); err != nil {
				log.Fatalf("sheriffd: close data dir: %v", err)
			}
			log.Printf("sheriffd: data dir flushed (%d observations durable)", w.Store.Len())
		}
		// Checkpoint the tenant journal too (a no-op for the in-memory
		// registry): a clean stop and a kill -9 recover identically.
		if err := tenants.Close(); err != nil {
			log.Printf("sheriffd: close tenant registry: %v", err)
		} else if tenants.Enabled() {
			log.Printf("sheriffd: tenant registry flushed (%d tenants)", len(tenants.Tenants()))
		}
		log.Printf("sheriffd: event log sealed (%d events)", w.Analysis.Events().Len())
		log.Printf("sheriffd: stopped cleanly")
	}
}

// serveWorldProxy lets a real browser visit the simulated shops:
// /world/<domain>/<path> is fetched over the fabric as a visitor located
// by the optional ?from=CC/City parameter (default US/New York).
func serveWorldProxy(w *sheriff.World, rw http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, "/world/")
	domain, path, _ := strings.Cut(rest, "/")
	if domain == "" {
		http.Error(rw, "usage: /world/<domain>/<path>[?from=CC/City]", http.StatusBadRequest)
		return
	}
	cc, city := "US", "New York"
	if from := req.URL.Query().Get("from"); from != "" {
		if c, ct, ok := strings.Cut(from, "/"); ok {
			cc, city = c, ct
		} else {
			cc, city = from, ""
		}
	}
	loc, err := geo.LocationOf(cc, city)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	addr, err := geo.AddrFor(loc, 200)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	tr := netsim.NewTransport(w.Registry, w.Clock, addr)
	inner, err := http.NewRequest(http.MethodGet, "http://"+domain+"/"+path, nil)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	inner.URL.RawQuery = req.URL.Query().Get("q")
	resp, err := tr.RoundTrip(inner)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	rw.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	rw.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(rw, resp.Body); err != nil {
		log.Printf("world proxy: copy: %v", err)
	}
}
