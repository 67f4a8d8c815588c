// Command msserve exposes trained C2MN annotation engines over HTTP.
// It serves one or many venues — each an independently loaded
// (space, model) pair — and routes batch annotation, record-by-record
// streaming ingestion with online η-gap segmentation, and live top-k
// queries by venue.
//
// Usage:
//
//	msserve -space mall.json -model model.json -addr :8080
//	msserve -venue north=mall-n.json,model-n.json \
//	        -venue south=mall-s.json,model-s.json -addr :8080
//
// Endpoints (JSON over HTTP). The canonical surface is versioned
// under /v1/; every route below is mounted there. Data-plane
// endpoints take the venue as a path segment (/v1/venues/{venue}/...)
// or a ?venue= parameter on the bare path; with exactly one venue
// loaded the parameter may be omitted.
//
//	POST   /v1/query                         unified query: JSON body = c2mn.Query
//	                                         (kind, scope venue|venues|fleet, venues,
//	                                         regions, window, k, per_venue) + optional
//	                                         page_size / cursor pagination fields
//	POST   /v1/annotate                      {"object_id", "records": [{"x","y","floor","t"}]}
//	POST   /v1/feed                          same body; records join the object's stream
//	POST   /v1/flush                         complete open stream fragments (?venue=, default all)
//	GET    /v1/query/popular-regions         ?k=5&start=0&end=3600&regions=1,2,3
//	                                         (+ ?scope=fleet or ?venues=a,b for cross-venue)
//	GET    /v1/query/frequent-pairs          same parameters
//	POST   /v1/venues/{venue}/annotate       path-routed equivalents of the above
//	POST   /v1/venues/{venue}/feed
//	POST   /v1/venues/{venue}/flush
//	GET    /v1/venues/{venue}/query/popular-regions
//	GET    /v1/venues/{venue}/query/frequent-pairs
//	GET    /v1/venues/{venue}/stats          one venue's pipeline counters
//	GET    /v1/venues                        list loaded venues with stats + model identity
//	GET    /v1/venues/{venue}/model          the venue's serving-model identity (hashes,
//	                                         format version, retraining swap count)
//	GET    /v1/stats                         per-venue counters + totals
//	GET    /v1/healthz                       liveness probe (also at /healthz)
//	GET    /v1/readyz                        readiness probe (also at /readyz): 503 while
//	                                         the process is draining for shutdown
//
// The mutating admin surface is consolidated under /v1/admin/ behind a
// single bearer-token check:
//
//	POST   /v1/admin/venues                        {"venue","space","model"}: (re)load from server-side paths
//	DELETE /v1/admin/venues/{venue}                unload a venue
//	POST   /v1/admin/venues/{venue}/snapshot       persist the venue's live state to -snapshot-dir now
//	GET    /v1/admin/venues/{venue}/snapshot/file  download the venue's on-disk snapshot bytes
//	PUT    /v1/admin/venues/{venue}/snapshot/file  upload + restore a snapshot into the (cold) venue
//	POST   /v1/admin/venues/{venue}/drain          stop accepting /feed for the venue (migration)
//	DELETE /v1/admin/venues/{venue}/drain          resume accepting /feed
//	POST   /v1/admin/venues/{venue}/feedback       {"data": [labeled sequences]}: operator ground truth
//	POST   /v1/admin/venues/{venue}/retrain        run one retraining cycle now (optional truth body)
//	GET    /v1/admin/venues/{venue}/retrain        the venue's retraining loop status + audit log
//
// The retraining endpoints answer 409 "retrain_disabled" unless
// msserve runs with -retrain.
//
// Query responses carry an ETag freshness validator derived from the
// scanned venues' store generations — `"<venue>:<generation>"` for a
// single venue, a venue-sorted `"a:3;b:7"` composite for cross-venue
// scopes. A conditional request repeating the same query with
// If-None-Match gets 304 Not Modified while no scanned store has
// moved; /v1/venues surfaces each venue's current generation as
// store_generation. cmd/msrouter's scatter-gather revalidates its
// cached per-venue partials through this contract.
//
// Errors are typed: {"error": {"code": "unknown_venue", ...}}, the
// mux's own 404/405 included. Requests carrying an X-Request-ID header
// get it echoed on the response and embedded in error payloads, so a
// failure observed behind a routing tier is correlatable across both
// log streams. Nothing is mounted outside /v1/ except the bare
// /healthz and /readyz probes.
//
// Draining a venue is the first step of a live migration (see
// cmd/msrouter): a drained venue rejects new /feed traffic with
// 503 + Retry-After until a redirect target is set, then with
// 307 → the new owner; queries keep answering from the frozen state
// throughout. The snapshot file endpoints move the venue's state:
// GET streams the venue's current on-disk snapshot, PUT restores an
// uploaded snapshot into a venue with no live state — PR 5's
// venue/space/model-hash guards turn a misrouted upload into a typed
// 409/422, never corruption.
//
// Everything under /v1/admin/ is destructive (it replaces or discards
// a venue's live state, reads server-side files, or rotates the
// serving model); gate the tree with -admin-token (or the
// MSSERVE_ADMIN_TOKEN environment variable), which requires
// "Authorization: Bearer <token>" on those endpoints. Leave it empty
// only behind an authenticating proxy.
//
// With -retrain, each venue runs the closed-loop retraining plane:
// every streamed inference feeds a PSI drift detector and bounded
// labeled-sample reservoirs; a cycle (drift-triggered with
// -retrain-auto, or POST .../retrain) trains a candidate model off
// the serving path, shadow-scores it against the incumbent on a
// held-out labeled slice and hot-swaps it in only on a strict
// accuracy win. Ground truth posted to .../feedback is what opens the
// gate — a venue fed only its own predictions can never swap. A swap
// splices the venue's store generation forward, so cached ETags,
// router partials and watch resume labels all see new content; it is
// vetoed while the venue drains for migration.
//
// With -budget bounding fleet-wide inference and -feed-timeout set,
// /feed sheds load instead of queueing without bound: a completed
// fragment that cannot get an inference slot in time fails with
// 429 + Retry-After (error code "backlog").
//
// Profiling is opt-in: -pprof-addr serves net/http/pprof on a separate
// listener (keep it on localhost or a private interface); the public
// -addr surface never exposes the profiling endpoints.
//
// With -snapshot-dir set, venue state is durable across restarts: on
// boot every loaded venue with a snapshot file resumes its sliding
// windows (live top-k store, open stream fragments, pipeline counters)
// instead of starting cold; snapshots are written on graceful
// shutdown, on the admin trigger above, and — with -snapshot-interval
// — periodically in the background (jittered, skipping venues whose
// pipelines have not advanced). Snapshot files are written atomically
// (fsync + rename), so a crash mid-write never leaves a torn file; a
// snapshot that does not match the venue's current space, model or
// preprocessing configuration is refused at restore and the venue
// starts cold.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/notify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msserve: ")

	addr := flag.String("addr", ":8080", "listen address")
	spacePath := flag.String("space", "", "venue JSON path (single-venue form; venue ID \"default\")")
	modelPath := flag.String("model", "", "trained model path (single-venue form)")
	var venueSpecs []string
	flag.Func("venue", "venue spec id=space.json,model.json (repeatable)", func(v string) error {
		venueSpecs = append(venueSpecs, v)
		return nil
	})
	eta := flag.Float64("eta", c2mn.DefaultEta, "stream split gap η in seconds")
	psi := flag.Float64("psi", c2mn.DefaultPsi, "minimum fragment duration ψ in seconds")
	workers := flag.Int("workers", 0, "per-venue batch annotation workers (0 = GOMAXPROCS)")
	budget := flag.Int("budget", 0, "total concurrent annotations across all venues (0 = unbounded)")
	maxVenues := flag.Int("max-venues", 0, "maximum loaded venues (0 = unlimited)")
	window := flag.Int("window", 0, "windowed inference chunk size (0 = whole-sequence)")
	overlap := flag.Int("overlap", 0, "windowed inference overlap (0 = default 32, -1 = none)")
	retention := flag.Float64("retention", 0, "live store retention in seconds of stream time (0 = keep all)")
	maxBody := flag.Int64("max-body", defaultMaxBody, "maximum request body size in bytes")
	maxSweeps := flag.Int("max-sweeps", 0, "ICM sweep bound per sequence (0 = default 20)")
	annealSweeps := flag.Int("anneal-sweeps", 0, "annealed-restart Gibbs sweeps (0 = off)")
	seed := flag.Int64("seed", 0, "annealing randomness seed")
	feedTimeout := flag.Duration("feed-timeout", 0,
		"bound on a fed fragment's wait for a -budget inference slot; exceeded waits fail with 429 (0 = wait forever)")
	adminToken := flag.String("admin-token", os.Getenv("MSSERVE_ADMIN_TOKEN"),
		"bearer token required on venue load/unload admin endpoints (empty = open)")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
	snapshotDir := flag.String("snapshot-dir", "",
		"directory for venue snapshots: restored on boot (warm restart), written on shutdown and on the admin trigger (empty = no persistence)")
	snapshotInterval := flag.Duration("snapshot-interval", 0,
		"background snapshot period per venue; unchanged venues are skipped (0 = snapshot only on shutdown/trigger; requires -snapshot-dir)")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this separate address (e.g. localhost:6060); never exposed on -addr (empty = off)")
	watchHeartbeat := flag.Duration("watch-heartbeat", defaultWatchHeartbeat,
		"comment-frame heartbeat period on /v1/watch streams (keeps idle streams alive through proxies)")
	retrainOn := flag.Bool("retrain", false,
		"enable the closed-loop retraining plane: drift tracking, labeled-sample reservoirs and the /v1/admin retrain endpoints")
	retrainAuto := flag.Bool("retrain-auto", false,
		"start a retraining cycle automatically when a venue's drift detector fires (requires -retrain)")
	retrainDrift := flag.Float64("retrain-drift", 0, "PSI drift trigger threshold (0 = default 0.25)")
	retrainWindow := flag.Int("retrain-window", 0, "drift sliding window in emitted sequences (0 = default 64)")
	retrainMinSamples := flag.Int("retrain-min-samples", 0, "minimum labeled samples before a cycle trains (0 = default 32)")
	retrainHoldout := flag.Float64("retrain-holdout", 0, "fraction of samples held out for shadow scoring (0 = default 0.25)")
	retrainCooldown := flag.Duration("retrain-cooldown", 0, "minimum spacing between drift-triggered cycles (0 = default 10m)")
	retrainV := flag.Float64("retrain-v", 0, "candidate trainer: fsm uncertainty radius V in meters (0 = trainer default)")
	retrainSigma2 := flag.Float64("retrain-sigma2", 0, "candidate trainer: Gaussian prior variance override (0 = trainer default)")
	retrainSeed := flag.Int64("retrain-seed", 0, "candidate trainer + sampling seed")
	flag.Parse()

	if *maxBody <= 0 {
		log.Fatalf("-max-body must be positive, got %d", *maxBody)
	}
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}
	type venueLoad struct{ id, space, model string }
	var loads []venueLoad
	for _, spec := range venueSpecs {
		id, spacePath, modelPath, err := parseVenueSpec(spec)
		if err != nil {
			log.Fatal(err)
		}
		loads = append(loads, venueLoad{id, spacePath, modelPath})
	}
	if *spacePath != "" || *modelPath != "" {
		if *spacePath == "" || *modelPath == "" {
			log.Fatal("-space and -model must be given together")
		}
		// Appended directly, not via the spec syntax, so paths containing
		// '=' or ',' survive.
		loads = append(loads, venueLoad{"default", *spacePath, *modelPath})
	}
	if len(loads) == 0 {
		log.Fatal("no venues: pass -space/-model or at least one -venue id=space.json,model.json")
	}

	infer := c2mn.AnnotateOptions{MaxSweeps: *maxSweeps, AnnealSweeps: *annealSweeps, Seed: *seed}
	// The change-feed hub spans the whole registry: every engine —
	// including ones loaded or hot-reloaded later, which inherit the
	// defaults — publishes its generation moves here, and /v1/watch
	// streams subscribe (see watch.go).
	watchHub := notify.NewHub()
	regOpts := []c2mn.RegistryOption{
		c2mn.WithVenueDefaults(
			c2mn.WithPreprocess(*eta, *psi),
			c2mn.WithWorkers(*workers),
			c2mn.WithWindowing(*window, *overlap),
			c2mn.WithRetention(*retention),
			c2mn.WithInferOptions(infer),
			c2mn.WithFeedQueueTimeout(*feedTimeout),
			c2mn.WithChangeNotifier(watchHub.Publish),
		),
		c2mn.WithVenueBudget(*budget),
		c2mn.WithMaxVenues(*maxVenues),
	}
	if *retrainAuto && !*retrainOn {
		log.Fatal("-retrain-auto requires -retrain")
	}
	if *retrainOn {
		regOpts = append(regOpts, c2mn.WithRetrainPolicy(c2mn.RetrainPolicy{
			Config: c2mn.RetrainConfig{
				DriftThreshold: *retrainDrift,
				DriftWindow:    *retrainWindow,
				MinSamples:     *retrainMinSamples,
				HoldoutFrac:    *retrainHoldout,
				Cooldown:       *retrainCooldown,
				Seed:           *retrainSeed,
			},
			Auto: *retrainAuto,
			// Exact decomposed training: deterministic, so a cycle's
			// outcome is reproducible from its audit record.
			// Exact + TuneClustering: candidate training runs off the
			// serving path, so the deterministic trainer and workload
			// parameter tuning are affordable defaults.
			Train: c2mn.TrainOptions{
				V: *retrainV, Sigma2: *retrainSigma2, Exact: true,
				TuneClustering: true, Seed: *retrainSeed,
			},
		}))
	}
	registry, err := c2mn.NewVenueRegistry(regOpts...)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range loads {
		if err := loadVenueFiles(registry, l.id, l.space, l.model); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded venue %q (space %s, model %s)", l.id, l.space, l.model)
	}

	if *snapshotInterval > 0 && *snapshotDir == "" {
		log.Fatal("-snapshot-interval requires -snapshot-dir")
	}
	snaps := newSnapshotTracker()
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			log.Fatal(err)
		}
		// Warm start: venues with a snapshot resume their sliding
		// windows; a bad snapshot costs that venue its warmth, not the
		// whole boot.
		restored, err := registry.RestoreAll(*snapshotDir)
		if err != nil {
			log.Printf("warm start: %v (affected venues start cold)", err)
		}
		if len(restored) > 0 {
			log.Printf("warm start: restored %d venue(s): %s", len(restored), strings.Join(restored, ", "))
		}
		// A restored venue is exactly as fresh as its file: seed the
		// tracker with the file's mtime so /v1/venues reports snapshot
		// freshness from the first request, and the background loop
		// skips venues that stay idle after the warm boot.
		stats := registry.Stats()
		for _, id := range restored {
			if fi, err := os.Stat(c2mn.SnapshotPath(*snapshotDir, id)); err == nil {
				snaps.recordAt(id, stats[id], fi.ModTime().Unix())
			}
		}
	}

	// Readiness flips on once warm boot finished (just below) and off
	// when the drain starts, so a router's health checks stop routing
	// new work here while in-flight requests finish.
	var ready atomic.Bool
	watchStop := make(chan struct{})
	srv := &http.Server{
		Handler: newServer(registry, *maxBody, *adminToken,
			withFeedRetryAfter(*feedTimeout), withSnapshotDir(*snapshotDir),
			withReadiness(&ready), withSnapshotTracker(snaps),
			withWatchHub(watchHub), withWatchHeartbeat(*watchHeartbeat),
			withWatchShutdown(watchStop)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *snapshotDir != "" && *snapshotInterval > 0 {
		go snapshotLoop(ctx, registry, *snapshotDir, *snapshotInterval, snaps)
	}
	ready.Store(true)
	log.Printf("serving %d venue(s) on %s", registry.Len(), ln.Addr())
	// Drain order: readiness off first (health checks stop routing new
	// work here), then the watch stop — open /v1/watch streams emit a
	// terminal goodbye and return, so Shutdown's wait below covers them.
	if err := serve(ctx, srv, ln, *drain, func() { ready.Store(false); close(watchStop) }); err != nil {
		log.Fatal(err)
	}
	if *snapshotDir != "" {
		// Snapshot-on-drain: capture every venue — open fragments
		// included — after in-flight requests finished, so the next boot
		// restarts warm. Written atomically (fsync + rename); a SIGKILL
		// mid-write leaves the previous snapshots intact.
		if paths, err := registry.SnapshotAll(*snapshotDir); err != nil {
			log.Printf("final snapshot: %v", err)
		} else {
			log.Printf("snapshotted %d venue(s) to %s", len(paths), *snapshotDir)
		}
	}
	log.Print("drained, bye")
}

// snapshotLoop writes periodic background snapshots: each round,
// jittered around the configured interval so fleets sharing a disk do
// not snapshot in lockstep, persists the venues whose pipelines
// advanced since their last snapshot. The change check keeps the loop
// budget-aware — an idle venue costs nothing, and venues are written
// one at a time so snapshot IO never bursts above a single shard's
// serialisation.
// startPprof serves the net/http/pprof endpoints on their own listener
// and mux. The profiling surface is deliberately never mounted on the
// public -addr server: an explicit mux (rather than the default one the
// pprof import auto-registers on) keeps the two surfaces disjoint even
// if the main server ever falls back to http.DefaultServeMux.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pprof listener: %v", err)
	}
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("pprof server: %v", err)
		}
	}()
}

func snapshotLoop(ctx context.Context, registry *c2mn.VenueRegistry, dir string, interval time.Duration, snaps *snapshotTracker) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		// Jitter each round by ±10% of the interval.
		d := interval + time.Duration((rng.Float64()-0.5)*0.2*float64(interval))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
		if _, err := snapshotRound(registry, dir, snaps); err != nil {
			log.Printf("background snapshot: %v", err)
		}
	}
}

// snapshotRound snapshots every venue whose counters moved since the
// stats recorded in the tracker, records the written venues, and
// returns their IDs. Unloaded venues are dropped from the tracker.
func snapshotRound(registry *c2mn.VenueRegistry, dir string, snaps *snapshotTracker) ([]string, error) {
	stats := registry.Stats()
	snaps.prune(stats)
	ids := make([]string, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var written []string
	var errs []error
	for _, id := range ids {
		if rec, ok := snaps.get(id); ok && pipelineFingerprint(rec.stats) == pipelineFingerprint(stats[id]) {
			continue // unchanged since its last snapshot
		}
		if _, err := registry.SnapshotVenue(id, dir); err != nil {
			if errors.Is(err, c2mn.ErrUnknownVenue) {
				continue // unloaded between listing and snapshot
			}
			errs = append(errs, err)
			continue
		}
		// Record the pre-snapshot sample: traffic landing during the
		// write re-marks the venue changed for the next round.
		snaps.record(id, stats[id])
		written = append(written, id)
	}
	return written, errors.Join(errs...)
}

// pipelineFingerprint projects a stats sample onto the counters that
// indicate durable-state movement, zeroing the query-cache counters:
// read-only query traffic moves hit/miss/revalidation counts without
// changing anything a snapshot needs to re-capture, so the idle-skip
// in snapshotRound and the snapshot_stale column must not see it as
// change.
func pipelineFingerprint(st c2mn.EngineStats) c2mn.EngineStats {
	st.QueryCacheHits, st.QueryCacheMisses, st.QueryCacheRevalidations = 0, 0, 0
	return st
}

// snapshotTracker remembers, per venue, when the last snapshot was
// written and the pipeline counters it captured. It backs both the
// background loop's "did anything move" skip and the /v1/venues
// freshness columns, so operators and the migration flow can judge
// staleness without forcing a snapshot.
type snapshotTracker struct {
	mu sync.Mutex
	m  map[string]snapshotRecord
}

// snapshotRecord is one venue's last-snapshot bookkeeping.
type snapshotRecord struct {
	unix  int64            // write time, unix seconds
	stats c2mn.EngineStats // counters sampled just before the write
}

func newSnapshotTracker() *snapshotTracker {
	return &snapshotTracker{m: map[string]snapshotRecord{}}
}

// record notes a snapshot written now capturing the given counters.
func (t *snapshotTracker) record(id string, stats c2mn.EngineStats) {
	t.recordAt(id, stats, time.Now().Unix())
}

// recordAt is record with an explicit timestamp (warm-boot seeding
// uses the snapshot file's mtime).
func (t *snapshotTracker) recordAt(id string, stats c2mn.EngineStats, unix int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[id] = snapshotRecord{unix: unix, stats: stats}
}

// get returns the venue's last-snapshot record, if any.
func (t *snapshotTracker) get(id string) (snapshotRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.m[id]
	return rec, ok
}

// forget drops a venue's record (unload, hot reload).
func (t *snapshotTracker) forget(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// prune drops records of venues absent from the given stats map.
func (t *snapshotTracker) prune(loaded map[string]c2mn.EngineStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.m {
		if _, ok := loaded[id]; !ok {
			delete(t.m, id)
		}
	}
}

// serve runs srv on ln until ctx is canceled, then shuts down
// gracefully: onDrain (if non-nil) runs first — flipping readiness
// off so probes see the drain — the listener closes, in-flight
// requests get up to drain to complete, and serve returns once the
// server has fully stopped. A nil return means a clean exit (either a
// drained shutdown or the listener closing normally).
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, onDrain func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain timeout exceeded: force-close lingering connections.
		srv.Close()
		<-errc
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// parseVenueSpec splits "id=space.json,model.json".
func parseVenueSpec(spec string) (id, spacePath, modelPath string, err error) {
	id, paths, ok := strings.Cut(spec, "=")
	if !ok || id == "" {
		return "", "", "", fmt.Errorf("bad -venue %q: want id=space.json,model.json", spec)
	}
	spacePath, modelPath, ok = strings.Cut(paths, ",")
	if !ok || spacePath == "" || modelPath == "" {
		return "", "", "", fmt.Errorf("bad -venue %q: want id=space.json,model.json", spec)
	}
	return id, spacePath, modelPath, nil
}

// loadVenueFiles loads a (space, model) pair from disk into the
// registry under the venue ID, replacing any engine already there.
func loadVenueFiles(registry *c2mn.VenueRegistry, id, spacePath, modelPath string) error {
	sf, err := os.Open(spacePath)
	if err != nil {
		return err
	}
	defer sf.Close()
	space, err := c2mn.ReadSpace(sf)
	if err != nil {
		return fmt.Errorf("venue %q: reading space: %w", id, err)
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	defer mf.Close()
	if _, err := registry.Load(id, space, mf); err != nil {
		return err
	}
	return nil
}

// defaultMaxBody caps request bodies at 32 MiB unless -max-body says
// otherwise.
const defaultMaxBody = 32 << 20

// server handles the HTTP surface over a venue registry.
type server struct {
	registry       *c2mn.VenueRegistry
	maxBody        int64
	adminToken     string
	retryAfterSecs string // Retry-After hint on 429 backlog responses
	snapshotDir    string // venue snapshot directory ("" = persistence disabled)
	ready          *atomic.Bool
	snaps          *snapshotTracker

	// Continuous-query push plane (see watch.go): the change-feed hub
	// the registry's engines publish generation moves into, the
	// heartbeat cadence of /v1/watch streams, and a channel closed when
	// the shutdown drain starts so standing streams say goodbye instead
	// of holding Shutdown open.
	watchHub       *notify.Hub
	watchHeartbeat time.Duration
	watchShutdown  chan struct{}

	// drainMu guards draining: venue → redirect base URL. A venue
	// present with an empty value is draining without a cutover target
	// yet (/feed answers 503 + Retry-After); a non-empty value is the
	// new owner's base URL (/feed answers 307 there).
	drainMu  sync.Mutex
	draining map[string]string
}

// drainState reports whether a venue is draining and, once cut over,
// where its feed traffic should go instead.
func (s *server) drainState(venue string) (redirect string, draining bool) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	redirect, draining = s.draining[venue]
	return redirect, draining
}

// A serverOption tunes the handler beyond the required arguments.
type serverOption func(*server)

// withFeedRetryAfter derives the Retry-After hint on 429 backlog
// responses from the -feed-timeout bound: a client backing off for at
// least the queue-wait bound gives the backlog one full drain window.
func withFeedRetryAfter(d time.Duration) serverOption {
	return func(s *server) {
		if secs := int(math.Ceil(d.Seconds())); secs > 1 {
			s.retryAfterSecs = strconv.Itoa(secs)
		}
	}
}

// withSnapshotDir enables the admin snapshot trigger, writing venue
// snapshots into dir. The empty default leaves the endpoint mounted
// but answering 409: persistence is off.
func withSnapshotDir(dir string) serverOption {
	return func(s *server) { s.snapshotDir = dir }
}

// withReadiness wires /readyz to an externally owned flag, so main
// can flip it off when the shutdown drain starts. Without it the
// server constructs its own always-ready flag.
func withReadiness(ready *atomic.Bool) serverOption {
	return func(s *server) { s.ready = ready }
}

// withSnapshotTracker shares the background snapshot loop's freshness
// bookkeeping with the /v1/venues listing.
func withSnapshotTracker(t *snapshotTracker) serverOption {
	return func(s *server) { s.snaps = t }
}

// withWatchHub installs the change-feed hub /v1/watch subscribes to.
// The caller must also register the hub's Publish as the registry's
// change notifier (c2mn.WithChangeNotifier) — the server only consumes
// signals. Without the option the server makes its own hub, which then
// never fires: watches degrade to snapshot + heartbeats.
func withWatchHub(h *notify.Hub) serverOption {
	return func(s *server) { s.watchHub = h }
}

// withWatchHeartbeat overrides the /v1/watch heartbeat cadence.
func withWatchHeartbeat(d time.Duration) serverOption {
	return func(s *server) {
		if d > 0 {
			s.watchHeartbeat = d
		}
	}
}

// withWatchShutdown wires the channel main closes when the shutdown
// drain starts; open /v1/watch streams then emit a terminal goodbye
// and return, so Shutdown's wait covers them without a timeout.
func withWatchShutdown(ch chan struct{}) serverOption {
	return func(s *server) { s.watchShutdown = ch }
}

// newServer builds the handler over the route table (see routes).
// maxBody caps every request body. A non-empty adminToken gates the
// /v1/admin tree behind `Authorization: Bearer <token>`; empty leaves
// it open, for deployments fronted by their own auth.
func newServer(registry *c2mn.VenueRegistry, maxBody int64, adminToken string, opts ...serverOption) http.Handler {
	s := &server{
		registry: registry, maxBody: maxBody, adminToken: adminToken, retryAfterSecs: "1",
		draining: map[string]string{},
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.ready == nil {
		s.ready = &atomic.Bool{}
		s.ready.Store(true)
	}
	if s.snaps == nil {
		s.snaps = newSnapshotTracker()
	}
	if s.watchHub == nil {
		s.watchHub = notify.NewHub()
	}
	if s.watchHeartbeat <= 0 {
		s.watchHeartbeat = defaultWatchHeartbeat
	}
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, rt.h)
	}

	// Retraining hooks into the serving tier: cycles are vetoed while
	// the venue drains for migration (the frozen state is about to
	// move; a hot swap under it would void the migration's snapshot),
	// and a landed swap converges the serving caches exactly like an
	// operator reload — snapshot freshness is forgotten and standing
	// watches resync against the spliced generation. Both calls are
	// no-ops when the registry runs without a retrain policy.
	registry.SetRetrainGate(func(venue string) error {
		if _, draining := s.drainState(venue); draining {
			return fmt.Errorf("%w: venue %q", httpapi.ErrVenueDraining, venue)
		}
		return nil
	})
	registry.SetRetrainObserver(func(d c2mn.RetrainDecision) {
		if d.Outcome != c2mn.RetrainSwapped {
			return
		}
		s.snaps.forget(d.Venue)
		s.watchHub.Invalidate(d.Venue)
		log.Printf("venue %q hot-swapped retrained model %s (CA %.3f > %.3f)",
			d.Venue, d.ModelHash, d.CandidateCA, d.IncumbentCA)
	})
	return httpapi.Wrap(mux)
}

// route is one mounted pattern of the route table.
type route struct {
	pattern string
	h       http.HandlerFunc
}

// routes lists everything the server mounts: the versioned surface
// under /v1/ and, outside it, only the bare probes.
func (s *server) routes() []route {
	routes := []route{
		// Bare data-plane paths: venue from ?venue=, or the sole venue;
		// the query GETs also accept ?venues=a,b and ?scope=fleet.
		{"POST /v1/annotate", s.handleAnnotate},
		{"POST /v1/feed", s.handleFeed},
		{"POST /v1/flush", s.handleFlush},
		{"GET /v1/query/popular-regions", s.handlePopularRegions},
		{"GET /v1/query/frequent-pairs", s.handleFrequentPairs},
		// Venue-scoped equivalents with the venue as a path segment.
		{"POST /v1/venues/{venue}/annotate", s.handleAnnotate},
		{"POST /v1/venues/{venue}/feed", s.handleFeed},
		{"POST /v1/venues/{venue}/flush", s.handleFlush},
		{"GET /v1/venues/{venue}/query/popular-regions", s.handlePopularRegions},
		{"GET /v1/venues/{venue}/query/frequent-pairs", s.handleFrequentPairs},
		{"GET /v1/venues/{venue}/stats", s.handleVenueStats},
		// Model identity: which model is this venue serving with right now.
		{"GET /v1/venues/{venue}/model", s.handleVenueModel},
		// The unified query endpoint and its push twin: same composable
		// scope surface, push instead of poll (see watch.go).
		{"POST /v1/query", s.handleQuery},
		{"GET /v1/watch", s.handleWatch},
		{"GET /v1/venues/{venue}/watch", s.handleWatch},
		// Read-only listing and probes. The bare probe paths are for
		// plain liveness/readiness checks (the router probes /readyz).
		{"GET /v1/venues", s.handleListVenues},
		{"GET /v1/stats", s.handleStats},
		{"GET /v1/healthz", s.handleHealthz},
		{"GET /healthz", s.handleHealthz},
		{"GET /v1/readyz", s.handleReadyz},
		{"GET /readyz", s.handleReadyz},
	}
	// The mutating admin plane lives under /v1/admin/, every route
	// behind the one token check.
	for _, rt := range []route{
		{"POST /v1/admin/venues", s.handleLoadVenue},
		{"DELETE /v1/admin/venues/{venue}", s.handleUnloadVenue},
		{"POST /v1/admin/venues/{venue}/snapshot", s.handleSnapshotVenue},
		{"GET /v1/admin/venues/{venue}/snapshot/file", s.handleGetSnapshotFile},
		{"PUT /v1/admin/venues/{venue}/snapshot/file", s.handlePutSnapshotFile},
		{"POST /v1/admin/venues/{venue}/drain", s.handleDrainVenue},
		{"DELETE /v1/admin/venues/{venue}/drain", s.handleUndrainVenue},
		{"POST /v1/admin/venues/{venue}/retrain", s.handleRetrain},
		{"GET /v1/admin/venues/{venue}/retrain", s.handleRetrainStatus},
		{"POST /v1/admin/venues/{venue}/feedback", s.handleRetrainFeedback},
	} {
		routes = append(routes, route{rt.pattern, httpapi.Admin(s.adminToken, rt.h)})
	}
	return routes
}

// handleSnapshotVenue serves the admin snapshot trigger: persist one
// venue's live state to the -snapshot-dir now (on top of the periodic
// and shutdown snapshots), e.g. ahead of a planned kill or a venue
// migration. Token-gated like the other mutating admin endpoints.
func (s *server) handleSnapshotVenue(w http.ResponseWriter, r *http.Request) {
	if s.snapshotDir == "" {
		httpapi.WriteError(w, r, http.StatusConflict,
			errors.New("snapshot persistence disabled: start msserve with -snapshot-dir"))
		return
	}
	id := r.PathValue("venue")
	// Sample the counters before the write: traffic landing during the
	// snapshot re-marks the venue stale, never silently fresh.
	var stats c2mn.EngineStats
	if e, err := s.registry.Engine(id); err == nil {
		stats = e.Stats()
	}
	path, err := s.registry.SnapshotVenue(id, s.snapshotDir)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, c2mn.ErrUnknownVenue) {
			status = http.StatusNotFound
		}
		httpapi.WriteError(w, r, status, err)
		return
	}
	s.snaps.record(id, stats)
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": id, "status": "snapshotted", "path": path})
}

// handleGetSnapshotFile streams a venue's on-disk snapshot bytes —
// the transfer leg of a live migration. It serves whatever the
// snapshot directory holds; callers wanting the current state POST
// the snapshot trigger first. Token-gated: the snapshot is the
// venue's full serving state.
func (s *server) handleGetSnapshotFile(w http.ResponseWriter, r *http.Request) {
	if s.snapshotDir == "" {
		httpapi.WriteError(w, r, http.StatusConflict,
			errors.New("snapshot persistence disabled: start msserve with -snapshot-dir"))
		return
	}
	id := r.PathValue("venue")
	path := c2mn.SnapshotPath(s.snapshotDir, id)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			httpapi.WriteError(w, r, http.StatusNotFound,
				fmt.Errorf("no snapshot file for venue %q (trigger POST /v1/admin/venues/%s/snapshot first)", id, id))
			return
		}
		httpapi.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		httpapi.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, filepath.Base(path), fi.ModTime(), f)
}

// handlePutSnapshotFile restores an uploaded snapshot into the venue
// — the landing leg of a live migration. The venue must be loaded
// (the snapshot carries serving state, not the model) and cold; the
// snapshot format's venue/space/model-hash guards refuse a payload
// captured from any other venue identity with a typed error, so a
// misrouted upload cannot corrupt state. On success the bytes are
// also persisted to the snapshot directory (when one is configured),
// so a crash right after the restore still reboots warm.
func (s *server) handlePutSnapshotFile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("venue")
	e, err := s.registry.Engine(id)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusNotFound, err)
		return
	}
	body, ok := httpapi.ReadBody(w, r, s.maxBody, "snapshot")
	if !ok {
		return
	}
	if err := e.RestoreSnapshot(bytes.NewReader(body)); err != nil {
		switch {
		case errors.Is(err, c2mn.ErrSnapshotMismatch), errors.Is(err, c2mn.ErrSnapshotConflict):
			httpapi.WriteError(w, r, http.StatusConflict, err)
		case errors.Is(err, c2mn.ErrSnapshotCorrupt), errors.Is(err, c2mn.ErrSnapshotVersion):
			httpapi.WriteError(w, r, http.StatusUnprocessableEntity, err)
		default:
			httpapi.WriteError(w, r, http.StatusInternalServerError, err)
		}
		return
	}
	if s.snapshotDir != "" {
		path := c2mn.SnapshotPath(s.snapshotDir, id)
		tmp := path + ".up"
		if err := os.WriteFile(tmp, body, 0o644); err == nil {
			if err := os.Rename(tmp, path); err != nil {
				os.Remove(tmp)
				log.Printf("persisting uploaded snapshot for %q: %v", id, err)
			}
		} else {
			log.Printf("persisting uploaded snapshot for %q: %v", id, err)
		}
	}
	s.snaps.record(id, e.Stats())
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venue": id, "status": "restored", "bytes": len(body)})
}

// handleDrainVenue marks a venue draining: new /feed traffic is
// rejected (503 + Retry-After without a cutover target, 307 → the
// new owner once redirect_to is set by a second call), while
// annotation and queries keep serving from the frozen state. The
// migration coordinator calls it twice: once to quiesce before the
// snapshot, once more after the restore to point stragglers at the
// new owner.
func (s *server) handleDrainVenue(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("venue")
	if _, err := s.registry.Engine(id); err != nil {
		httpapi.WriteError(w, r, http.StatusNotFound, err)
		return
	}
	var req struct {
		RedirectTo string `json:"redirect_to"`
	}
	if r.ContentLength != 0 && !httpapi.DecodeBody(w, r, s.maxBody, &req) {
		return
	}
	s.drainMu.Lock()
	s.draining[id] = strings.TrimSuffix(req.RedirectTo, "/")
	s.drainMu.Unlock()
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": id, "status": "draining", "redirect_to": req.RedirectTo})
}

// handleUndrainVenue cancels a drain (aborted migration): the venue
// accepts /feed traffic again.
func (s *server) handleUndrainVenue(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("venue")
	s.drainMu.Lock()
	_, was := s.draining[id]
	delete(s.draining, id)
	s.drainMu.Unlock()
	if !was {
		httpapi.WriteError(w, r, http.StatusNotFound, fmt.Errorf("venue %q is not draining", id))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": id, "status": "accepting"})
}

// handleReadyz is the readiness probe: 200 while the process should
// receive new traffic, 503 once the shutdown drain started (or before
// warm boot completed). Liveness (/healthz) is deliberately separate
// and never flips — a draining process is still alive.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	httpapi.NoStore(w)
	if s.ready.Load() {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpapi.NoStore(w)
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// venueID resolves the request's venue: the path segment, then the
// query parameter, then — when exactly one venue is loaded — that
// venue. The empty string with a nil error means "not specified and
// ambiguous" is impossible: an error is always returned instead.
func (s *server) venueID(r *http.Request) (string, error) {
	if v := r.PathValue("venue"); v != "" {
		return v, nil
	}
	if v := r.URL.Query().Get("venue"); v != "" {
		return v, nil
	}
	if ids := s.registry.Venues(); len(ids) == 1 {
		return ids[0], nil
	}
	return "", fmt.Errorf("venue required: pass /venues/{venue}/... or ?venue= (loaded: %s)",
		strings.Join(s.registry.Venues(), ", "))
}

// engine resolves the request's venue engine, writing the error
// response (400 for a missing venue spec, 404 for an unknown one)
// itself. The bool reports success.
func (s *server) engine(w http.ResponseWriter, r *http.Request) (*c2mn.Engine, string, bool) {
	id, err := s.venueID(r)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return nil, "", false
	}
	e, err := s.registry.Engine(id)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusNotFound, err)
		return nil, "", false
	}
	return e, id, true
}

// Wire types. Records are flat {x, y, floor, t} objects; timestamps
// are seconds, as everywhere in the package.
type wireRecord struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int     `json:"floor"`
	T     float64 `json:"t"`
}

type sequenceRequest struct {
	ObjectID string       `json:"object_id"`
	Records  []wireRecord `json:"records"`
}

type wireSemantics struct {
	Region     int     `json:"region"`
	RegionName string  `json:"region_name,omitempty"`
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	Event      string  `json:"event"`
}

type annotateResponse struct {
	Venue     string          `json:"venue"`
	ObjectID  string          `json:"object_id"`
	Regions   []int           `json:"regions"`
	Events    []string        `json:"events"`
	Semantics []wireSemantics `json:"semantics"`
}

func (s *server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	e, venue, ok := s.engine(w, r)
	if !ok {
		return
	}
	req, ok := s.decodeSequence(w, r)
	if !ok {
		return
	}
	p := toPSequence(req)
	labels, ms, err := e.AnnotateCtx(r.Context(), &p)
	if err != nil {
		writeAnnotateError(w, r, err)
		return
	}
	resp := annotateResponse{
		Venue:     venue,
		ObjectID:  p.ObjectID,
		Regions:   make([]int, len(labels.Regions)),
		Events:    make([]string, len(labels.Events)),
		Semantics: wireSemanticsOf(e, ms),
	}
	for i, rg := range labels.Regions {
		resp.Regions[i] = int(rg)
	}
	for i, ev := range labels.Events {
		resp.Events[i] = ev.String()
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

type feedResponse struct {
	Venue              string `json:"venue"`
	Fed                int    `json:"fed"`
	CompletedSequences int    `json:"completed_sequences"`
}

func (s *server) handleFeed(w http.ResponseWriter, r *http.Request) {
	e, venue, ok := s.engine(w, r)
	if !ok {
		return
	}
	if redirect, draining := s.drainState(venue); draining {
		// Migration in progress: before cutover the state is about to
		// be snapshotted here (retry shortly), after cutover it lives
		// at the new owner (follow the redirect with the same body).
		if redirect != "" {
			w.Header().Set("Location", redirect+"/v1/venues/"+url.PathEscape(venue)+"/feed")
			httpapi.WriteError(w, r, http.StatusTemporaryRedirect,
				fmt.Errorf("%w: venue %q moved to %s", httpapi.ErrVenueDraining, venue, redirect))
			return
		}
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("%w: venue %q is migrating, retry shortly", httpapi.ErrVenueDraining, venue))
		return
	}
	req, ok := s.decodeSequence(w, r)
	if !ok {
		return
	}
	p := toPSequence(req)
	// The response uses only this call's counts — no engine-wide stats
	// scan on the ingestion hot path.
	completed, err := e.FeedAll(p.ObjectID, p.Records)
	if err != nil {
		// Partial success: valid records were ingested and may have
		// emitted sequences. Report the counts with the error so the
		// client knows not to blindly re-feed the batch.
		s.writeIngestError(w, r, err, feedResponse{Venue: venue, Fed: len(p.Records), CompletedSequences: completed})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, feedResponse{
		Venue:              venue,
		Fed:                len(p.Records),
		CompletedSequences: completed,
	})
}

// writeIngestError reports a partial-success ingestion failure (feed
// or flush) alongside its counts payload. A backlogged venue
// (feed-timeout exceeded waiting for an inference slot) is load
// shedding, not a client mistake: 429 + Retry-After instead of 422.
func (s *server) writeIngestError(w http.ResponseWriter, r *http.Request, err error, payload any) {
	status := http.StatusUnprocessableEntity
	if errors.Is(err, c2mn.ErrBacklog) {
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", s.retryAfterSecs)
	}
	writeErrorWith(w, r, status, err, payload)
}

// writeErrorWith writes the typed error next to a partial-success
// payload's fields. payload must marshal to a JSON object without an
// "error" key.
func writeErrorWith(w http.ResponseWriter, r *http.Request, status int, err error, payload any) {
	body := map[string]any{}
	if buf, merr := json.Marshal(payload); merr == nil {
		// Best-effort: a payload that does not marshal still reports
		// the error below.
		json.Unmarshal(buf, &body)
	}
	body["error"] = httpapi.ErrorOf(r, status, err)
	httpapi.WriteJSON(w, status, body)
}

type flushResponse struct {
	Venues           int   `json:"venues"`
	PendingRecords   int   `json:"pending_records"`
	EmittedSequences int64 `json:"emitted_sequences"`
}

// handleFlush flushes one venue when specified, every venue otherwise.
// The response totals pending records and emitted sequences across the
// flushed venues. Flushing all venues keeps going past a failing one —
// a bad fragment in venue A must not leave venue B's streams open —
// and reports the joined errors alongside the counts.
func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	var ids []string
	explicit := false
	if v := r.PathValue("venue"); v != "" {
		ids, explicit = []string{v}, true
	} else if v := r.URL.Query().Get("venue"); v != "" {
		ids, explicit = []string{v}, true
	} else {
		ids = s.registry.Venues()
	}
	resp := flushResponse{}
	var errs []error
	for _, id := range ids {
		e, err := s.registry.Engine(id)
		if err != nil {
			if explicit {
				httpapi.WriteError(w, r, http.StatusNotFound, err)
				return
			}
			continue // unloaded between listing and flush
		}
		resp.Venues++
		if err := e.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("venue %q: %w", id, err))
		}
		st := e.Stats()
		resp.PendingRecords += st.PendingRecords
		resp.EmittedSequences += st.EmittedSequences
	}
	if len(errs) > 0 {
		s.writeIngestError(w, r, errors.Join(errs...), resp)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// storeETag renders the freshness validator of a query answer over the
// scanned venues: `"<venue>:<generation>"` for one venue, a
// venue-sorted `"a:3;b:7"` composite for cross-venue scopes. Venue IDs
// are query-escaped so an ID containing the separators cannot make two
// distinct fleet states render the same validator. The bool is false
// when a scanned venue has no sampled generation (loaded mid-request);
// such an answer goes out without a validator rather than with a
// wrong one.
func storeETag(scanned []string, gens map[string]uint64) (string, bool) {
	if len(scanned) == 0 {
		return "", false
	}
	ids := append([]string(nil), scanned...)
	sort.Strings(ids)
	var sb strings.Builder
	sb.WriteByte('"')
	for i, id := range ids {
		g, ok := gens[id]
		if !ok {
			return "", false
		}
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(url.QueryEscape(id))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatUint(g, 10))
	}
	sb.WriteByte('"')
	return sb.String(), true
}

// etagMatches implements the If-None-Match comparison: a literal `*`
// matches anything, otherwise any listed validator may match. Weak
// validators (`W/"..."`) compare by their opaque part — the generation
// validator is exact, so weak comparison is sound for it.
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// writeFreshness stamps the answer's validator and, when the request
// carried a matching If-None-Match, short-circuits with 304 Not
// Modified. It reports whether the response was finished here. The
// query has already executed by then — at an unchanged generation that
// execution was an LRU hit, so the 304 path stays cheap — and the
// scanned venues' revalidation counters are bumped so both cache tiers
// are observable. gens is the result's own Generations map, captured
// atomically with the answer bytes, so the ETag labels exactly the
// bytes it validates and matches the /v1/watch event id for the same
// fleet state.
func (s *server) writeFreshness(w http.ResponseWriter, r *http.Request, scanned []string, gens map[string]uint64) bool {
	etag, ok := storeETag(scanned, gens)
	if !ok {
		return false
	}
	w.Header().Set("ETag", etag)
	if !etagMatches(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	for _, id := range scanned {
		if e, err := s.registry.Engine(id); err == nil {
			e.RecordQueryRevalidation()
		}
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

// handleQuery serves POST /v1/query: decode the Query (or resume a
// cursor), execute it through the registry's single entry point, and
// page the ranked list.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req httpapi.QueryRequest
	if !httpapi.DecodeBody(w, r, s.maxBody, &req) {
		return
	}
	q, pageSize, offset, err := req.Resolve()
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	res, err := s.registry.Query(r.Context(), q)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	if s.writeFreshness(w, r, res.Scanned, res.Generations) {
		return
	}
	resp, err := httpapi.Page(res, q, pageSize, offset)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// writeQueryError maps VenueRegistry.Query failures onto statuses.
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, c2mn.ErrInvalidQuery):
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
	case errors.Is(err, c2mn.ErrUnknownVenue):
		httpapi.WriteError(w, r, http.StatusNotFound, err)
	case errors.Is(err, c2mn.ErrCanceled):
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, err)
	default:
		httpapi.WriteError(w, r, http.StatusUnprocessableEntity, err)
	}
}

type regionCountResponse struct {
	Region     int    `json:"region"`
	RegionName string `json:"region_name,omitempty"`
	Count      int    `json:"count"`
}

func (s *server) handlePopularRegions(w http.ResponseWriter, r *http.Request) {
	res, space, ok := s.runTopKSugar(w, r, c2mn.QueryPopularRegions)
	if !ok {
		return
	}
	out := make([]regionCountResponse, len(res.Regions))
	for i, rc := range res.Regions {
		out[i] = regionCountResponse{
			Region:     int(rc.Region),
			RegionName: regionName(space, rc.Region),
			Count:      rc.Count,
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

type pairCountResponse struct {
	A     int    `json:"a"`
	AName string `json:"a_name,omitempty"`
	B     int    `json:"b"`
	BName string `json:"b_name,omitempty"`
	Count int    `json:"count"`
}

func (s *server) handleFrequentPairs(w http.ResponseWriter, r *http.Request) {
	res, space, ok := s.runTopKSugar(w, r, c2mn.QueryFrequentPairs)
	if !ok {
		return
	}
	out := make([]pairCountResponse, len(res.Pairs))
	for i, pc := range res.Pairs {
		out[i] = pairCountResponse{
			A: int(pc.A), AName: regionName(space, pc.A),
			B: int(pc.B), BName: regionName(space, pc.B),
			Count: pc.Count,
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// runTopKSugar executes a GET query sugar route through the unified
// query path, writing the error response itself on failure. The
// returned Space resolves region names when exactly one venue was
// scanned; it is nil for wider scans, whose merged rows have no
// single naming venue.
func (s *server) runTopKSugar(w http.ResponseWriter, r *http.Request, kind c2mn.QueryKind) (c2mn.QueryResult, *c2mn.Space, bool) {
	scope, venues, err := s.sugarScope(r)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return c2mn.QueryResult{}, nil, false
	}
	regions, win, k, err := httpapi.SugarParams(r)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return c2mn.QueryResult{}, nil, false
	}
	res, err := s.registry.Query(r.Context(), c2mn.Query{
		Kind: kind, Scope: scope, Venues: venues,
		Regions: regions, Window: win, K: k,
	})
	if err != nil {
		writeQueryError(w, r, err)
		return c2mn.QueryResult{}, nil, false
	}
	if s.writeFreshness(w, r, res.Scanned, res.Generations) {
		return c2mn.QueryResult{}, nil, false
	}
	var space *c2mn.Space
	if len(res.Scanned) == 1 {
		// One scanned venue — whatever scope phrased it — names the rows.
		if e, err := s.registry.Engine(res.Scanned[0]); err == nil {
			space = e.Space()
		}
	}
	return res, space, true
}

// sugarScope resolves a query GET's scope: the cross-venue forms
// ?venues=a,b and ?scope=fleet first (they have no single-venue
// equivalent), then the shared single-venue resolution chain of
// venueID — path segment, ?venue=, sole loaded venue.
func (s *server) sugarScope(r *http.Request) (c2mn.QueryScope, []string, error) {
	if r.PathValue("venue") == "" && r.URL.Query().Get("venue") == "" {
		vals := r.URL.Query()
		if v := vals.Get("venues"); v != "" {
			return c2mn.ScopeVenues, strings.Split(v, ","), nil
		}
		switch sc := vals.Get("scope"); sc {
		case "fleet":
			return c2mn.ScopeFleet, nil, nil
		case "":
		default:
			return "", nil, fmt.Errorf("bad scope %q (only \"fleet\" may be given without venues)", sc)
		}
	}
	id, err := s.venueID(r)
	if err != nil {
		return "", nil, fmt.Errorf("%w — or pass ?venues=a,b / ?scope=fleet for a cross-venue query", err)
	}
	return c2mn.ScopeVenue, []string{id}, nil
}

// statsResponse breaks the pipeline counters down per venue and sums
// them for the fleet view.
type statsResponse struct {
	Venues map[string]c2mn.EngineStats `json:"venues"`
	Totals c2mn.EngineStats            `json:"totals"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	httpapi.NoStore(w)
	per := s.registry.Stats()
	resp := statsResponse{Venues: per}
	for _, st := range per {
		resp.Totals.Add(st)
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleVenueStats(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.engine(w, r)
	if !ok {
		return
	}
	httpapi.NoStore(w)
	httpapi.WriteJSON(w, http.StatusOK, e.Stats())
}

// venueInfo is one row of the /venues listing. The snapshot columns
// report durability freshness without touching the disk or forcing a
// snapshot: last_snapshot_unix is when the venue's state was last
// persisted (absent if never in this process's lifetime), and
// snapshot_stale is true while the pipeline counters have moved since
// — i.e. a crash right now would lose something.
type venueInfo struct {
	Venue   string           `json:"venue"`
	Regions int              `json:"regions"`
	Stats   c2mn.EngineStats `json:"stats"`
	// StoreGeneration is the venue's query-store content generation —
	// the value behind the ETag validator on the query surface. A
	// client holding a response tagged with this generation knows it is
	// still current.
	StoreGeneration  uint64 `json:"store_generation"`
	LastSnapshotUnix int64  `json:"last_snapshot_unix,omitempty"`
	SnapshotStale    bool   `json:"snapshot_stale"`
	Draining         bool   `json:"draining,omitempty"`
	// Model identity: which model the venue serves with right now.
	// The hash changes when an operator reload or a retraining hot
	// swap rotates the model; swap_count/retrained_at_unix attribute
	// rotations to the retraining loop specifically.
	ModelHash       string `json:"model_hash"`
	ModelVersion    int    `json:"model_version"`
	SwapCount       int64  `json:"swap_count"`
	RetrainedAtUnix int64  `json:"retrained_at_unix,omitempty"`
}

func (s *server) handleListVenues(w http.ResponseWriter, r *http.Request) {
	httpapi.NoStore(w)
	ids := s.registry.Venues()
	out := make([]venueInfo, 0, len(ids))
	for _, id := range ids {
		e, err := s.registry.Engine(id)
		if err != nil {
			continue // unloaded between listing and lookup
		}
		stats := e.Stats()
		info := venueInfo{
			Venue:           id,
			Regions:         len(e.Space().Regions()),
			Stats:           stats,
			StoreGeneration: e.StoreGeneration(),
			SnapshotStale:   true, // until a recorded snapshot proves otherwise
		}
		if rec, ok := s.snaps.get(id); ok {
			info.LastSnapshotUnix = rec.unix
			info.SnapshotStale = pipelineFingerprint(rec.stats) != pipelineFingerprint(stats)
		}
		if mi, err := s.registry.VenueModel(id); err == nil {
			info.ModelHash = mi.ModelHash
			info.ModelVersion = mi.ModelVersion
			info.SwapCount = mi.SwapCount
			info.RetrainedAtUnix = mi.RetrainedAtUnix
		}
		_, info.Draining = s.drainState(id)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Venue < out[j].Venue })
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venues": out})
}

// loadVenueRequest is the admin body for POST /v1/admin/venues:
// server-side file paths of a space and a model saved with
// Annotator.Save. Loading an already-loaded venue ID hot-reloads it.
type loadVenueRequest struct {
	Venue string `json:"venue"`
	Space string `json:"space"`
	Model string `json:"model"`
}

func (s *server) handleLoadVenue(w http.ResponseWriter, r *http.Request) {
	var req loadVenueRequest
	if !httpapi.DecodeBody(w, r, s.maxBody, &req) {
		return
	}
	if req.Venue == "" || req.Space == "" || req.Model == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("venue, space and model are required"))
		return
	}
	if err := loadVenueFiles(s.registry, req.Venue, req.Space, req.Model); err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, c2mn.ErrTooManyVenues) {
			status = http.StatusConflict
		}
		httpapi.WriteError(w, r, status, err)
		return
	}
	// A (re)loaded venue starts with a fresh engine: any previous
	// drain state or snapshot freshness no longer describes it, and
	// standing watches cannot patch their answers across the swap —
	// they resync.
	s.drainMu.Lock()
	delete(s.draining, req.Venue)
	s.drainMu.Unlock()
	s.snaps.forget(req.Venue)
	s.watchHub.Invalidate(req.Venue)
	httpapi.WriteJSON(w, http.StatusCreated, map[string]string{"venue": req.Venue, "status": "loaded"})
}

func (s *server) handleUnloadVenue(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("venue")
	if err := s.registry.Unload(id); err != nil {
		httpapi.WriteError(w, r, http.StatusNotFound, err)
		return
	}
	// The drain state and snapshot bookkeeping belong to the unloaded
	// engine; a later reload of the same ID starts clean.
	s.drainMu.Lock()
	delete(s.draining, id)
	s.drainMu.Unlock()
	s.snaps.forget(id)
	// Standing watches on the venue re-execute, find it gone, and close
	// with a goodbye — the client's signal to re-resolve ownership.
	s.watchHub.Invalidate(id)
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": id, "status": "unloaded"})
}

func regionName(sp *c2mn.Space, id c2mn.RegionID) string {
	if sp == nil || id == c2mn.NoRegion {
		return ""
	}
	return sp.Region(id).Name
}

func wireSemanticsOf(e *c2mn.Engine, ms c2mn.MSSequence) []wireSemantics {
	out := make([]wireSemantics, len(ms.Semantics))
	for i, m := range ms.Semantics {
		out[i] = wireSemantics{
			Region:     int(m.Region),
			RegionName: regionName(e.Space(), m.Region),
			Start:      m.Start,
			End:        m.End,
			Event:      m.Event.String(),
		}
	}
	return out
}

func (s *server) decodeSequence(w http.ResponseWriter, r *http.Request) (sequenceRequest, bool) {
	var req sequenceRequest
	if !httpapi.DecodeBody(w, r, s.maxBody, &req) {
		return req, false
	}
	if req.ObjectID == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("object_id is required"))
		return req, false
	}
	return req, true
}

func toPSequence(req sequenceRequest) c2mn.PSequence {
	p := c2mn.PSequence{ObjectID: req.ObjectID, Records: make([]c2mn.Record, len(req.Records))}
	for i, rec := range req.Records {
		p.Records[i] = c2mn.Record{Loc: c2mn.Loc(rec.X, rec.Y, rec.Floor), T: rec.T}
	}
	return p
}

// writeAnnotateError maps the typed annotation errors to statuses:
// client mistakes (empty or invalid sequences) are 4xx, cancellation —
// normally the client having gone away — is 499-style.
func writeAnnotateError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, c2mn.ErrEmptySequence):
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
	case errors.Is(err, c2mn.ErrCanceled):
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, err)
	case errors.Is(err, c2mn.ErrNoModel):
		httpapi.WriteError(w, r, http.StatusInternalServerError, err)
	default:
		httpapi.WriteError(w, r, http.StatusUnprocessableEntity, err)
	}
}
