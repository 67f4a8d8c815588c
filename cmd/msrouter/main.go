// Command msrouter is the stateless routing tier in front of a fleet
// of msserve backends. It owns no venue state: it keeps a backend
// table, health-checks each backend's /readyz, learns which backend
// hosts which venue, and places every venue on exactly one backend by
// rendezvous (highest-random-weight) hashing — overridable per venue
// with an explicit pin. Because the placement function is
// deterministic and stateless, any number of router instances (and
// any restart) compute the same routing.
//
// Usage:
//
//	msrouter -addr :9090 \
//	         -backends http://10.0.0.7:8080,http://10.0.0.8:8080 \
//	         -backend-token $MSSERVE_ADMIN_TOKEN
//
// The full msserve /v1 tree is proxied. Venue-scoped requests forward
// to the owning backend with bounded, jittered retries on connection
// errors only — an HTTP response, 429 backpressure included, is the
// backend's answer and passes through with its Retry-After untouched.
// Fleet- and multi-venue queries scatter across the owning backends,
// fetch one untruncated partial per backend — pre-merged there over
// its share of the venues — and merge them exactly: the answer is
// byte-identical to a single msserve holding every venue.
//
// GET /v1/watch (and /v1/venues/{venue}/watch) serves the fleet
// continuous-query plane: one client SSE stream multiplexed over
// per-owner upstream /v1/watch subscriptions, folded through the same
// exact merge path, resubscribing transparently through migration
// cutover and backend death via Last-Event-ID resume.
//
// Router-specific endpoints (the router's own admin plane lives under
// /v1/admin/; outside /v1/ only the bare probes are mounted):
//
//	GET    /v1/admin/backends      backend table with health + hosted venues
//	POST   /v1/admin/backends      {"url"}: add a backend
//	DELETE /v1/admin/backends?url= remove a backend
//	GET    /v1/admin/assignments   venue → backend placement (pins marked)
//	POST   /v1/admin/pins          {"venue","backend"}: pin a venue
//	DELETE /v1/admin/pins?venue=   drop a pin (placement reverts to HRW)
//	POST   /v1/admin/migrate       {"venue","to"}: live-migrate a venue
//	GET    /healthz                router liveness
//	GET    /readyz                 503 until at least one backend is ready
//
// The backends' consolidated /v1/admin/venues/{venue}/... tree proxies
// through to the venue's owner, with one router-side guard: a retrain
// trigger (POST .../retrain) against a venue mid-migration answers 409
// migration_conflict before reaching the backend — a hot swap landing
// under a migration would rotate the model the snapshot's identity
// guards were checked against.
//
// A migration drains the venue on its current owner, waits for the
// pipeline to settle, snapshots, transfers the snapshot to the target
// (which must hold the venue cold — loaded, never fed), restores it
// there, pins the venue, and retires the source copy; feeds arriving
// mid-migration get retryable 503s before cutover and 307s to the new
// owner after. Queries answer throughout.
//
// -admin-token gates the router's own admin plane; -backend-token is
// presented to the backends' admin endpoints (their -admin-token)
// during migrations and when proxying admin requests is not enough.
//
// On SIGINT/SIGTERM the router stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"c2mn/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msrouter: ")

	addr := flag.String("addr", ":9090", "listen address")
	backends := flag.String("backends", "", "comma-separated msserve base URLs (http://host:port)")
	adminToken := flag.String("admin-token", os.Getenv("MSROUTER_ADMIN_TOKEN"),
		"bearer token required on the router's /v1/admin endpoints (empty = open)")
	backendToken := flag.String("backend-token", os.Getenv("MSSERVE_ADMIN_TOKEN"),
		"bearer token the router presents to backend admin endpoints during migrations")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "backend health-check period")
	retries := flag.Int("retries", 2, "retries per forwarded request on connection errors (never on HTTP responses)")
	maxBody := flag.Int64("max-body", 32<<20, "maximum buffered request body size in bytes")
	settleDelay := flag.Duration("settle-delay", 100*time.Millisecond,
		"delay between the stats polls that decide a draining venue has quiesced")
	watchHeartbeat := flag.Duration("watch-heartbeat", 15*time.Second,
		"comment-frame heartbeat period on /v1/watch client streams")
	watchIdleTimeout := flag.Duration("watch-idle-timeout", 60*time.Second,
		"abandon and resubscribe an upstream watch stream after this long without any frame (must exceed the backends' -watch-heartbeat)")
	watchConnectTimeout := flag.Duration("watch-connect-timeout", 15*time.Second,
		"end a /v1/watch client stream with a goodbye if any watched venue's first snapshot is still missing after this long")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this separate address (e.g. localhost:6061); never exposed on -addr (empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}
	var list []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			list = append(list, u)
		}
	}
	rt, err := router.New(router.Config{
		Backends:            list,
		AdminToken:          *adminToken,
		BackendToken:        *backendToken,
		HealthInterval:      *healthInterval,
		Retries:             *retries,
		MaxBody:             *maxBody,
		SettleDelay:         *settleDelay,
		WatchHeartbeat:      *watchHeartbeat,
		WatchIdleTimeout:    *watchIdleTimeout,
		WatchConnectTimeout: *watchConnectTimeout,
		Logf:                log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	srv := &http.Server{Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d backend(s) on %s", len(list), ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	// Standing watch streams never go idle; tell them to say goodbye
	// before Shutdown starts counting, or the drain always times out.
	rt.StopWatches()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	log.Print("drained, bye")
}

// startPprof serves the net/http/pprof endpoints on their own listener
// and mux — never on the public -addr server, which fronts untrusted
// traffic. The explicit mux keeps the profiling surface disjoint from
// http.DefaultServeMux registrations.
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
