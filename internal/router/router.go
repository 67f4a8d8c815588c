package router

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/lru"
)

// Config tunes a Router. The zero value of every optional field picks
// a sensible default (see New).
type Config struct {
	// Backends seeds the backend table with msserve base URLs
	// (e.g. "http://10.0.0.7:8080"). More can be added and removed at
	// runtime through /v1/admin/backends.
	Backends []string

	// AdminToken gates the router's own /v1/admin plane behind
	// `Authorization: Bearer <token>`. Empty leaves it open.
	AdminToken string

	// BackendToken is the bearer token the router presents on the
	// backend admin calls a migration makes (drain, snapshot,
	// transfer, restore, unload). Empty sends no Authorization header;
	// it must match the backends' -admin-token.
	BackendToken string

	// HealthInterval is the period of the background health sweep
	// (default 2s). Each sweep probes every backend's /readyz and,
	// when ready, refreshes its hosted-venue list from /v1/venues.
	HealthInterval time.Duration

	// Retries bounds how many times a forwarded request is retried on
	// a transport error — connection refused/reset before any response
	// byte — with jittered exponential backoff (default 2). HTTP error
	// responses, 429 backpressure included, are never retried: the
	// backend answered, and its Retry-After belongs to the client.
	Retries int

	// MaxBody caps buffered request bodies (default 32 MiB). Bodies
	// are buffered so a transport-level retry can replay them.
	MaxBody int64

	// SettleDelay is how long the migration coordinator waits between
	// the stats samples it compares to decide the drained venue has
	// quiesced (default 100ms; tests shrink it).
	SettleDelay time.Duration

	// WatchHeartbeat is the comment-frame heartbeat period on client
	// /v1/watch streams (default 15s; tests shrink it). Upstream
	// subscriptions inherit the backends' own cadence.
	WatchHeartbeat time.Duration

	// WatchIdleTimeout bounds how long a venue's upstream watch
	// subscription may go without a single frame — event or heartbeat —
	// before the relay abandons the connection and resubscribes through
	// owner resolution (default 60s: four missed 15s upstream
	// heartbeats). A stream can only trip it when its backend stops
	// producing entirely: a wedged process, or a half-open connection
	// left by a peer that died without closing. The same watchdog also
	// rechecks ownership, unparking relays left on a backend that still
	// hosts a venue it no longer owns (a health flap or re-pin while the
	// stale stream keeps heartbeating).
	WatchIdleTimeout time.Duration

	// WatchConnectTimeout bounds the initial gather of a client
	// /v1/watch stream: every watched venue must deliver its first
	// upstream snapshot within it (default 15s). A venue whose owner
	// never resolves — its backend down and staying down — would
	// otherwise leave the stream heartbeating forever with no data,
	// where the poll path returns an error; past the deadline the
	// stream ends with a terminal goodbye and the client's reconnect
	// retries against whatever has recovered.
	WatchConnectTimeout time.Duration

	// Client issues every backend request. The default disables
	// automatic redirect following — the router re-forwards
	// mid-migration 307s itself, exactly once — and runs on its own
	// transport, whose idle pool per backend is sized for the router's
	// fan-out rather than http.DefaultTransport's two connections.
	Client *http.Client

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Router is the stateless routing tier. Create with New, mount as an
// http.Handler, and run the health loop with Run.
type Router struct {
	cfg     Config
	client  *http.Client
	handler http.Handler // the route table behind httpapi.Wrap

	mu        sync.RWMutex
	backends  map[string]*backendState
	pins      map[string]string // venue → backend URL, overriding HRW
	migrating map[string]bool   // venues with an in-flight migration

	// Scatter partial cache (see scatter.go): per-(backend, venue group)
	// partials keyed by the canonical sub-query body and validated
	// against the owning backend's ETag with conditional requests, so a
	// fleet query only re-fetches groups in which a store actually
	// moved.
	partialMu sync.Mutex
	partials  *lru.Cache[string, scatterPartial]

	// Partial-cache counters, reported on /v1/admin/backends.
	partialHits   atomic.Int64 // 304: cached partial reused as-is
	partialMisses atomic.Int64 // full fetch: cold key or moved store
	partialRevals atomic.Int64 // conditional requests sent
	subRequests   atomic.Int64 // sub-queries sent, conditional or not
	decodedBytes  atomic.Int64 // bytes of fetched partials decoded

	// watchStop is closed by StopWatches when the router drains; open
	// /v1/watch client streams emit a terminal goodbye and return so
	// the HTTP server's Shutdown wait covers them (see watch.go).
	watchStop     chan struct{}
	watchStopOnce sync.Once
}

// backendIdleConns is how many idle connections the router's own
// transport keeps per backend.
const backendIdleConns = 32

// backendState is the router's view of one msserve process.
type backendState struct {
	url     string
	ready   bool
	checked time.Time       // last probe
	lastErr string          // last probe failure, "" when healthy
	venues  map[string]bool // hosted venues per the last discovery
}

// New builds a Router over the configured backends. The backend table
// starts entirely unready; call CheckNow (or wait one HealthInterval
// of Run) before routing.
func New(cfg Config) (*Router, error) {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("router: negative retries %d", cfg.Retries)
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 32 << 20
	}
	if cfg.SettleDelay <= 0 {
		cfg.SettleDelay = 100 * time.Millisecond
	}
	if cfg.WatchHeartbeat <= 0 {
		cfg.WatchHeartbeat = 15 * time.Second
	}
	if cfg.WatchIdleTimeout <= 0 {
		cfg.WatchIdleTimeout = 60 * time.Second
	}
	if cfg.WatchConnectTimeout <= 0 {
		cfg.WatchConnectTimeout = 15 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
		// http.DefaultTransport keeps 2 idle connections per host; a
		// router talks to a handful of hosts on many connections at once
		// (proxied clients, scatter sub-queries, probes) and would re-dial
		// for most of them.
		if dt, ok := http.DefaultTransport.(*http.Transport); ok {
			tr := dt.Clone()
			tr.MaxIdleConnsPerHost = backendIdleConns
			client.Transport = tr
		}
	}
	if client.CheckRedirect == nil {
		// Redirects are routing decisions here: a 307 from a draining
		// venue must be re-forwarded by the router, not chased by the
		// transport (which would also leak backend addresses to retry
		// logic).
		client.CheckRedirect = func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}
	}
	rt := &Router{
		cfg:       cfg,
		client:    client,
		backends:  map[string]*backendState{},
		pins:      map[string]string{},
		migrating: map[string]bool{},
		partials:  lru.New[string, scatterPartial](scatterCacheEntries),
		watchStop: make(chan struct{}),
	}
	for _, u := range cfg.Backends {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("router: backend %q: want an http(s) base URL", u)
		}
		rt.backends[u] = &backendState{url: u, venues: map[string]bool{}}
	}
	mux := http.NewServeMux()
	for _, r := range rt.routes() {
		mux.HandleFunc(r.pattern, r.h)
	}
	rt.handler = httpapi.Wrap(mux)
	return rt, nil
}

// ServeHTTP dispatches to the router's route table, stamping every
// request with an X-Request-ID (generated when the client sent none)
// that is echoed on the response and forwarded to the backends.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(httpapi.RequestIDHeader) == "" {
		r.Header.Set(httpapi.RequestIDHeader, newRequestID())
	}
	rt.handler.ServeHTTP(w, r)
}

// newRequestID returns a fresh 16-hex-char request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// route is one mounted pattern of the route table.
type route struct {
	pattern string
	h       http.HandlerFunc
}

// routes lists the route table: the router's own health and admin
// planes, plus the proxied /v1 tree (see proxy.go and scatter.go).
// Outside /v1/ only the bare probes are mounted.
func (rt *Router) routes() []route {
	routes := []route{
		// The router's own probes. Liveness is unconditional; readiness
		// requires at least one ready backend — a router that can place
		// nothing should be pulled from its load balancer.
		{"GET /healthz", rt.handleHealthz},
		{"GET /v1/healthz", rt.handleHealthz},
		{"GET /readyz", rt.handleReadyz},
		{"GET /v1/readyz", rt.handleReadyz},
		// The backends' admin tree (/v1/admin/venues/...) proxies to the
		// venue's owner verbatim — the backend enforces its own token, and
		// the client's Authorization header is forwarded. The venue-scoped
		// subpaths go through the retrain/migration guard.
		{"POST /v1/admin/venues", rt.handleLoadVenue},
		{"/v1/admin/venues/{venue}", rt.handleVenueScoped},
		{"/v1/admin/venues/{venue}/{rest...}", rt.handleAdminVenueScoped},
		// Proxied data plane.
		{"POST /v1/query", rt.handleQuery},
		{"GET /v1/query/popular-regions", rt.handleTopKSugar},
		{"GET /v1/query/frequent-pairs", rt.handleTopKSugar},
		{"GET /v1/stats", rt.handleStats},
		{"GET /v1/venues", rt.handleListVenues},
		{"/v1/venues/{venue}/{rest...}", rt.handleVenueScoped},
		// No data-plane route ends at the venue itself; mounted so the mux
		// answers 404 instead of redirecting into the subtree above.
		{"/v1/venues/{venue}", http.NotFound},
		{"POST /v1/annotate", rt.handleBareVenuePath},
		{"POST /v1/feed", rt.handleBareVenuePath},
		{"POST /v1/flush", rt.handleFlush},
		// Continuous queries: the fleet push plane (see watch.go). The
		// venue-scoped literal pattern outranks the {rest...} catch-all
		// above, so watch streams never hit the buffering proxy path.
		{"GET /v1/watch", rt.handleWatch},
		{"GET /v1/venues/{venue}/watch", rt.handleWatch},
	}
	// The router's own admin plane: backend table, placement,
	// migration, every route behind the one token check.
	for _, a := range []route{
		{"GET /v1/admin/backends", rt.handleListBackends},
		{"POST /v1/admin/backends", rt.handleAddBackend},
		{"DELETE /v1/admin/backends", rt.handleRemoveBackend},
		{"GET /v1/admin/assignments", rt.handleAssignments},
		{"POST /v1/admin/pins", rt.handleSetPin},
		{"DELETE /v1/admin/pins", rt.handleDeletePin},
		{"POST /v1/admin/migrate", rt.handleMigrate},
	} {
		routes = append(routes, route{a.pattern, httpapi.Admin(rt.cfg.AdminToken, a.h)})
	}
	return routes
}

// StopWatches tells every open client watch stream to say goodbye and
// close. Call it when the drain starts, before http.Server.Shutdown —
// standing streams never go idle on their own, so Shutdown would
// otherwise wait out its whole timeout. Idempotent.
func (rt *Router) StopWatches() {
	rt.watchStopOnce.Do(func() { close(rt.watchStop) })
}

// Run drives the health loop until ctx is canceled: one immediate
// sweep so routing works as soon as Run starts, then one per
// HealthInterval.
func (rt *Router) Run(ctx context.Context) {
	rt.CheckNow(ctx)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckNow(ctx)
		}
	}
}

// CheckNow probes every backend once, concurrently: GET /readyz
// decides readiness, and a ready backend's /v1/venues refreshes the
// hosted-venue discovery that fleet queries and HRW placement use.
func (rt *Router) CheckNow(ctx context.Context) {
	rt.mu.RLock()
	urls := make([]string, 0, len(rt.backends))
	for u := range rt.backends {
		urls = append(urls, u)
	}
	rt.mu.RUnlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			rt.probe(ctx, u)
		}(u)
	}
	wg.Wait()
}

// probe checks one backend and folds the result into the table.
func (rt *Router) probe(ctx context.Context, url string) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthInterval)
	defer cancel()
	ready, venues, err := rt.probeBackend(ctx, url)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b, ok := rt.backends[url]
	if !ok {
		return // removed mid-probe
	}
	wasReady := b.ready
	b.checked = time.Now()
	b.ready = ready
	if err != nil {
		b.lastErr = err.Error()
	} else {
		b.lastErr = ""
	}
	if venues != nil {
		b.venues = venues
	}
	if wasReady != ready {
		rt.cfg.Logf("backend %s: ready=%v (%v)", url, ready, err)
	}
}

// probeBackend performs the two probe requests. A nil venues map
// means "no fresh discovery" (keep what we had).
func (rt *Router) probeBackend(ctx context.Context, url string) (ready bool, venues map[string]bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false, nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, nil, fmt.Errorf("readyz: %s", resp.Status)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/venues", nil)
	if err != nil {
		return true, nil, err
	}
	resp, err = rt.client.Do(req)
	if err != nil {
		return true, nil, err
	}
	defer resp.Body.Close()
	var list struct {
		Venues []struct {
			Venue string `json:"venue"`
		} `json:"venues"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return true, nil, fmt.Errorf("decoding venue list: %w", err)
	}
	venues = make(map[string]bool, len(list.Venues))
	for _, v := range list.Venues {
		venues[v.Venue] = true
	}
	return true, venues, nil
}

// markUnreachable flags a backend unready after a forward exhausted
// its retries, so placement stops picking it before the next sweep
// confirms.
func (rt *Router) markUnreachable(url string, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b, ok := rt.backends[url]; ok && b.ready {
		b.ready = false
		b.lastErr = err.Error()
		rt.cfg.Logf("backend %s: marked unready (%v)", url, err)
	}
}

// owner resolves where a venue's traffic goes: the explicit pin if
// one exists, else HRW over the ready backends that host the venue,
// else — for venues nobody hosts yet, e.g. a fresh load — HRW over
// all ready backends. Fails with c2mn.ErrNoBackend when nothing is
// ready (or the pin names a removed backend).
func (rt *Router) owner(venue string) (string, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ownerLocked(venue)
}

func (rt *Router) ownerLocked(venue string) (string, error) {
	if pinned, ok := rt.pins[venue]; ok {
		if _, exists := rt.backends[pinned]; exists {
			return pinned, nil
		}
		return "", fmt.Errorf("%w: venue %q pinned to removed backend %q", c2mn.ErrNoBackend, venue, pinned)
	}
	var hosts, ready []string
	for u, b := range rt.backends {
		if !b.ready {
			continue
		}
		ready = append(ready, u)
		if b.venues[venue] {
			hosts = append(hosts, u)
		}
	}
	if len(hosts) > 0 {
		return RendezvousOwner(venue, hosts), nil
	}
	if len(ready) == 0 {
		return "", fmt.Errorf("%w: routing venue %q", c2mn.ErrNoBackend, venue)
	}
	return RendezvousOwner(venue, ready), nil
}

// knownVenues returns the fleet's venue universe — every venue hosted
// by a ready backend, plus pinned venues — sorted. This is the venue
// list a fleet-scoped query expands to.
func (rt *Router) knownVenues() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	set := map[string]bool{}
	for _, b := range rt.backends {
		if !b.ready {
			continue
		}
		for v := range b.venues {
			set[v] = true
		}
	}
	for v := range rt.pins {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// readyBackends returns the ready backend URLs, sorted.
func (rt *Router) readyBackends() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.backends))
	for u, b := range rt.backends {
		if b.ready {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpapi.NoStore(w)
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	httpapi.NoStore(w)
	if len(rt.readyBackends()) > 0 {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready backends"})
}

// backendInfo is one row of the /v1/admin/backends listing.
type backendInfo struct {
	URL           string   `json:"url"`
	Ready         bool     `json:"ready"`
	LastCheckUnix int64    `json:"last_check_unix,omitempty"`
	LastError     string   `json:"last_error,omitempty"`
	Venues        []string `json:"venues"`
}

func (rt *Router) handleListBackends(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	out := make([]backendInfo, 0, len(rt.backends))
	for _, b := range rt.backends {
		info := backendInfo{URL: b.url, Ready: b.ready, LastError: b.lastErr, Venues: []string{}}
		if !b.checked.IsZero() {
			info.LastCheckUnix = b.checked.Unix()
		}
		for v := range b.venues {
			info.Venues = append(info.Venues, v)
		}
		sort.Strings(info.Venues)
		out = append(out, info)
	}
	rt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	rt.partialMu.Lock()
	entries := rt.partials.Len()
	rt.partialMu.Unlock()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"backends": out,
		"scatter_cache": map[string]any{
			"entries":       entries,
			"hits":          rt.partialHits.Load(),
			"misses":        rt.partialMisses.Load(),
			"revalidations": rt.partialRevals.Load(),
			"sub_requests":  rt.subRequests.Load(),
			"decoded_bytes": rt.decodedBytes.Load(),
		},
	})
}

func (rt *Router) handleAddBackend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if !httpapi.DecodeBody(w, r, rt.cfg.MaxBody, &req) {
		return
	}
	u := strings.TrimSuffix(strings.TrimSpace(req.URL), "/")
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		httpapi.WriteError(w, r, http.StatusBadRequest, fmt.Errorf("backend %q: want an http(s) base URL", req.URL))
		return
	}
	rt.mu.Lock()
	if _, ok := rt.backends[u]; !ok {
		rt.backends[u] = &backendState{url: u, venues: map[string]bool{}}
	}
	rt.mu.Unlock()
	// Probe immediately so the new backend can take traffic without
	// waiting out a health interval.
	rt.probe(r.Context(), u)
	httpapi.WriteJSON(w, http.StatusCreated, map[string]string{"url": u, "status": "added"})
}

func (rt *Router) handleRemoveBackend(w http.ResponseWriter, r *http.Request) {
	u := strings.TrimSuffix(r.URL.Query().Get("url"), "/")
	if u == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("pass ?url=<backend base URL>"))
		return
	}
	rt.mu.Lock()
	_, ok := rt.backends[u]
	delete(rt.backends, u)
	rt.mu.Unlock()
	if !ok {
		httpapi.WriteError(w, r, http.StatusNotFound, fmt.Errorf("backend %q not in the table", u))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"url": u, "status": "removed"})
}

// assignment is one row of the /v1/admin/assignments listing: where a
// venue's traffic currently goes and why.
type assignment struct {
	Venue   string `json:"venue"`
	Backend string `json:"backend,omitempty"`
	Pinned  bool   `json:"pinned,omitempty"`
	Error   string `json:"error,omitempty"`
}

func (rt *Router) handleAssignments(w http.ResponseWriter, r *http.Request) {
	venues := rt.knownVenues()
	out := make([]assignment, 0, len(venues))
	rt.mu.RLock()
	for _, v := range venues {
		row := assignment{Venue: v}
		_, row.Pinned = rt.pins[v]
		b, err := rt.ownerLocked(v)
		if err != nil {
			row.Error = err.Error()
		} else {
			row.Backend = b
		}
		out = append(out, row)
	}
	rt.mu.RUnlock()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"assignments": out})
}

func (rt *Router) handleSetPin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Venue   string `json:"venue"`
		Backend string `json:"backend"`
	}
	if !httpapi.DecodeBody(w, r, rt.cfg.MaxBody, &req) {
		return
	}
	req.Backend = strings.TrimSuffix(req.Backend, "/")
	if req.Venue == "" || req.Backend == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("venue and backend are required"))
		return
	}
	rt.mu.Lock()
	_, known := rt.backends[req.Backend]
	if known {
		rt.pins[req.Venue] = req.Backend
	}
	rt.mu.Unlock()
	if !known {
		httpapi.WriteError(w, r, http.StatusNotFound, fmt.Errorf("backend %q not in the table", req.Backend))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": req.Venue, "backend": req.Backend, "status": "pinned"})
}

func (rt *Router) handleDeletePin(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query().Get("venue")
	if v == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("pass ?venue="))
		return
	}
	rt.mu.Lock()
	_, ok := rt.pins[v]
	delete(rt.pins, v)
	rt.mu.Unlock()
	if !ok {
		httpapi.WriteError(w, r, http.StatusNotFound, fmt.Errorf("venue %q is not pinned", v))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": v, "status": "unpinned"})
}

func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Venue string `json:"venue"`
		To    string `json:"to"`
	}
	if !httpapi.DecodeBody(w, r, rt.cfg.MaxBody, &req) {
		return
	}
	if req.Venue == "" || req.To == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("venue and to are required"))
		return
	}
	report, err := rt.Migrate(r.Context(), req.Venue, strings.TrimSuffix(req.To, "/"))
	if err != nil {
		switch {
		case errors.Is(err, c2mn.ErrMigrationConflict):
			httpapi.WriteError(w, r, http.StatusConflict, err)
		case errors.Is(err, c2mn.ErrNoBackend):
			httpapi.WriteError(w, r, http.StatusServiceUnavailable, err)
		case errors.Is(err, c2mn.ErrUnknownVenue):
			httpapi.WriteError(w, r, http.StatusNotFound, err)
		default:
			httpapi.WriteError(w, r, http.StatusBadGateway, err)
		}
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, report)
}
