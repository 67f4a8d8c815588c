package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/query"
)

// fakeVenue is one venue's worth of canned state on a fake backend.
type fakeVenue struct {
	Regions []c2mn.RegionCount `json:"regions"` // canonical order
	Pairs   []c2mn.PairCount   `json:"pairs"`   // canonical order
	Stats   c2mn.EngineStats   `json:"stats"`
	Gen     uint64             `json:"gen"` // store generation behind the ETag
}

// fakeQuery is one POST /v1/query a fake backend received.
type fakeQuery struct {
	Venues      []string
	IfNoneMatch string
}

// fakeBackend emulates the msserve surface the router touches:
// readiness, venue discovery, the unified query endpoint, per-venue
// stats, feeds, and the migration primitives. It logs every mutating
// call so tests can assert the router's sequencing.
type fakeBackend struct {
	t   testing.TB
	srv *httptest.Server

	mu       sync.Mutex
	venues   map[string]*fakeVenue
	drained  map[string]string // venue -> redirect ("" = plain drain)
	calls    []string
	queries  []fakeQuery
	feedHook func(w http.ResponseWriter, r *http.Request) bool // true = handled
	token    string
}

func newFakeBackend(t testing.TB) *fakeBackend {
	f := &fakeBackend{t: t, venues: map[string]*fakeVenue{}, drained: map[string]string{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/venues", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		ids := make([]string, 0, len(f.venues))
		for id := range f.venues {
			ids = append(ids, id)
		}
		f.mu.Unlock()
		sort.Strings(ids)
		rows := make([]map[string]any, len(ids))
		for i, id := range ids {
			rows[i] = map[string]any{"venue": id}
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venues": rows})
	})
	mux.HandleFunc("POST /v1/query", f.handleQuery)
	mux.HandleFunc("GET /v1/venues/{venue}/stats", func(w http.ResponseWriter, r *http.Request) {
		v, ok := f.venue(r.PathValue("venue"))
		if !ok {
			f.writeUnknownVenue(w, r.PathValue("venue"))
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, v.Stats)
	})
	mux.HandleFunc("POST /v1/venues/{venue}/feed", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		hook := f.feedHook
		f.mu.Unlock()
		if hook != nil && hook(w, r) {
			return
		}
		f.record("feed " + r.PathValue("venue"))
		if id := r.Header.Get("X-Request-ID"); id != "" {
			w.Header().Set("X-Request-ID", id)
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venue": r.PathValue("venue"), "fed": 1})
	})
	// The migration primitives live where the real msserve mounts them:
	// under /v1/admin only.
	drain := func(w http.ResponseWriter, r *http.Request) {
		if !f.authorized(w, r) {
			return
		}
		var body struct {
			RedirectTo string `json:"redirect_to"`
		}
		json.NewDecoder(r.Body).Decode(&body)
		f.mu.Lock()
		f.drained[r.PathValue("venue")] = body.RedirectTo
		f.mu.Unlock()
		f.record(fmt.Sprintf("drain %s redirect=%q", r.PathValue("venue"), body.RedirectTo))
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	}
	mux.HandleFunc("POST /v1/admin/venues/{venue}/drain", drain)
	mux.HandleFunc("DELETE /v1/admin/venues/{venue}/drain", func(w http.ResponseWriter, r *http.Request) {
		if !f.authorized(w, r) {
			return
		}
		f.mu.Lock()
		delete(f.drained, r.PathValue("venue"))
		f.mu.Unlock()
		f.record("undrain " + r.PathValue("venue"))
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "serving"})
	})
	mux.HandleFunc("POST /v1/admin/venues/{venue}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !f.authorized(w, r) {
			return
		}
		f.record("snapshot " + r.PathValue("venue"))
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": r.PathValue("venue")})
	})
	mux.HandleFunc("GET /v1/admin/venues/{venue}/snapshot/file", func(w http.ResponseWriter, r *http.Request) {
		if !f.authorized(w, r) {
			return
		}
		v, ok := f.venue(r.PathValue("venue"))
		if !ok {
			f.writeUnknownVenue(w, r.PathValue("venue"))
			return
		}
		f.record("fetch " + r.PathValue("venue"))
		buf, _ := json.Marshal(v)
		w.Write(buf)
	})
	mux.HandleFunc("PUT /v1/admin/venues/{venue}/snapshot/file", func(w http.ResponseWriter, r *http.Request) {
		if !f.authorized(w, r) {
			return
		}
		id := r.PathValue("venue")
		buf, _ := io.ReadAll(r.Body)
		var v fakeVenue
		if err := json.Unmarshal(buf, &v); err != nil {
			httpapi.WriteJSON(w, http.StatusUnprocessableEntity, map[string]httpapi.WireError{"error": {Code: "snapshot_corrupt", Message: err.Error()}})
			return
		}
		f.mu.Lock()
		f.venues[id] = &v
		f.mu.Unlock()
		f.record("restore " + id)
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venue": id, "status": "restored"})
	})
	mux.HandleFunc("DELETE /v1/admin/venues/{venue}", func(w http.ResponseWriter, r *http.Request) {
		if !f.authorized(w, r) {
			return
		}
		id := r.PathValue("venue")
		f.mu.Lock()
		delete(f.venues, id)
		f.mu.Unlock()
		f.record("unload " + id)
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"venue": id, "status": "unloaded"})
	})
	mux.HandleFunc("POST /v1/admin/venues/{venue}/retrain", func(w http.ResponseWriter, r *http.Request) {
		if !f.authorized(w, r) {
			return
		}
		id := r.PathValue("venue")
		if _, ok := f.venue(id); !ok {
			f.writeUnknownVenue(w, id)
			return
		}
		f.record("retrain " + id)
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"venue": id, "decision": map[string]any{"outcome": "swapped"},
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeBackend) authorized(w http.ResponseWriter, r *http.Request) bool {
	f.mu.Lock()
	token := f.token
	f.mu.Unlock()
	if token == "" {
		return true
	}
	if r.Header.Get("Authorization") != "Bearer "+token {
		httpapi.WriteJSON(w, http.StatusUnauthorized, map[string]httpapi.WireError{"error": {Code: "unauthorized", Message: "bad token"}})
		return false
	}
	return true
}

func (f *fakeBackend) venue(id string) (*fakeVenue, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.venues[id]
	return v, ok
}

func (f *fakeBackend) record(call string) {
	f.mu.Lock()
	f.calls = append(f.calls, call)
	f.mu.Unlock()
}

func (f *fakeBackend) callLog() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

func (f *fakeBackend) writeUnknownVenue(w http.ResponseWriter, id string) {
	httpapi.WriteJSON(w, http.StatusNotFound, map[string]httpapi.WireError{"error": {
		Code: "unknown_venue", Message: fmt.Sprintf("c2mn: unknown venue: %q", id),
	}})
}

// queryLog returns the queries received so far.
func (f *fakeBackend) queryLog() []fakeQuery {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakeQuery(nil), f.queries...)
}

// handleQuery serves venue- and venues-scope queries from the canned
// counts like the real registry: every named venue must be loaded, the
// lists merge exactly and truncate to K, per_venue adds each venue's
// own top K, and the answer carries the composite generation ETag that
// a matching If-None-Match turns into a 304.
func (f *fakeBackend) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req httpapi.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]httpapi.WireError{"error": {Code: "invalid_argument", Message: err.Error()}})
		return
	}
	f.mu.Lock()
	f.queries = append(f.queries, fakeQuery{Venues: req.Venues, IfNoneMatch: r.Header.Get("If-None-Match")})
	f.mu.Unlock()
	nq, err := req.Query.Normalized()
	if err != nil || nq.Scope == c2mn.ScopeFleet {
		f.t.Errorf("fake backend got query %+v (%v); the router sends venue or venues scope", req.Query, err)
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]httpapi.WireError{"error": {Code: "invalid_query", Message: "bad query"}})
		return
	}
	req.Query = nq
	res := c2mn.QueryResult{Kind: req.Kind, Scope: req.Scope, K: req.K, Scanned: req.Venues}
	var regionLists [][]c2mn.RegionCount
	var pairLists [][]c2mn.PairCount
	sorted := append([]string(nil), req.Venues...)
	sort.Strings(sorted)
	etag := `"`
	for _, id := range sorted {
		v, ok := f.venue(id)
		if !ok {
			f.writeUnknownVenue(w, id)
			return
		}
		etag += fmt.Sprintf("%s:%d;", id, v.Gen)
	}
	etag += `"`
	for _, id := range req.Venues {
		v, _ := f.venue(id)
		row := c2mn.VenueCounts{Venue: id}
		if req.Kind == c2mn.QueryFrequentPairs {
			pairLists = append(pairLists, v.Pairs)
			row.Pairs = query.TruncatePairCounts(v.Pairs, req.K)
		} else {
			regionLists = append(regionLists, v.Regions)
			row.Regions = query.TruncateRegionCounts(v.Regions, req.K)
		}
		if req.PerVenue {
			res.PerVenue = append(res.PerVenue, row)
		}
	}
	if req.Kind == c2mn.QueryFrequentPairs {
		res.Pairs = query.MergeTopPairCounts(req.K, pairLists...)
	} else {
		res.Regions = query.MergeTopRegionCounts(req.K, regionLists...)
	}
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.QueryResponse{QueryResult: res})
}

// testRouter builds a router over the fakes and runs one health sweep.
func testRouter(t testing.TB, cfg Config, fakes ...*fakeBackend) *Router {
	t.Helper()
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.srv.URL)
	}
	if cfg.SettleDelay == 0 {
		cfg.SettleDelay = time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	return rt
}

func routerServer(t *testing.T, rt *Router) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return srv
}

func TestRouterForwardsToOwnerWithRequestID(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	b.venues["south"] = &fakeVenue{}
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)

	for venue, host := range map[string]*fakeBackend{"north": a, "south": b} {
		resp, err := http.Post(ts.URL+"/v1/venues/"+venue+"/feed", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feed %s status = %s", venue, resp.Status)
		}
		// The router generates an X-Request-ID when the client sent
		// none, and the echo survives the backend round trip.
		if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
			t.Fatalf("feed %s X-Request-ID = %q, want a 16-char generated ID", venue, id)
		}
		if got := host.callLog(); len(got) != 1 || got[0] != "feed "+venue {
			t.Fatalf("backend for %s saw calls %v", venue, got)
		}
	}

	// A client-supplied ID is preserved, not replaced.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/venues/north/feed", strings.NewReader("{}"))
	req.Header.Set("X-Request-ID", "client-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chose-this" {
		t.Fatalf("X-Request-ID = %q, want the client's own", got)
	}
}

func TestRouterNeverRetriesBackpressure(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	hits := 0
	a.feedHook = func(w http.ResponseWriter, r *http.Request) bool {
		hits++
		w.Header().Set("Retry-After", "7")
		httpapi.WriteJSON(w, http.StatusTooManyRequests, map[string]httpapi.WireError{"error": {Code: "backlog", Message: "c2mn: annotation backlog"}})
		return true
	}
	rt := testRouter(t, Config{Retries: 3}, a)
	ts := routerServer(t, rt)

	resp, err := http.Post(ts.URL+"/v1/venues/north/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %s, want 429 passed through", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the backend's own %q", got, "7")
	}
	if !strings.Contains(string(body), "backlog") {
		t.Fatalf("body %s lost the backend's error", body)
	}
	if hits != 1 {
		t.Fatalf("backend saw %d requests; 429 must never be retried", hits)
	}
}

func TestRouterDeadBackendYields502AndUnready(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{Retries: 1}, a)
	ts := routerServer(t, rt)

	// Kill the backend after discovery marked it ready.
	a.srv.Close()
	resp, err := http.Post(ts.URL+"/v1/venues/north/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %s, want 502", resp.Status)
	}
	var e struct {
		Error httpapi.WireError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "backend_unreachable" {
		t.Fatalf("code = %q, want backend_unreachable", e.Error.Code)
	}
	if e.Error.RequestID == "" {
		t.Fatal("router error payload lost the request ID")
	}
	// The failure also marked the backend unready, so the next request
	// fails fast with no_backend instead of re-dialing a corpse.
	if ready := rt.readyBackends(); len(ready) != 0 {
		t.Fatalf("dead backend still listed ready: %v", ready)
	}
	resp2, err := http.Post(ts.URL+"/v1/venues/north/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-markdown status = %s, want 503", resp2.Status)
	}
	var e2 struct {
		Error httpapi.WireError `json:"error"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&e2); err != nil {
		t.Fatal(err)
	}
	if e2.Error.Code != "no_backend" {
		t.Fatalf("code = %q, want no_backend", e2.Error.Code)
	}
}

func TestRouterFollowsMigrationRedirectOnce(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	b.venues["other"] = &fakeVenue{}
	// a is mid-cutover: feeds for north redirect to b.
	a.feedHook = func(w http.ResponseWriter, r *http.Request) bool {
		w.Header().Set("Location", b.srv.URL+"/v1/venues/north/feed")
		w.WriteHeader(http.StatusTemporaryRedirect)
		return true
	}
	// b hosts north by the time the redirect is chased.
	b.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)

	// Pin north to a so the router's first hop hits the redirecting
	// backend regardless of hash placement.
	rt.mu.Lock()
	rt.pins["north"] = a.srv.URL
	rt.mu.Unlock()

	resp, err := http.Post(ts.URL+"/v1/venues/north/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, want the redirect followed to 200", resp.Status)
	}
	if got := b.callLog(); len(got) != 1 || got[0] != "feed north" {
		t.Fatalf("redirect target saw %v", got)
	}
}

// randomCounts builds a venue's canned counts in canonical order.
func randomCounts(rng *rand.Rand) *fakeVenue {
	nRegions := 1 + rng.Intn(12)
	regions := make([]c2mn.RegionCount, 0, nRegions)
	for id := 1; id <= nRegions; id++ {
		if rng.Intn(3) == 0 {
			continue
		}
		regions = append(regions, c2mn.RegionCount{Region: c2mn.RegionID(id), Count: 1 + rng.Intn(50)})
	}
	pairs := make([]c2mn.PairCount, 0)
	for a := 1; a <= nRegions; a++ {
		for b := a + 1; b <= nRegions; b++ {
			if rng.Intn(4) == 0 {
				pairs = append(pairs, c2mn.PairCount{A: c2mn.RegionID(a), B: c2mn.RegionID(b), Count: 1 + rng.Intn(20)})
			}
		}
	}
	v := &fakeVenue{
		Regions: query.TruncateRegionCounts(query.MergeRegionCounts(regions, nil), query.AllCounts),
		Pairs:   query.TruncatePairCounts(query.MergePairCounts(pairs, nil), query.AllCounts),
	}
	return v
}

// TestRouterScatterMatchesBruteForce is the exactness property: for
// random per-venue counts spread over several backends, the router's
// fleet (and venues-scope) merge must equal a brute-force recount
// over the concatenation of every venue's counts — the same guarantee
// internal/query gives in-process.
func TestRouterScatterMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)
		backends := []*fakeBackend{a, b, c}
		nVenues := 2 + rng.Intn(5)
		var regionLists [][]c2mn.RegionCount
		var pairLists [][]c2mn.PairCount
		venueIDs := make([]string, 0, nVenues)
		for i := 0; i < nVenues; i++ {
			id := fmt.Sprintf("venue-%d", i)
			v := randomCounts(rng)
			backends[rng.Intn(len(backends))].venues[id] = v
			regionLists = append(regionLists, v.Regions)
			pairLists = append(pairLists, v.Pairs)
			venueIDs = append(venueIDs, id)
		}
		rt := testRouter(t, Config{}, a, b, c)
		ts := routerServer(t, rt)

		k := 1 + rng.Intn(6)
		for _, kind := range []c2mn.QueryKind{c2mn.QueryPopularRegions, c2mn.QueryFrequentPairs} {
			buf, _ := json.Marshal(httpapi.QueryRequest{Query: c2mn.Query{Kind: kind, Scope: c2mn.ScopeFleet, K: k}})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			var got httpapi.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: fleet %s status %s", seed, kind, resp.Status)
			}
			sortedIDs := append([]string(nil), venueIDs...)
			sort.Strings(sortedIDs)
			if fmt.Sprint(got.Scanned) != fmt.Sprint(sortedIDs) {
				t.Fatalf("seed %d: scanned %v, want %v", seed, got.Scanned, sortedIDs)
			}
			if got.Scope != c2mn.ScopeFleet || got.K != k {
				t.Fatalf("seed %d: scope/k = %s/%d", seed, got.Scope, got.K)
			}
			if kind == c2mn.QueryFrequentPairs {
				want := query.TruncatePairCounts(query.MergePairCounts(pairLists...), k)
				if fmt.Sprint(got.Pairs) != fmt.Sprint(want) {
					t.Fatalf("seed %d: fleet pairs = %v, want brute force %v", seed, got.Pairs, want)
				}
			} else {
				want := query.TruncateRegionCounts(query.MergeRegionCounts(regionLists...), k)
				if fmt.Sprint(got.Regions) != fmt.Sprint(want) {
					t.Fatalf("seed %d: fleet regions = %v, want brute force %v", seed, got.Regions, want)
				}
			}
		}

		// Venues scope over an explicit subset, in request order.
		subset := venueIDs[:1+rng.Intn(nVenues)]
		buf, _ := json.Marshal(httpapi.QueryRequest{Query: c2mn.Query{
			Kind: c2mn.QueryPopularRegions, Venues: subset, K: k, PerVenue: true,
		}})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		var got httpapi.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if fmt.Sprint(got.Scanned) != fmt.Sprint(subset) {
			t.Fatalf("seed %d: venues-scope scanned %v, want request order %v", seed, got.Scanned, subset)
		}
		want := query.TruncateRegionCounts(query.MergeRegionCounts(regionLists[:len(subset)]...), k)
		if fmt.Sprint(got.Regions) != fmt.Sprint(want) {
			t.Fatalf("seed %d: venues-scope regions = %v, want %v", seed, got.Regions, want)
		}
		if len(subset) > 1 && len(got.PerVenue) != len(subset) {
			t.Fatalf("seed %d: per_venue has %d entries, want %d", seed, len(got.PerVenue), len(subset))
		}
	}
}

func TestRouterScatterPagination(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.venues["v0"] = &fakeVenue{Regions: []c2mn.RegionCount{{Region: 1, Count: 9}, {Region: 2, Count: 5}, {Region: 3, Count: 1}}}
	b.venues["v1"] = &fakeVenue{Regions: []c2mn.RegionCount{{Region: 2, Count: 4}, {Region: 4, Count: 2}}}
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)

	// Full merged ranking: 1:9, 2:9, 4:2, 3:1 (count desc, ID asc).
	var pages []c2mn.RegionCount
	body := httpapi.QueryRequest{Query: c2mn.Query{Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet, K: 10}, PageSize: 3}
	for page := 0; ; page++ {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		var got httpapi.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		pages = append(pages, got.Regions...)
		if got.NextCursor == "" {
			break
		}
		body = httpapi.QueryRequest{Cursor: got.NextCursor}
		if page > 3 {
			t.Fatal("pagination never terminated")
		}
	}
	want := []c2mn.RegionCount{{Region: 1, Count: 9}, {Region: 2, Count: 9}, {Region: 4, Count: 2}, {Region: 3, Count: 1}}
	if fmt.Sprint(pages) != fmt.Sprint(want) {
		t.Fatalf("paged concatenation = %v, want %v", pages, want)
	}
}

func TestRouterMigrationSequence(t *testing.T) {
	src, dst := newFakeBackend(t), newFakeBackend(t)
	src.token, dst.token = "hunter2", "hunter2"
	src.venues["north"] = &fakeVenue{
		Regions: []c2mn.RegionCount{{Region: 1, Count: 3}},
		Stats:   c2mn.EngineStats{FedRecords: 42},
	}
	dst.venues["north"] = &fakeVenue{} // cold copy awaiting restore
	rt := testRouter(t, Config{BackendToken: "hunter2"}, src, dst)

	// Pin to the source first so the migration has a deterministic
	// starting owner whatever the hash says.
	rt.mu.Lock()
	rt.pins["north"] = src.srv.URL
	rt.mu.Unlock()

	report, err := rt.Migrate(context.Background(), "north", dst.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if report.From != src.srv.URL || report.To != dst.srv.URL || report.Status != "migrated" {
		t.Fatalf("report = %+v", report)
	}

	// The source saw: plain drain, snapshot, fetch, cutover drain with
	// redirect, unload — in that order.
	got := src.callLog()
	want := []string{
		`drain north redirect=""`,
		"snapshot north",
		"fetch north",
		fmt.Sprintf("drain north redirect=%q", dst.srv.URL),
		"unload north",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("source call sequence = %v, want %v", got, want)
	}
	if got := dst.callLog(); fmt.Sprint(got) != fmt.Sprint([]string{"restore north"}) {
		t.Fatalf("target call sequence = %v", got)
	}
	// The canned state moved intact.
	if v, ok := dst.venue("north"); !ok || v.Stats.FedRecords != 42 {
		t.Fatalf("restored venue state = %+v", v)
	}
	if _, stillThere := src.venue("north"); stillThere {
		t.Fatal("source still hosts the migrated venue")
	}
	// Routing now pins to the target.
	owner, err := rt.owner("north")
	if err != nil {
		t.Fatal(err)
	}
	if owner != dst.srv.URL {
		t.Fatalf("post-migration owner = %q, want %q", owner, dst.srv.URL)
	}
	// A second migration to the same place is a cheap no-op.
	report2, err := rt.Migrate(context.Background(), "north", dst.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if report2.Status != "already there" {
		t.Fatalf("repeat migration status = %q", report2.Status)
	}
}

func TestRouterMigrationRollsBackOnRestoreFailure(t *testing.T) {
	src, dst := newFakeBackend(t), newFakeBackend(t)
	src.venues["north"] = &fakeVenue{Stats: c2mn.EngineStats{FedRecords: 7}}
	// No cold copy on dst: the restore will 404 and the migration must
	// undrain the source and leave routing where it was.
	dstMux := http.NewServeMux()
	dstMux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	dstMux.HandleFunc("GET /v1/venues", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venues": []any{}})
	})
	dstMux.HandleFunc("PUT /v1/admin/venues/{venue}/snapshot/file", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		httpapi.WriteJSON(w, http.StatusNotFound, map[string]httpapi.WireError{"error": {Code: "unknown_venue", Message: "no such venue"}})
	})
	dst.srv.Close()
	dst.srv = httptest.NewServer(dstMux)
	t.Cleanup(dst.srv.Close)

	rt := testRouter(t, Config{}, src)
	// Register the replacement dst server manually.
	rt.mu.Lock()
	rt.backends[dst.srv.URL] = &backendState{url: dst.srv.URL, ready: true, venues: map[string]bool{}}
	rt.pins["north"] = src.srv.URL
	rt.mu.Unlock()

	_, err := rt.Migrate(context.Background(), "north", dst.srv.URL)
	if err == nil {
		t.Fatal("migration with no cold target copy must fail")
	}
	log := src.callLog()
	if log[len(log)-1] != "undrain north" {
		t.Fatalf("source call log %v does not end in the rollback undrain", log)
	}
	owner, err := rt.owner("north")
	if err != nil {
		t.Fatal(err)
	}
	if owner != src.srv.URL {
		t.Fatalf("owner after failed migration = %q, want unchanged %q", owner, src.srv.URL)
	}
}

func TestRouterMigrationConflict(t *testing.T) {
	src := newFakeBackend(t)
	src.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{}, src)
	rt.mu.Lock()
	rt.migrating["north"] = true
	rt.mu.Unlock()
	_, err := rt.Migrate(context.Background(), "north", src.srv.URL)
	if err == nil || !strings.Contains(err.Error(), "already in progress") {
		t.Fatalf("concurrent migration error = %v, want migration conflict", err)
	}
}

func TestRouterAdminPlane(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{AdminToken: "s3cret"}, a)
	ts := routerServer(t, rt)

	// Tokenless admin calls bounce.
	resp, err := http.Get(ts.URL + "/v1/admin/backends")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless admin status = %s, want 401", resp.Status)
	}

	authed := func(method, path string, body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer s3cret")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp = authed(http.MethodGet, "/v1/admin/backends", "")
	var table struct {
		Backends []backendInfo `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(table.Backends) != 1 || !table.Backends[0].Ready || fmt.Sprint(table.Backends[0].Venues) != "[north]" {
		t.Fatalf("backend table = %+v", table.Backends)
	}

	// Add a second backend at runtime; it becomes routable immediately.
	b := newFakeBackend(t)
	b.venues["south"] = &fakeVenue{}
	resp = authed(http.MethodPost, "/v1/admin/backends", fmt.Sprintf(`{"url":%q}`, b.srv.URL))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add backend status = %s", resp.Status)
	}
	resp, err = http.Post(ts.URL+"/v1/venues/south/feed", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed via added backend = %s", resp.Status)
	}

	// Assignments list both venues with their backends.
	resp = authed(http.MethodGet, "/v1/admin/assignments", "")
	var asg struct {
		Assignments []assignment `json:"assignments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&asg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(asg.Assignments) != 2 {
		t.Fatalf("assignments = %+v", asg.Assignments)
	}

	// Pins override the hash and are visible in assignments.
	resp = authed(http.MethodPost, "/v1/admin/pins", fmt.Sprintf(`{"venue":"north","backend":%q}`, b.srv.URL))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin status = %s", resp.Status)
	}
	owner, err := rt.owner("north")
	if err != nil {
		t.Fatal(err)
	}
	if owner != b.srv.URL {
		t.Fatalf("pinned owner = %q, want %q", owner, b.srv.URL)
	}
	resp = authed(http.MethodDelete, "/v1/admin/pins?venue=north", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpin status = %s", resp.Status)
	}

	// Removing a backend takes it out of routing.
	resp = authed(http.MethodDelete, "/v1/admin/backends?url="+b.srv.URL, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove backend status = %s", resp.Status)
	}
	if got := rt.readyBackends(); len(got) != 1 || got[0] != a.srv.URL {
		t.Fatalf("ready backends after removal = %v", got)
	}
}

func TestRouterReadyzReflectsBackends(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := routerServer(t, rt)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-table readyz = %s, want 503", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s, want 200 regardless of backends", resp.Status)
	}
}

func TestRouterStatsAggregation(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.venues["v0"] = &fakeVenue{Stats: c2mn.EngineStats{FedRecords: 10, StoredSequences: 2, EmittedSequences: 6, FeedBatches: 3}}
	b.venues["v1"] = &fakeVenue{Stats: c2mn.EngineStats{FedRecords: 5, StoredSequences: 1, EmittedSequences: 2, FeedBatches: 1}}
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Venues map[string]c2mn.EngineStats `json:"venues"`
		Totals c2mn.EngineStats            `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Venues) != 2 {
		t.Fatalf("stats venues = %v", stats.Venues)
	}
	// FeedBatches included: it divides EmittedSequences into the mean
	// coalesced batch size.
	want := c2mn.EngineStats{FedRecords: 15, StoredSequences: 3, EmittedSequences: 8, FeedBatches: 4}
	if stats.Totals != want {
		t.Fatalf("totals = %+v, want %+v", stats.Totals, want)
	}
}
