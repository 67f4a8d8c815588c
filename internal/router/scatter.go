package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/query"
)

// The scatter-gather query plane. A venue- or venues-scoped request
// whose owners collapse onto one backend is forwarded verbatim — the
// backend's own merge is already exact, and raw forwarding preserves
// its response bytes (and region names) untouched. Everything wider
// scatters, one sub-query per owning backend: the router asks each
// backend for the UNTRUNCATED counts of its share of the target venues
// (k = query.AllCounts — top-k partials cannot merge exactly; a region
// ranked k+1 everywhere can be the global winner), which the backend's
// registry pre-merges in process, and merges the per-backend lists
// with the same internal/query helpers msserve's registry uses, so a
// fleet answer through the router is byte-identical to a single
// process holding every venue.

// scatterCounts is what the router keeps of a backend's answer to one
// sub-query: the untruncated counts merged over the venues it named
// and, when the client asked for the breakdown, each venue's own.
type scatterCounts struct {
	Regions  regionCounts `json:"regions"`
	Pairs    pairCounts   `json:"pairs"`
	PerVenue []struct {
		Venue   string       `json:"venue"`
		Regions regionCounts `json:"regions"`
		Pairs   pairCounts   `json:"pairs"`
	} `json:"per_venue"`
}

// regionCounts and pairCounts decode through internal/query's strict
// single-pass parser: a partial is thousands of rows, and reflecting
// over each one was most of the router's CPU.
type (
	regionCounts []c2mn.RegionCount
	pairCounts   []c2mn.PairCount
)

func (l *regionCounts) UnmarshalJSON(data []byte) (err error) {
	*l, err = query.ParseRegionCounts(data)
	return err
}

func (l *pairCounts) UnmarshalJSON(data []byte) (err error) {
	*l, err = query.ParsePairCounts(data)
	return err
}

// scatterPartial is one cached partial: the counts a backend returned
// for (backend, venue group, sub-query), labeled with the ETag the
// backend minted for them. Revalidation sends the ETag back as
// If-None-Match; a 304 means no store generation in the group has
// moved, so the cached counts are still exact.
type scatterPartial struct {
	etag   string
	counts scatterCounts
}

// scatterCacheEntries bounds the router's partial cache.
const scatterCacheEntries = 1024

// handleQuery serves the router's POST /v1/query: single-backend
// scopes forward raw, wider scopes scatter-gather with the router
// running the same cursor pagination msserve does.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, ok := httpapi.ReadBody(w, r, rt.cfg.MaxBody, "request body")
	if !ok {
		return
	}
	var req httpapi.QueryRequest
	if !httpapi.DecodeBytes(w, r, body, &req) {
		return
	}
	q, pageSize, offset, err := req.Resolve()
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	// Normalized, so the router routes on the same effective
	// scope/venues/k the backends would compute.
	nq, err := q.Normalized()
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	if nq.Scope != c2mn.ScopeFleet {
		if backend, single := rt.singleOwner(nq.Venues); single {
			rt.forward(w, r, backend, body)
			return
		}
	}
	res, err := rt.scatter(r.Context(), nq)
	if err != nil {
		rt.writeScatterError(w, r, err)
		return
	}
	resp, err := httpapi.Page(res, q, pageSize, offset)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// singleOwner reports whether every venue in the list resolves to one
// backend, returning it. Resolution failures (no ready backend) fall
// through to the scatter path, which phrases the error.
func (rt *Router) singleOwner(venues []string) (string, bool) {
	backend := ""
	for _, v := range venues {
		b, err := rt.owner(v)
		if err != nil {
			return "", false
		}
		if backend == "" {
			backend = b
		} else if backend != b {
			return "", false
		}
	}
	return backend, backend != ""
}

// writeScatterError maps scatter failures onto statuses.
func (rt *Router) writeScatterError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, c2mn.ErrInvalidQuery):
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
	case errors.Is(err, c2mn.ErrUnknownVenue):
		httpapi.WriteError(w, r, http.StatusNotFound, err)
	case errors.Is(err, c2mn.ErrNoBackend):
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, err)
	default:
		httpapi.WriteError(w, r, http.StatusBadGateway, err)
	}
}

// subAnswer is one fetched sub-query answer and the venues it covers.
type subAnswer struct {
	venues []string
	counts scatterCounts
}

// venueCounts returns one covered venue's own untruncated counts: the
// whole answer when it is the only venue, its per_venue row otherwise.
func (p *subAnswer) venueCounts(id string) ([]c2mn.RegionCount, []c2mn.PairCount) {
	if len(p.venues) == 1 {
		return p.counts.Regions, p.counts.Pairs
	}
	for i := range p.counts.PerVenue {
		if row := &p.counts.PerVenue[i]; row.Venue == id {
			return row.Regions, row.Pairs
		}
	}
	return nil, nil
}

// scatter executes a normalized multi-venue query across the fleet:
// the target venues are grouped by owner, each backend answers one
// untruncated sub-query over its group in parallel, and the per-backend
// lists merge exactly. Fleet scope silently skips venues that vanished
// since discovery (matching the registry's own fleet semantics); an
// explicitly named venue that no backend knows fails the whole query
// with ErrUnknownVenue.
func (rt *Router) scatter(ctx context.Context, nq c2mn.Query) (c2mn.QueryResult, error) {
	ids := nq.Venues
	if nq.Scope == c2mn.ScopeFleet {
		ids = rt.knownVenues() // sorted: fleet Scanned is sorted
	}
	type venueGroup struct {
		backend string
		venues  []string
		parts   []subAnswer
		err     error
	}
	var groups []*venueGroup
	byBackend := map[string]*venueGroup{}
	for _, id := range ids {
		backend, err := rt.owner(id)
		if err != nil {
			return c2mn.QueryResult{}, fmt.Errorf("query venue %q: %w", id, err)
		}
		g := byBackend[backend]
		if g == nil {
			g = &venueGroup{backend: backend}
			byBackend[backend] = g
			groups = append(groups, g)
		}
		g.venues = append(g.venues, id)
	}
	var wg sync.WaitGroup
	for _, g := range groups {
		// Sorted, so the same group asks — and caches — the same bytes
		// whatever order a venues-scoped request names it in.
		slices.Sort(g.venues)
		wg.Add(1)
		go func(g *venueGroup) {
			defer wg.Done()
			g.parts, g.err = rt.fetchGroup(ctx, g.backend, g.venues, nq)
		}(g)
	}
	wg.Wait()

	covering := make(map[string]*subAnswer, len(ids))
	var regionLists [][]c2mn.RegionCount
	var pairLists [][]c2mn.PairCount
	for _, g := range groups {
		if g.err != nil {
			return c2mn.QueryResult{}, g.err
		}
		for i := range g.parts {
			p := &g.parts[i]
			regionLists = append(regionLists, p.counts.Regions)
			pairLists = append(pairLists, p.counts.Pairs)
			for _, id := range p.venues {
				covering[id] = p
			}
		}
	}
	res := c2mn.QueryResult{Kind: nq.Kind, Scope: nq.Scope, K: nq.K, Scanned: make([]string, 0, len(ids))}
	for _, id := range ids {
		p, ok := covering[id]
		if !ok {
			continue // skipped
		}
		res.Scanned = append(res.Scanned, id)
		if nq.PerVenue {
			regions, pairs := p.venueCounts(id)
			res.PerVenue = append(res.PerVenue, c2mn.VenueCounts{
				Venue:   id,
				Regions: query.TruncateRegionCounts(regions, nq.K),
				Pairs:   query.TruncatePairCounts(pairs, nq.K),
			})
		}
	}
	switch nq.Kind {
	case c2mn.QueryFrequentPairs:
		res.Pairs = query.MergeTopPairCounts(nq.K, pairLists...)
		if res.Pairs == nil {
			res.Pairs = []c2mn.PairCount{}
		}
	default:
		res.Regions = query.MergeTopRegionCounts(nq.K, regionLists...)
		if res.Regions == nil {
			res.Regions = []c2mn.RegionCount{}
		}
	}
	return res, nil
}

// fetchGroup fetches one backend's share of a scatter. Normally that is
// one sub-answer over the whole group. A backend that no longer knows
// one of the venues refuses the group as a whole; under fleet scope the
// group is then re-asked one venue at a time, so only the venue that
// was unloaded between discovery and scan drops out.
func (rt *Router) fetchGroup(ctx context.Context, backend string, venues []string, nq c2mn.Query) ([]subAnswer, error) {
	counts, err := rt.fetchPartial(ctx, backend, venues, nq)
	switch {
	case err == nil:
		return []subAnswer{{venues: venues, counts: counts}}, nil
	case nq.Scope != c2mn.ScopeFleet || !errors.Is(err, c2mn.ErrUnknownVenue):
		return nil, fmt.Errorf("query venues %q: %w", venues, err)
	case len(venues) == 1:
		return nil, nil
	}
	var parts []subAnswer
	for _, id := range venues {
		one, err := rt.fetchGroup(ctx, backend, []string{id}, nq)
		if err != nil {
			return nil, err
		}
		parts = append(parts, one...)
	}
	return parts, nil
}

// fetchPartial returns the exact untruncated counts of one backend's
// venues for nq, from the partial cache when the backend confirms
// with a 304 that none of their stores moved.
func (rt *Router) fetchPartial(ctx context.Context, backend string, venues []string, nq c2mn.Query) (scatterCounts, error) {
	sub := c2mn.Query{
		Kind: nq.Kind, Scope: c2mn.ScopeVenue, Venues: venues,
		Regions: nq.Regions, Window: nq.Window, K: query.AllCounts,
	}
	if len(venues) > 1 {
		sub.Scope, sub.PerVenue = c2mn.ScopeVenues, nq.PerVenue
	}
	body, err := json.Marshal(httpapi.QueryRequest{Query: sub})
	if err != nil {
		return scatterCounts{}, err
	}
	// One cache entry per (backend, venue group, sub-query): the
	// canonical body pins venues/kind/regions/window, and the backend
	// prefix keeps a migrated venue's new group from validating against
	// an ETag minted by its previous owner.
	key := backend + "\x00" + string(body)
	rt.partialMu.Lock()
	cached, haveCached := rt.partials.Get(key)
	rt.partialMu.Unlock()
	inm := ""
	if haveCached {
		inm = cached.etag
		rt.partialRevals.Add(1)
	}
	rt.subRequests.Add(1)
	target := backend + "/v1/query"
	buf, etag, notModified, err := rt.backendFetch(ctx, http.MethodPost, target, body, inm)
	if err != nil {
		return scatterCounts{}, err
	}
	if notModified {
		rt.partialHits.Add(1)
		return cached.counts, nil
	}
	rt.partialMisses.Add(1)
	rt.decodedBytes.Add(int64(len(buf)))
	var counts scatterCounts
	if err := json.Unmarshal(buf, &counts); err != nil {
		return scatterCounts{}, fmt.Errorf("POST %s: decoding response: %w", target, err)
	}
	if etag != "" {
		rt.partialMu.Lock()
		rt.partials.Put(key, scatterPartial{etag: etag, counts: counts})
		rt.partialMu.Unlock()
	}
	return counts, nil
}

// handleTopKSugar serves the bare GET query sugars. Requests that
// resolve to one backend — explicit ?venue=, or a sole-venue fleet —
// forward raw so the backend's region-name resolution applies; the
// cross-venue forms (?venues=a,b spanning backends, ?scope=fleet)
// scatter and render the nameless rows msserve itself produces for
// multi-venue scans.
func (rt *Router) handleTopKSugar(w http.ResponseWriter, r *http.Request) {
	kind := c2mn.QueryPopularRegions
	if strings.HasSuffix(r.URL.Path, "/frequent-pairs") {
		kind = c2mn.QueryFrequentPairs
	}
	vals := r.URL.Query()
	scope, venues := c2mn.QueryScope(""), []string(nil)
	switch {
	case vals.Get("venue") != "":
		scope, venues = c2mn.ScopeVenue, []string{vals.Get("venue")}
	case vals.Get("venues") != "":
		scope, venues = c2mn.ScopeVenues, strings.Split(vals.Get("venues"), ",")
	case vals.Get("scope") == "fleet":
		scope = c2mn.ScopeFleet
	case vals.Get("scope") != "":
		httpapi.WriteError(w, r, http.StatusBadRequest,
			fmt.Errorf("bad scope %q (only \"fleet\" may be given without venues)", vals.Get("scope")))
		return
	default:
		known := rt.knownVenues()
		if len(known) != 1 {
			httpapi.WriteError(w, r, http.StatusBadRequest,
				fmt.Errorf("%d venue(s) in the fleet: pass ?venue=, ?venues=a,b or ?scope=fleet", len(known)))
			return
		}
		scope, venues = c2mn.ScopeVenue, []string{known[0]}
	}
	if scope != c2mn.ScopeFleet {
		if backend, single := rt.singleOwner(venues); single {
			rt.forward(w, r, backend, nil)
			return
		}
	}
	regions, win, k, err := httpapi.SugarParams(r)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	nq, err := c2mn.Query{Kind: kind, Scope: scope, Venues: venues, Regions: regions, Window: win, K: k}.Normalized()
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	res, err := rt.scatter(r.Context(), nq)
	if err != nil {
		rt.writeScatterError(w, r, err)
		return
	}
	// Multi-venue scans have no single naming venue, so the rows carry
	// no region names — exactly like msserve's own cross-venue sugar.
	if kind == c2mn.QueryFrequentPairs {
		type pairRow struct {
			A     int `json:"a"`
			B     int `json:"b"`
			Count int `json:"count"`
		}
		out := make([]pairRow, len(res.Pairs))
		for i, pc := range res.Pairs {
			out[i] = pairRow{A: int(pc.A), B: int(pc.B), Count: pc.Count}
		}
		httpapi.WriteJSON(w, http.StatusOK, out)
		return
	}
	type regionRow struct {
		Region int `json:"region"`
		Count  int `json:"count"`
	}
	out := make([]regionRow, len(res.Regions))
	for i, rc := range res.Regions {
		out[i] = regionRow{Region: int(rc.Region), Count: rc.Count}
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// handleStats aggregates GET /v1/stats across the fleet: each known
// venue's counters come from its owning backend — never from a cold
// dual-loaded copy — and sum into the same statsResponse shape (and
// bytes: JSON object keys sort) a single msserve holding every venue
// would emit.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	venues := rt.knownVenues()
	type result struct {
		stats   c2mn.EngineStats
		skipped bool
		err     error
	}
	results := make([]result, len(venues))
	var wg sync.WaitGroup
	for i, id := range venues {
		wg.Add(1)
		go func(res *result, id string) {
			defer wg.Done()
			backend, err := rt.owner(id)
			if err != nil {
				res.err = err
				return
			}
			err = rt.backendJSON(r.Context(), http.MethodGet, venuePath(backend, id, "stats"), nil, &res.stats)
			if errors.Is(err, c2mn.ErrUnknownVenue) {
				res.skipped = true // unloaded between discovery and scan
				return
			}
			res.err = err
		}(&results[i], id)
	}
	wg.Wait()
	resp := struct {
		Venues map[string]c2mn.EngineStats `json:"venues"`
		Totals c2mn.EngineStats            `json:"totals"`
	}{Venues: map[string]c2mn.EngineStats{}}
	for i := range results {
		res := &results[i]
		if res.err != nil {
			rt.writeScatterError(w, r, fmt.Errorf("stats for venue %q: %w", venues[i], res.err))
			return
		}
		if res.skipped {
			continue
		}
		resp.Venues[venues[i]] = res.stats
		resp.Totals.Add(res.stats)
	}
	httpapi.NoStore(w)
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// handleListVenues merges GET /v1/venues across the ready backends.
// Each venue's row comes from its owning backend only, so a venue
// mid-migration (briefly loaded on two backends) lists once, with the
// owner's snapshot-freshness columns.
func (rt *Router) handleListVenues(w http.ResponseWriter, r *http.Request) {
	type row struct {
		venue string
		raw   json.RawMessage
	}
	backends := rt.readyBackends()
	lists := make([][]row, len(backends))
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i, backend := range backends {
		wg.Add(1)
		go func(i int, backend string) {
			defer wg.Done()
			var resp struct {
				Venues []json.RawMessage `json:"venues"`
			}
			if err := rt.backendJSON(r.Context(), http.MethodGet, backend+"/v1/venues", nil, &resp); err != nil {
				errs[i] = err
				return
			}
			for _, raw := range resp.Venues {
				var id struct {
					Venue string `json:"venue"`
				}
				if err := json.Unmarshal(raw, &id); err != nil || id.Venue == "" {
					continue
				}
				if owner, err := rt.owner(id.Venue); err == nil && owner == backend {
					lists[i] = append(lists[i], row{venue: id.Venue, raw: raw})
				}
			}
		}(i, backend)
	}
	wg.Wait()
	merged := make([]row, 0)
	for i := range lists {
		if errs[i] != nil {
			rt.writeScatterError(w, r, fmt.Errorf("listing venues on %s: %w", backends[i], errs[i]))
			return
		}
		merged = append(merged, lists[i]...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].venue < merged[j].venue })
	out := make([]json.RawMessage, len(merged))
	for i, rw := range merged {
		out[i] = rw.raw
	}
	httpapi.NoStore(w)
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venues": out})
}

// handleFlush fans POST /v1/flush out venue-by-venue to each owner —
// flushing every venue exactly once even when dual-loaded — and sums
// the per-venue flush counters. A ?venue= flush forwards raw.
func (rt *Router) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("venue") != "" {
		rt.forwardToOwner(w, r, r.URL.Query().Get("venue"))
		return
	}
	venues := rt.knownVenues()
	type flushCounts struct {
		Venues           int   `json:"venues"`
		PendingRecords   int   `json:"pending_records"`
		EmittedSequences int64 `json:"emitted_sequences"`
	}
	results := make([]flushCounts, len(venues))
	errs := make([]error, len(venues))
	var wg sync.WaitGroup
	for i, id := range venues {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			backend, err := rt.owner(id)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = rt.backendJSON(r.Context(), http.MethodPost, venuePath(backend, id, "flush"), nil, &results[i])
		}(i, id)
	}
	wg.Wait()
	total := flushCounts{}
	var failed []error
	for i := range venues {
		if errs[i] != nil {
			if errors.Is(errs[i], c2mn.ErrUnknownVenue) {
				continue // unloaded between discovery and flush
			}
			failed = append(failed, fmt.Errorf("venue %q: %w", venues[i], errs[i]))
			continue
		}
		total.Venues += results[i].Venues
		total.PendingRecords += results[i].PendingRecords
		total.EmittedSequences += results[i].EmittedSequences
	}
	if len(failed) > 0 {
		httpapi.WriteError(w, r, http.StatusBadGateway, errors.Join(failed...))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, total)
}
