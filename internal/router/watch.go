package router

// The routing tier's continuous-query endpoint: GET /v1/watch (and the
// venue-scoped GET /v1/venues/{venue}/watch) serves one client SSE
// stream multiplexed over per-owner upstream /v1/watch subscriptions.
// Each watched venue gets a goroutine that subscribes to the venue's
// owning backend with k = AllCounts — untruncated partials, the same
// invariant the scatter path relies on — and folds nothing itself: it
// relays parsed events into the merge loop, which owns every fold,
// re-merges through the exact merge helpers, truncates to the client's
// k, and pushes snapshot/delta events with composite-generation ids
// identical in shape to a single msserve's.
//
// Upstream subscriptions are self-healing: on stream end, backend
// death, or a draining goodbye, the goroutine re-resolves the venue's
// owner (which tracks migration pins and health) and reconnects with
// Last-Event-ID, so an unchanged store resumes without a duplicate
// snapshot and a migrated venue's generation jump forces the fresh
// snapshot that keeps the merged answer exact.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/notify"
	"c2mn/internal/query"
)

// upstreamMsg is one parsed event relayed from a venue's upstream
// subscription into the client stream's merge loop. Data-bearing
// messages always carry the generation parsed from the upstream event
// id — the relay validates ids before relaying (an unparseable one is
// a protocol error that forces a resubscribe), so the merge loop never
// folds bytes whose generation is unknown and the client's composite
// id always covers exactly the bytes it stamps.
type upstreamMsg struct {
	venue string
	gen   uint64               // generation of the relayed bytes
	snap  *notify.SnapshotData // snapshot/resync: replace the venue's fold
	delta *notify.DeltaData    // delta: patch the venue's fold
	gone  bool                 // the venue is unloaded fleet-wide
}

// handleWatch serves the router's continuous-query stream.
func (rt *Router) handleWatch(w http.ResponseWriter, r *http.Request) {
	kind := c2mn.QueryPopularRegions
	switch v := r.URL.Query().Get("kind"); v {
	case "", string(c2mn.QueryPopularRegions):
	case string(c2mn.QueryFrequentPairs):
		kind = c2mn.QueryFrequentPairs
	default:
		httpapi.WriteError(w, r, http.StatusBadRequest,
			fmt.Errorf("bad kind %q (want %q or %q)", v, c2mn.QueryPopularRegions, c2mn.QueryFrequentPairs))
		return
	}
	vals := r.URL.Query()
	scope, venues := c2mn.QueryScope(""), []string(nil)
	switch {
	case r.PathValue("venue") != "":
		scope, venues = c2mn.ScopeVenue, []string{r.PathValue("venue")}
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
	// The watched venue set is resolved once, at connect: membership is
	// what the stream's exactness is defined over. Fleet clients pick up
	// venues added later by reconnecting (the goodbye/heartbeat contract
	// documents this).
	watched := nq.Venues
	if scope == c2mn.ScopeFleet {
		watched = rt.knownVenues()
	}
	if len(watched) == 0 {
		httpapi.WriteError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("%w: no venues known to the fleet", c2mn.ErrNoBackend))
		return
	}

	hb := rt.cfg.WatchHeartbeat
	sw, err := notify.NewSSEWriter(w, 3*hb)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}

	// One relay goroutine per venue; all funnel into the merge loop.
	// The channel is sized so a burst across venues rarely blocks a
	// relay (blocking is still safe — it backpressures the upstream
	// read, never a backend's write path).
	msgs := make(chan upstreamMsg, 4*len(watched))
	ctx := r.Context()
	params := upstreamParams(nq)
	for _, v := range watched {
		go rt.watchUpstream(ctx, v, params, msgs)
	}

	// Per-venue untruncated folds and generations. The client answer is
	// merged from every fold and truncated to the client's k; its id is
	// the composite of the per-venue generations — the same bytes a
	// single msserve holding these venues would stamp.
	folds := map[string]notify.Answer{}
	gens := map[string]uint64{}
	waiting := make(map[string]bool, len(watched))
	for _, v := range watched {
		waiting[v] = true
	}
	var answer notify.Answer
	curID, started := "", false
	clientLast := r.Header.Get("Last-Event-ID")

	// The first client event waits for a snapshot from every watched
	// venue; a venue whose owner never resolves (backend down and
	// staying down) must not leave the stream heartbeating forever with
	// no data — the poll path would have returned an error. The gather
	// is bounded: past the deadline the stream ends with a goodbye, and
	// the client's reconnect retries against whatever has recovered.
	connect := time.NewTimer(rt.cfg.WatchConnectTimeout)
	defer connect.Stop()
	connectC := connect.C

	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-rt.watchStop:
			sw.Event("goodbye", curID, notify.GoodbyeData{Reason: notify.ReasonDraining})
			return
		case <-connectC:
			rt.cfg.Logf("watch: %d of %d venue(s) still unresolved after %v; ending stream",
				len(waiting), len(watched), rt.cfg.WatchConnectTimeout)
			sw.Event("goodbye", curID, notify.GoodbyeData{Reason: notify.ReasonError})
			return
		case <-ticker.C:
			if err := sw.Comment("hb"); err != nil {
				return
			}
		case m := <-msgs:
			if m.gone {
				if scope != c2mn.ScopeFleet {
					// An explicitly watched venue is gone fleet-wide: the
					// stream cannot stay exact. Same contract as msserve.
					sw.Event("goodbye", curID, notify.GoodbyeData{Reason: notify.ReasonUnknownVenue})
					return
				}
				// Fleet scope skips vanished venues, like the scatter path.
				delete(folds, m.venue)
				delete(gens, m.venue)
				delete(waiting, m.venue)
			} else {
				switch {
				case m.snap != nil:
					folds[m.venue] = notify.Answer{Kind: m.snap.Kind, Regions: m.snap.Regions, Pairs: m.snap.Pairs}
					delete(waiting, m.venue)
				case m.delta != nil:
					prev, ok := folds[m.venue]
					if !ok {
						continue // delta before any snapshot: stale relay, drop
					}
					folds[m.venue] = notify.Apply(prev, *m.delta)
				}
				gens[m.venue] = m.gen
			}
			if len(waiting) > 0 {
				continue // the first client event needs every venue's partial
			}
			if connectC != nil {
				connect.Stop()
				connectC = nil // gather complete: the deadline is disarmed
			}
			merged := mergeFolds(string(nq.Kind), nq.K, folds)
			newID := notify.EncodeEventID(gens)
			if !started {
				started = true
				answer, curID = merged, newID
				if clientLast != "" && clientLast == newID {
					continue // exact resume: the client already holds these bytes
				}
				if err := sw.Event("snapshot", newID, watchSnapshotData(nq, gens, merged)); err != nil {
					return
				}
				continue
			}
			if newID == curID {
				continue
			}
			delta := notify.Diff(answer, merged)
			if delta.Empty() {
				continue // stores moved, merged top-k did not: nothing to push
			}
			if err := sw.Event("delta", newID, delta); err != nil {
				return
			}
			answer, curID = merged, newID
		}
	}
}

// watchSnapshotData renders the merged answer as the client's
// snapshot payload; scanned is the sorted watched-venue set, matching
// /v1/query's Scanned for the same scope.
func watchSnapshotData(nq c2mn.Query, gens map[string]uint64, merged notify.Answer) notify.SnapshotData {
	scanned := make([]string, 0, len(gens))
	for v := range gens {
		scanned = append(scanned, v)
	}
	sort.Strings(scanned)
	return notify.SnapshotData{
		Kind:    string(nq.Kind),
		K:       nq.K,
		Scanned: scanned,
		Regions: merged.Regions,
		Pairs:   merged.Pairs,
	}
}

// mergeFolds merges the per-venue untruncated partials exactly and
// truncates to the client's k — the push-plane twin of scatter's merge.
func mergeFolds(kind string, k int, folds map[string]notify.Answer) notify.Answer {
	regionLists := make([][]query.RegionCount, 0, len(folds))
	pairLists := make([][]query.PairCount, 0, len(folds))
	for _, f := range folds {
		regionLists = append(regionLists, f.Regions)
		pairLists = append(pairLists, f.Pairs)
	}
	return notify.Answer{
		Kind:    kind,
		Regions: query.MergeTopRegionCounts(k, regionLists...),
		Pairs:   query.MergeTopPairCounts(k, pairLists...),
	}
}

// parseVenueGen extracts the generation from an upstream single-venue
// event id ("venue:gen", venue escaped).
func parseVenueGen(venue, id string) (uint64, bool) {
	gens, ok := notify.ParseEventID(id)
	if !ok {
		return 0, false
	}
	g, ok := gens[venue]
	return g, ok
}

// upstreamParams renders the standing query as the query string of the
// venue-scoped upstream watch: k = AllCounts so partials arrive
// untruncated, window bounds formatted to round-trip float64 exactly.
func upstreamParams(nq c2mn.Query) string {
	up := url.Values{}
	up.Set("kind", string(nq.Kind))
	up.Set("k", strconv.Itoa(query.AllCounts))
	if len(nq.Regions) > 0 {
		parts := make([]string, len(nq.Regions))
		for i, id := range nq.Regions {
			parts[i] = strconv.Itoa(int(id))
		}
		up.Set("regions", strings.Join(parts, ","))
	}
	if nq.Window != nil {
		up.Set("start", strconv.FormatFloat(nq.Window.Start, 'g', -1, 64))
		up.Set("end", strconv.FormatFloat(nq.Window.End, 'g', -1, 64))
	}
	return up.Encode()
}

// watchUpstream maintains one venue's upstream subscription for the
// life of the client stream: resolve the owner, subscribe with
// Last-Event-ID, relay events, reconnect on any end of stream. Owner
// resolution already encodes migration pins and backend health, so
// cutover and death handling are the same code path: re-resolve and
// resume. Consecutive unknown-venue answers (bounded, so a venue
// mid-migration — unloaded from the source, restoring on the target —
// is not mistaken for a gone one) report the venue gone.
//
// "Any end of stream" is not enough on its own: a backend that wedges
// (or a half-open connection whose peer died without a FIN) never ends
// the stream, and a backend that lost ownership but still hosts the
// venue keeps heartbeating a copy that will never move again. Both
// failures are invisible to a blocked read, so each established
// subscription runs a watchdog (watchStream) that force-closes the
// response body — which is what makes the reconnect-and-re-resolve
// path actually reachable — when the stream goes frame-silent past
// WatchIdleTimeout or the venue's owner stops being the connected
// backend.
func (rt *Router) watchUpstream(ctx context.Context, venue, params string, out chan<- upstreamMsg) {
	const goneAfter = 5
	lastID := ""
	unknown := 0
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	sleep := func() {
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	send := func(m upstreamMsg) bool {
		select {
		case out <- m:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for ctx.Err() == nil {
		backend, err := rt.owner(venue)
		if err != nil {
			sleep() // nothing ready: wait for the health sweep
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, venuePath(backend, venue, "watch")+"?"+params, nil)
		if err != nil {
			return
		}
		req.Header.Set("Accept", "text/event-stream")
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				rt.markUnreachable(backend, err)
			}
			sleep()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				if unknown++; unknown >= goneAfter {
					send(upstreamMsg{venue: venue, gone: true})
					return
				}
			}
			sleep()
			continue
		}
		reader := notify.NewEventReader(resp.Body)
		var lastFrame atomic.Int64
		lastFrame.Store(time.Now().UnixNano())
		done := make(chan struct{})
		go rt.watchStream(ctx, venue, backend, resp.Body, &lastFrame, done)
		// A data-bearing event whose id does not parse to this venue's
		// generation — or whose payload does not decode — is a protocol
		// error, not something to skip: folding its bytes (or folding past
		// it) would leave the venue's entry in the client's composite id
		// misstating the bytes actually pushed, breaking the resume
		// contract. The stream is dropped and resubscribed without a
		// Last-Event-ID, so the fresh connection starts from a full
		// snapshot whose id is validated again.
		protoErr := false
	read:
		for {
			ev, err := reader.Next()
			if err != nil {
				break // stream ended or watchdog-closed: reconnect
			}
			lastFrame.Store(time.Now().UnixNano())
			if ev.IsComment() {
				continue // upstream heartbeat; the client loop beats its own
			}
			switch ev.Name {
			case "snapshot", "resync":
				gen, ok := parseVenueGen(venue, ev.ID)
				var snap notify.SnapshotData
				if !ok || json.Unmarshal(ev.Data, &snap) != nil {
					protoErr = true
					break read
				}
				lastID = ev.ID
				unknown = 0
				backoff = 50 * time.Millisecond
				if !send(upstreamMsg{venue: venue, gen: gen, snap: &snap}) {
					close(done)
					resp.Body.Close()
					return
				}
			case "delta":
				gen, ok := parseVenueGen(venue, ev.ID)
				var delta notify.DeltaData
				if !ok || json.Unmarshal(ev.Data, &delta) != nil {
					protoErr = true
					break read
				}
				lastID = ev.ID
				unknown = 0
				if !send(upstreamMsg{venue: venue, gen: gen, delta: &delta}) {
					close(done)
					resp.Body.Close()
					return
				}
			case "goodbye":
				var bye notify.GoodbyeData
				_ = json.Unmarshal(ev.Data, &bye)
				if bye.Reason == notify.ReasonUnknownVenue {
					// The venue left this backend — migration cutover or an
					// unload. Re-resolve; repeated unknowns mean gone.
					if unknown++; unknown >= goneAfter {
						send(upstreamMsg{venue: venue, gone: true})
						close(done)
						resp.Body.Close()
						return
					}
				}
			}
		}
		close(done)
		resp.Body.Close()
		if protoErr {
			rt.cfg.Logf("watch: venue %q upstream %s sent an event with an unusable id or payload; resubscribing for a fresh snapshot", venue, backend)
			lastID = ""
		}
		if ctx.Err() == nil {
			sleep()
		}
	}
}

// watchStream is the per-subscription watchdog: while the relay is
// blocked reading one upstream response, it closes the body — the only
// way to unblock that read — when the stream produces no frame for
// WatchIdleTimeout, or when the venue's owner re-resolves to a
// different backend than the one the stream is connected to. The relay
// then reconnects through the normal path. Closing an already-closed
// response body is a no-op, so the watchdog never races the reader's
// own cleanup.
func (rt *Router) watchStream(ctx context.Context, venue, backend string, body io.Closer, lastFrame *atomic.Int64, done <-chan struct{}) {
	idle := rt.cfg.WatchIdleTimeout
	tick := idle / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 2*time.Second {
		tick = 2 * time.Second
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ctx.Done():
			body.Close()
			return
		case <-ticker.C:
			if cur, err := rt.owner(venue); err == nil && cur != backend {
				rt.cfg.Logf("watch: venue %q moved %s -> %s; resubscribing", venue, backend, cur)
				body.Close()
				return
			}
			if since := time.Duration(time.Now().UnixNano() - lastFrame.Load()); since > idle {
				rt.cfg.Logf("watch: venue %q upstream %s silent for %v; resubscribing", venue, backend, since.Round(time.Second))
				body.Close()
				return
			}
		}
	}
}
