package main

// The continuous-query endpoint: GET /v1/watch (and its venue-scoped
// twin GET /v1/venues/{venue}/watch) upgrades the polling query sugar
// into a standing subscription. The handler registers the same
// composable Query the one-shot funnel executes, then re-executes it —
// through the generation-keyed result cache, so an unchanged store
// costs an LRU hit — only when the change-feed hub says a subscribed
// venue's generation moved, and pushes the difference as SSE events.
//
// Exactness contract: every data-bearing event's id: is the composite
// generation of the scanned venues (the /v1/query ETag, unquoted), and
// folding the event stream reproduces, at each id, the byte-identical
// answer a poll at that generation would have returned. A reconnect
// with Last-Event-ID equal to the current composite resumes without a
// snapshot; any other value gets a fresh snapshot, because a moved
// generation means the client's folded answer may describe history the
// store no longer remembers.
//
// The resume-skip is only sound because event ids are exact: the
// generations stamped on an event are captured under each store's lock
// together with that venue's partial answer (QueryResult.Generations),
// so an event can never carry bytes newer than its id claims. With a
// racy sample — generations read before execution — a write landing
// mid-query would label gen-N+1 bytes as gen-N; a client reconnecting
// at gen-N would then have its snapshot skipped while holding different
// bytes than the server diffs against, silently diverging forever.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/notify"
)

// defaultWatchHeartbeat keeps idle streams alive through proxies and
// load balancers whose idle timeouts are commonly 30–60 s.
const defaultWatchHeartbeat = 15 * time.Second

// watchKind parses ?kind= (default popular-regions).
func watchKind(r *http.Request) (c2mn.QueryKind, error) {
	switch v := r.URL.Query().Get("kind"); v {
	case "", string(c2mn.QueryPopularRegions):
		return c2mn.QueryPopularRegions, nil
	case string(c2mn.QueryFrequentPairs):
		return c2mn.QueryFrequentPairs, nil
	default:
		return "", fmt.Errorf("bad kind %q (want %q or %q)", v, c2mn.QueryPopularRegions, c2mn.QueryFrequentPairs)
	}
}

// watchExecute runs the standing query and returns the exact per-venue
// generations the answer was computed at: each venue's generation is
// captured under its store lock atomically with its partial answer, so
// the resulting event id can neither understate nor overstate the
// bytes it stamps — the property the Last-Event-ID resume-skip
// depends on.
func (s *server) watchExecute(r *http.Request, q c2mn.Query) (map[string]uint64, c2mn.QueryResult, error) {
	res, err := s.registry.Query(r.Context(), q)
	if err != nil {
		return nil, c2mn.QueryResult{}, err
	}
	return res.Generations, res, nil
}

// watchSnapshot renders a QueryResult as a snapshot/resync payload.
func watchSnapshot(res c2mn.QueryResult) notify.SnapshotData {
	return notify.SnapshotData{
		Kind:    string(res.Kind),
		K:       res.K,
		Scanned: res.Scanned,
		Regions: res.Regions,
		Pairs:   res.Pairs,
	}
}

// watchAnswer is the folded-state view of a QueryResult.
func watchAnswer(res c2mn.QueryResult) notify.Answer {
	return notify.Answer{Kind: string(res.Kind), Regions: res.Regions, Pairs: res.Pairs}
}

// handleWatch serves GET /v1/watch and GET /v1/venues/{venue}/watch.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	kind, err := watchKind(r)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	scope, venues, err := s.sugarScope(r)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	regions, win, k, err := httpapi.SugarParams(r)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, err)
		return
	}
	q := c2mn.Query{Kind: kind, Scope: scope, Venues: venues, Regions: regions, Window: win, K: k}

	// Subscribe before the first execution: a generation that moves
	// between the two is pended, so the loop re-executes rather than
	// missing it. Fleet scope uses the wildcard subscription — it must
	// also see venues loaded after the stream began.
	var subVenues []string
	if scope != c2mn.ScopeFleet {
		subVenues = venues
	}
	sub := s.watchHub.Subscribe(subVenues, 0)
	defer sub.Close()

	ids, res, err := s.watchExecute(r, q)
	if err != nil {
		// Still a plain HTTP response: the stream has not started, so a
		// bad venue or malformed query fails like the one-shot endpoint.
		writeQueryError(w, r, err)
		return
	}

	hb := s.watchHeartbeat
	if hb <= 0 {
		hb = defaultWatchHeartbeat
	}
	sw, err := notify.NewSSEWriter(w, 3*hb)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusInternalServerError, err)
		return
	}

	answer, curID := watchAnswer(res), notify.EncodeEventID(ids)
	if last := r.Header.Get("Last-Event-ID"); last == "" || last != curID {
		// An unmatched Last-Event-ID gets a full snapshot: the server
		// cannot reconstruct the answer the client folded up to, and the
		// generation contract makes the replacement exact.
		if err := sw.Event("snapshot", curID, watchSnapshot(res)); err != nil {
			return
		}
	}

	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.watchShutdown:
			// Process drain: readiness already flipped off; tell the client
			// to reconnect elsewhere, then let Shutdown reap the handler.
			sw.Event("goodbye", curID, notify.GoodbyeData{Reason: notify.ReasonDraining})
			return
		case <-ticker.C:
			if err := sw.Comment("hb"); err != nil {
				return
			}
		case <-sub.Ready():
			_, resync := sub.Take()
			newIDs, res, err := s.watchExecute(r, q)
			if err != nil {
				reason := notify.ReasonError
				if errors.Is(err, c2mn.ErrUnknownVenue) {
					reason = notify.ReasonUnknownVenue
				}
				sw.Event("goodbye", curID, notify.GoodbyeData{Reason: reason})
				return
			}
			newID := notify.EncodeEventID(newIDs)
			next := watchAnswer(res)
			if resync {
				// The hub dropped signal detail (overflow or invalidation):
				// replace instead of patching.
				if err := sw.Event("resync", newID, watchSnapshot(res)); err != nil {
					return
				}
				answer, curID = next, newID
				continue
			}
			if newID == curID {
				continue // coalesced signal for a generation already pushed
			}
			delta := notify.Diff(answer, next)
			if delta.Empty() {
				// The store moved but the top-k did not: emit nothing. The
				// client's id stays behind, which is sound — its folded bytes
				// still equal the current answer.
				continue
			}
			if err := sw.Event("delta", newID, delta); err != nil {
				return
			}
			answer, curID = next, newID
		}
	}
}
