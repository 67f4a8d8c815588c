package c2mn

import (
	"context"
	"fmt"
	"math"
	"sync"

	"c2mn/internal/query"
)

// QueryKind selects which of the paper's two top-k m-semantics queries
// a Query runs.
type QueryKind string

const (
	// QueryPopularRegions is the TkPRQ: the k regions with the most
	// stay visits inside the window.
	QueryPopularRegions QueryKind = "popular-regions"
	// QueryFrequentPairs is the TkFRPQ: the k region pairs most often
	// visited by the same object inside the window.
	QueryFrequentPairs QueryKind = "frequent-pairs"
)

// QueryScope selects how many venue shards a Query spans.
type QueryScope string

const (
	// ScopeVenue targets exactly one venue (Venues must hold one ID).
	ScopeVenue QueryScope = "venue"
	// ScopeVenues targets an explicit venue list.
	ScopeVenues QueryScope = "venues"
	// ScopeFleet targets every loaded venue (Venues must be empty).
	ScopeFleet QueryScope = "fleet"
)

// DefaultQueryK is the k applied when a Query leaves K at zero.
const DefaultQueryK = 5

// Query is the one composable request type behind every m-semantics
// query: kind, region filter, time window, k, and scope — one venue,
// an explicit venue list, or the whole fleet. The zero values compose
// into sensible defaults: empty Scope is inferred from Venues (no
// venues means the fleet), empty Regions means every region of each
// scanned venue, a nil Window means all of time, and K <= 0 means
// DefaultQueryK. It marshals to/from JSON as the body of msserve's
// POST /v1/query.
//
// Fleet and multi-venue results merge region counts by region ID
// value, i.e. they assume a shared region ID namespace across venues
// (replicated floor plans, or globally assigned IDs). Set PerVenue for
// the per-shard breakdown when the namespaces are independent.
type Query struct {
	// Kind selects the query; required.
	Kind QueryKind `json:"kind"`
	// Scope selects venue/venues/fleet execution. Empty infers it from
	// Venues: none loaded-venue-wide (fleet), one venue, many venues.
	Scope QueryScope `json:"scope,omitempty"`
	// Venues names the target shards for venue/venues scope; it must
	// be empty for fleet scope. Duplicates are collapsed.
	Venues []string `json:"venues,omitempty"`
	// Regions restricts the query set Q; empty means every region of
	// each scanned venue.
	Regions []RegionID `json:"regions,omitempty"`
	// Window restricts the query to m-semantics periods intersecting
	// it; nil means all of time.
	Window *Window `json:"window,omitempty"`
	// K bounds the merged result (and each per-venue breakdown list);
	// 0 means DefaultQueryK.
	K int `json:"k,omitempty"`
	// PerVenue adds each scanned venue's own top-K partial answer to
	// the result.
	PerVenue bool `json:"per_venue,omitempty"`
}

// Normalized validates q and fills the documented defaults, returning
// the execution-ready copy: the effective scope, venue list and k that
// VenueRegistry.Query runs — and that a routing tier must route on to
// agree with its backends. All failures wrap ErrInvalidQuery.
func (q Query) Normalized() (Query, error) {
	switch q.Kind {
	case QueryPopularRegions, QueryFrequentPairs:
	default:
		return q, invalidQuery(fmt.Sprintf("kind %q (want %q or %q)", q.Kind, QueryPopularRegions, QueryFrequentPairs))
	}
	if q.Scope == "" {
		switch len(q.Venues) {
		case 0:
			q.Scope = ScopeFleet
		case 1:
			q.Scope = ScopeVenue
		default:
			q.Scope = ScopeVenues
		}
	}
	switch q.Scope {
	case ScopeFleet:
		if len(q.Venues) != 0 {
			return q, invalidQuery(`scope "fleet" does not take a venue list`)
		}
	case ScopeVenue:
		if len(q.Venues) != 1 {
			return q, invalidQuery(fmt.Sprintf(`scope "venue" wants exactly one venue, got %d`, len(q.Venues)))
		}
	case ScopeVenues:
		if len(q.Venues) == 0 {
			return q, invalidQuery(`scope "venues" wants at least one venue`)
		}
	default:
		return q, invalidQuery(fmt.Sprintf("scope %q", q.Scope))
	}
	if len(q.Venues) > 0 {
		dedup := make([]string, 0, len(q.Venues))
		seen := make(map[string]bool, len(q.Venues))
		for _, id := range q.Venues {
			if id == "" {
				return q, invalidQuery("empty venue ID")
			}
			if !seen[id] {
				seen[id] = true
				dedup = append(dedup, id)
			}
		}
		q.Venues = dedup
	}
	if q.K < 0 {
		return q, invalidQuery(fmt.Sprintf("negative k %d", q.K))
	}
	if q.K == 0 {
		q.K = DefaultQueryK
	}
	if q.Window != nil {
		if math.IsNaN(q.Window.Start) || math.IsNaN(q.Window.End) {
			return q, invalidQuery("NaN window bound")
		}
		w := *q.Window // detach from the caller's struct
		q.Window = &w
	}
	return q, nil
}

// window returns the effective time window: the explicit one, or all
// of time when none was set.
func (q *Query) window() Window {
	if q.Window == nil {
		return Window{Start: -math.MaxFloat64, End: math.MaxFloat64}
	}
	return *q.Window
}

// VenueCounts is one venue's own top-k answer inside a multi-venue
// QueryResult (see Query.PerVenue). Exactly one of Regions/Pairs is
// set, matching the query kind.
type VenueCounts struct {
	Venue   string        `json:"venue"`
	Regions []RegionCount `json:"regions,omitempty"`
	Pairs   []PairCount   `json:"pairs,omitempty"`
}

// QueryResult is the answer to a Query. Regions (TkPRQ) or Pairs
// (TkFRPQ) holds the merged top-K in canonical order — count
// descending, ties by region ID ascending — and merging across venues
// is exact: it equals a brute-force recount over the concatenation of
// every scanned venue's retained m-semantics. Scanned reports which
// venues contributed, in scan order (sorted for fleet scope, request
// order otherwise).
type QueryResult struct {
	Kind     QueryKind     `json:"kind"`
	Scope    QueryScope    `json:"scope"`
	K        int           `json:"k"`
	Scanned  []string      `json:"scanned"`
	Regions  []RegionCount `json:"regions,omitempty"`
	Pairs    []PairCount   `json:"pairs,omitempty"`
	PerVenue []VenueCounts `json:"per_venue,omitempty"`
	// Generations holds each scanned venue's store generation, captured
	// atomically (under the store lock) with that venue's partial
	// answer: the result's bytes are exactly the answer at these
	// generations, never newer. The watch plane stamps event ids from
	// this — a sample taken before or after execution could mislabel
	// bytes written mid-query and break Last-Event-ID resume. Not part
	// of the HTTP response body; the serving layer exposes freshness via
	// the ETag validator instead.
	Generations map[string]uint64 `json:"-"`
}

// Query is the single execution entry point of the query API: it
// validates q, resolves its scope to venue shards, runs the per-shard
// query on each — in parallel for multi-venue scopes, with the fan-out
// bounded by the registry's WithVenueBudget slots so a wide fleet
// query cannot monopolise the fleet's inference capacity — and merges
// the partial counts exactly.
//
// A venue named explicitly (venue/venues scope) must be loaded:
// a missing one fails the whole query with ErrUnknownVenue. Fleet
// scope snapshots the loaded venue set at entry and silently skips
// venues unloaded mid-scan; Scanned reports what was actually merged.
// Malformed queries fail with ErrInvalidQuery, and ctx cancellation
// with ErrCanceled. Single-venue scans never wait for budget slots.
func (vr *VenueRegistry) Query(ctx context.Context, q Query) (QueryResult, error) {
	nq, err := q.Normalized()
	if err != nil {
		return QueryResult{}, err
	}
	fleet := nq.Scope == ScopeFleet
	ids := nq.Venues
	if fleet {
		ids = vr.Venues()
	}
	type partial struct {
		regions []RegionCount
		pairs   []PairCount
		gen     uint64
		skipped bool
		err     error
	}
	parts := make([]partial, len(ids))
	// Only a genuine fan-out is budget-bounded: serialising single-venue
	// queries behind busy inference slots would regress the venue-scoped
	// path, which never waited before this API existed.
	bounded := len(ids) > 1
	scan := func(p *partial, id string) {
		if err := ctx.Err(); err != nil {
			p.err = canceled(err)
			return
		}
		e, err := vr.Engine(id)
		if err != nil {
			if fleet {
				p.skipped = true // unloaded between listing and scan
			} else {
				p.err = err
			}
			return
		}
		if bounded {
			if err := e.acquire(ctx); err != nil {
				p.err = err
				return
			}
			defer e.release()
		}
		p.regions, p.pairs, p.gen = e.queryCounts(nq.Kind, nq.Regions, nq.window(), query.AllCounts)
	}
	if bounded {
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func(p *partial, id string) {
				defer wg.Done()
				scan(p, id)
			}(&parts[i], id)
		}
		wg.Wait()
	} else {
		// One venue (or none): nothing to overlap, so no goroutine.
		for i, id := range ids {
			scan(&parts[i], id)
		}
	}

	res := QueryResult{
		Kind: nq.Kind, Scope: nq.Scope, K: nq.K,
		Scanned:     make([]string, 0, len(ids)),
		Generations: make(map[string]uint64, len(ids)),
	}
	regionLists := make([][]RegionCount, 0, len(ids))
	pairLists := make([][]PairCount, 0, len(ids))
	for i := range parts {
		p := &parts[i]
		if p.err != nil {
			return QueryResult{}, fmt.Errorf("c2mn: query venue %q: %w", ids[i], p.err)
		}
		if p.skipped {
			continue
		}
		res.Scanned = append(res.Scanned, ids[i])
		res.Generations[ids[i]] = p.gen
		if nq.PerVenue {
			res.PerVenue = append(res.PerVenue, VenueCounts{
				Venue:   ids[i],
				Regions: query.TruncateRegionCounts(p.regions, nq.K),
				Pairs:   query.TruncatePairCounts(p.pairs, nq.K),
			})
		}
		regionLists = append(regionLists, p.regions)
		pairLists = append(pairLists, p.pairs)
	}
	switch nq.Kind {
	case QueryFrequentPairs:
		res.Pairs = query.MergeTopPairCounts(nq.K, pairLists...)
		if res.Pairs == nil {
			res.Pairs = []PairCount{}
		}
	default:
		res.Regions = query.MergeTopRegionCounts(nq.K, regionLists...)
		if res.Regions == nil {
			res.Regions = []RegionCount{}
		}
	}
	return res, nil
}
