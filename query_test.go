package c2mn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQueryValidation(t *testing.T) {
	vr, err := NewVenueRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nan := math.NaN()
	bad := []Query{
		{},             // missing kind
		{Kind: "nope"}, // unknown kind
		{Kind: QueryPopularRegions, Scope: "galaxy"},                               // unknown scope
		{Kind: QueryPopularRegions, Scope: ScopeFleet, Venues: []string{"a"}},      // fleet with venues
		{Kind: QueryPopularRegions, Scope: ScopeVenue},                             // venue without venue
		{Kind: QueryPopularRegions, Scope: ScopeVenue, Venues: []string{"a", "b"}}, // venue with two
		{Kind: QueryPopularRegions, Scope: ScopeVenues},                            // venues without venues
		{Kind: QueryPopularRegions, Venues: []string{""}},                          // empty venue ID
		{Kind: QueryPopularRegions, K: -1},                                         // negative k
		{Kind: QueryPopularRegions, Window: &Window{Start: nan, End: 1}},           // NaN window
	}
	for i, q := range bad {
		if _, err := vr.Query(ctx, q); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("bad query %d: err = %v, want ErrInvalidQuery", i, err)
		}
	}

	// An empty fleet is a valid, empty answer — with the defaults
	// (fleet scope, DefaultQueryK) filled in.
	res, err := vr.Query(ctx, Query{Kind: QueryPopularRegions})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scope != ScopeFleet || res.K != DefaultQueryK {
		t.Fatalf("defaults not applied: %+v", res)
	}
	if res.Regions == nil || len(res.Regions) != 0 || len(res.Scanned) != 0 {
		t.Fatalf("empty fleet result = %+v", res)
	}
}

// fleetRegistry loads three venues with the shared test model and
// streams a different rotation of the test sequences into each, so
// every venue store holds different m-semantics.
func fleetRegistry(t *testing.T) (*VenueRegistry, *Annotator, []string, []LabeledSequence) {
	t.Helper()
	vr, a, test := testRegistry(t, WithVenueDefaults(WithPreprocess(120, 60)))
	ids := []string{"east", "north", "west"}
	for _, id := range ids {
		if _, err := vr.Register(id, a); err != nil {
			t.Fatal(err)
		}
	}
	streams := gappedStreams(test, 120)
	objs := make([]string, 0, len(streams))
	for id := range streams {
		objs = append(objs, id)
	}
	for vi, id := range ids {
		// Venue vi gets all objects from offset vi on — overlapping but
		// distinct workloads.
		for oi, obj := range objs {
			if oi < vi {
				continue
			}
			if _, err := vr.FeedAll(id, obj, streams[obj]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := vr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return vr, a, ids, test
}

func TestRegistryFleetQueryMatchesBruteForce(t *testing.T) {
	vr, a, ids, _ := fleetRegistry(t)
	ctx := context.Background()
	regions := a.Space().Regions()
	all := Window{Start: -math.MaxFloat64, End: math.MaxFloat64}

	// The brute-force reference: the concatenation of every venue's
	// retained m-semantics, recounted from scratch.
	concat := func(venues []string) []MSSequence {
		var out []MSSequence
		for _, id := range venues {
			seqs, err := vr.Sequences(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, seqs...)
		}
		return out
	}

	const k = 5
	res, err := vr.Query(ctx, Query{Kind: QueryPopularRegions, Scope: ScopeFleet, K: k, PerVenue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Scanned, ids) {
		t.Fatalf("Scanned = %v, want %v", res.Scanned, ids)
	}
	want := TopKPopularRegions(concat(ids), regions, all, k)
	if !reflect.DeepEqual(res.Regions, want) {
		t.Fatalf("fleet TkPRQ = %v, brute force = %v", res.Regions, want)
	}
	// The per-venue breakdown is each venue's own top-k.
	if len(res.PerVenue) != len(ids) {
		t.Fatalf("PerVenue covers %d venues, want %d", len(res.PerVenue), len(ids))
	}
	for i, vc := range res.PerVenue {
		e, err := vr.Engine(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if vc.Venue != ids[i] || !reflect.DeepEqual(vc.Regions, e.TopKPopularRegions(regions, all, k)) {
			t.Fatalf("PerVenue[%d] = %+v diverges from the venue's own top-k", i, vc)
		}
	}

	pres, err := vr.Query(ctx, Query{Kind: QueryFrequentPairs, Scope: ScopeFleet, K: k})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := TopKFrequentPairs(concat(ids), regions, all, k)
	if !reflect.DeepEqual(pres.Pairs, wantPairs) {
		t.Fatalf("fleet TkFRPQ = %v, brute force = %v", pres.Pairs, wantPairs)
	}

	// An explicit venue list merges exactly that subset, in request
	// order, and a duplicate entry does not double-count.
	subset := []string{"west", "east", "west"}
	sres, err := vr.Query(ctx, Query{Kind: QueryPopularRegions, Venues: subset, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Scope != ScopeVenues || !reflect.DeepEqual(sres.Scanned, []string{"west", "east"}) {
		t.Fatalf("subset scope/scan = %v %v", sres.Scope, sres.Scanned)
	}
	wantSubset := TopKPopularRegions(concat([]string{"west", "east"}), regions, all, k)
	if !reflect.DeepEqual(sres.Regions, wantSubset) {
		t.Fatalf("subset TkPRQ = %v, brute force = %v", sres.Regions, wantSubset)
	}

	// Single-venue scope through the unified path agrees with the
	// venue engine's own top-k.
	one, err := vr.Query(ctx, Query{Kind: QueryPopularRegions, Venues: []string{"north"}, K: k})
	if err != nil {
		t.Fatal(err)
	}
	north, err := vr.Engine("north")
	if err != nil {
		t.Fatal(err)
	}
	// The unified path defaults empty Regions to the venue's region
	// set, which here is exactly `regions`.
	if direct := north.TopKPopularRegions(regions, all, k); one.Scope != ScopeVenue || !reflect.DeepEqual(one.Regions, direct) {
		t.Fatalf("venue-scope Query %v diverges from Engine.TopKPopularRegions %v", one.Regions, direct)
	}
}

// TestQueryGenerationsExact: a QueryResult carries, for every scanned
// venue, the store generation its partial answer was computed at —
// captured atomically with the counts, so the watch plane can stamp
// event ids that exactly label their bytes. On a quiescent store that
// generation must equal the engine's current one, and a write to one
// venue must move only that venue's entry.
func TestQueryGenerationsExact(t *testing.T) {
	vr, _, ids, test := fleetRegistry(t)
	ctx := context.Background()

	res, err := vr.Query(ctx, Query{Kind: QueryPopularRegions, Scope: ScopeFleet})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != len(res.Scanned) {
		t.Fatalf("Generations covers %d venues, Scanned %d", len(res.Generations), len(res.Scanned))
	}
	for _, id := range res.Scanned {
		e, err := vr.Engine(id)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := res.Generations[id]; !ok || g != e.StoreGeneration() {
			t.Fatalf("venue %q: Generations = %d (ok=%v), store at %d", id, g, ok, e.StoreGeneration())
		}
	}
	before := res.Generations

	// A write to one venue moves only that venue's generation. Venue 0
	// holds every object's stream already, so re-feeding any object's
	// records re-emits sequences and bumps the store.
	for obj, recs := range gappedStreams(test, 120) {
		if _, err := vr.FeedAll(ids[0], obj+"-again", recs); err != nil {
			t.Fatal(err)
		}
		break
	}
	if err := vr.Flush(ids[0]); err != nil {
		t.Fatal(err)
	}
	res2, err := vr.Query(ctx, Query{Kind: QueryPopularRegions, Scope: ScopeFleet})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Generations[ids[0]] <= before[ids[0]] {
		t.Fatalf("venue %q generation did not move after a write: %d -> %d",
			ids[0], before[ids[0]], res2.Generations[ids[0]])
	}
	for _, id := range ids[1:] {
		if res2.Generations[id] != before[id] {
			t.Fatalf("untouched venue %q generation moved: %d -> %d", id, before[id], res2.Generations[id])
		}
	}
}

// TestQueryCacheSlots pins what shares a result-cache slot: region
// lists are sets, so a permuted or repeated explicit list hits the slot
// its sorted form filled, and the every-region default (encoded as a
// marker, not expanded) hits its own slot however it is spelled — while
// answering exactly what the expanded list answers.
func TestQueryCacheSlots(t *testing.T) {
	vr, a, _, _ := fleetRegistry(t)
	ctx := context.Background()
	north, err := vr.Engine("north")
	if err != nil {
		t.Fatal(err)
	}
	w := Window{Start: 0, End: 1e6}
	ask := func(regions []RegionID, wantHit bool) []RegionCount {
		t.Helper()
		before := north.Stats()
		res, err := vr.Query(ctx, Query{Kind: QueryPopularRegions, Venues: []string{"north"}, Regions: regions, Window: &w})
		if err != nil {
			t.Fatal(err)
		}
		after := north.Stats()
		if hit := after.QueryCacheHits > before.QueryCacheHits; hit != wantHit {
			t.Fatalf("regions %v: cache hit = %v, want %v", regions, hit, wantHit)
		}
		return res.Regions
	}
	ask([]RegionID{3, 1, 2}, false)
	ask([]RegionID{1, 2, 3}, true)
	ask([]RegionID{2, 2, 3, 1, 3}, true)
	ask([]RegionID{1, 2}, false)

	byDefault := ask(nil, false)
	ask([]RegionID{}, true)
	if got := north.TopKPopularRegions(nil, w, DefaultQueryK); !reflect.DeepEqual(got, byDefault) {
		t.Fatalf("Engine.TopKPopularRegions(nil) = %v, registry default = %v", got, byDefault)
	}
	// The explicit full list is its own slot, with the same answer.
	if explicit := ask(a.Space().Regions(), false); !reflect.DeepEqual(explicit, byDefault) {
		t.Fatalf("every region listed = %v, every region by default = %v", explicit, byDefault)
	}
	if len(byDefault) == 0 {
		t.Fatal("empty answer over a populated store proves nothing")
	}
}

func TestRegistryQueryErrors(t *testing.T) {
	vr, a, test := testRegistry(t)
	if _, err := vr.Register("only", a); err != nil {
		t.Fatal(err)
	}
	_ = test
	// An explicitly named venue must be loaded.
	if _, err := vr.Query(context.Background(), Query{Kind: QueryPopularRegions, Venues: []string{"ghost"}}); !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("unknown venue: err = %v, want ErrUnknownVenue", err)
	}
	// A dead context fails typed instead of scanning.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := vr.Query(ctx, Query{Kind: QueryPopularRegions, Scope: ScopeFleet}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// TestEngineFeedBacklogTimeout: with a saturated shared budget and a
// feed-queue bound, a completed fragment fails fast with ErrBacklog
// instead of blocking the Feed caller forever — and ingestion recovers
// once a slot frees.
func TestEngineFeedBacklogTimeout(t *testing.T) {
	a, test := testAnnotator(t)
	budget := make(chan struct{}, 1)
	e, err := NewEngine(a,
		WithPreprocess(10, 0),
		WithFeedQueueTimeout(30*time.Millisecond),
		withBudget(budget),
	)
	if err != nil {
		t.Fatal(err)
	}
	loc := test[0].P.Records[0].Loc

	budget <- struct{}{} // saturate the fleet
	if err := e.Feed("o", Record{Loc: loc, T: 0}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = e.Feed("o", Record{Loc: loc, T: 1000}) // η-gap: completes the fragment
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("saturated feed: err = %v, want ErrBacklog", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backlog wait not bounded: took %v", elapsed)
	}

	<-budget // free the slot: the stream keeps working
	if err := e.Feed("o", Record{Loc: loc, T: 5000}); err != nil {
		t.Fatalf("feed after backlog recovery: %v", err)
	}
}

// TestVenueRegistryFlushAllAggregatesFailures: FlushAll keeps flushing
// past a failing venue and the joined error names every one of them.
func TestVenueRegistryFlushAllAggregatesFailures(t *testing.T) {
	vr, a, test := testRegistry(t,
		WithVenueDefaults(WithPreprocess(120, 60), WithFeedQueueTimeout(30*time.Millisecond)),
		WithVenueBudget(1),
	)
	for _, id := range []string{"a", "b"} {
		if _, err := vr.Register(id, a); err != nil {
			t.Fatal(err)
		}
		if _, err := vr.FeedAll(id, "obj", test[0].P.Records); err != nil {
			t.Fatal(err)
		}
	}
	ea, err := vr.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the shared budget so both venues' trailing fragments
	// fail annotation with ErrBacklog at flush time.
	if err := ea.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ea.release()

	err = vr.FlushAll()
	if err == nil {
		t.Fatal("FlushAll under saturated budget reported success")
	}
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("FlushAll err = %v, want ErrBacklog", err)
	}
	for _, id := range []string{"a", "b"} {
		if !strings.Contains(err.Error(), `venue "`+id+`"`) {
			t.Fatalf("FlushAll error does not name venue %q: %v", id, err)
		}
	}
	// Every venue was flushed despite the failures: no pending streams.
	for id, st := range vr.Stats() {
		if st.PendingRecords != 0 {
			t.Fatalf("venue %q still has %d pending records after FlushAll", id, st.PendingRecords)
		}
	}
}
