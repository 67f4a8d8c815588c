package c2mn

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testRegistry(t *testing.T, opts ...RegistryOption) (*VenueRegistry, *Annotator, []LabeledSequence) {
	t.Helper()
	a, test := testAnnotator(t)
	vr, err := NewVenueRegistry(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return vr, a, test
}

func TestVenueRegistryRoutingAndIsolation(t *testing.T) {
	vr, a, test := testRegistry(t, WithVenueDefaults(WithPreprocess(120, 60)))
	if _, err := vr.Register("north", a); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Register("south", a); err != nil {
		t.Fatal(err)
	}
	if got := vr.Venues(); !reflect.DeepEqual(got, []string{"north", "south"}) {
		t.Fatalf("Venues() = %v", got)
	}

	// The same object ID fed to both venues is two independent streams:
	// different records, independently segmented and stored.
	if _, err := vr.FeedAll("north", "obj", test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.FeedAll("south", "obj", test[1].P.Records); err != nil {
		t.Fatal(err)
	}
	if err := vr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	northSeqs, err := vr.Sequences("north")
	if err != nil {
		t.Fatal(err)
	}
	southSeqs, err := vr.Sequences("south")
	if err != nil {
		t.Fatal(err)
	}
	if len(northSeqs) == 0 || len(southSeqs) == 0 {
		t.Fatalf("venue stores empty: north=%d south=%d", len(northSeqs), len(southSeqs))
	}
	if reflect.DeepEqual(northSeqs, southSeqs) {
		t.Fatal("venues share state: identical store contents from different streams")
	}

	// Per-venue queries match the per-venue engines directly.
	w := Window{Start: 0, End: 1e9}
	q := a.Space().Regions()
	topN, err := vr.Query(context.Background(), Query{
		Kind: QueryPopularRegions, Venues: []string{"north"}, Regions: q, Window: &w, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ne, err := vr.Engine("north")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topN.Regions, ne.TopKPopularRegions(q, w, 5)) {
		t.Fatal("routed query disagrees with the venue engine")
	}

	// Stats are broken down per venue.
	st := vr.Stats()
	if len(st) != 2 {
		t.Fatalf("Stats() covers %d venues", len(st))
	}
	if st["north"].FedRecords != int64(len(test[0].P.Records)) {
		t.Fatalf("north FedRecords = %d, want %d", st["north"].FedRecords, len(test[0].P.Records))
	}
	if st["south"].FedRecords != int64(len(test[1].P.Records)) {
		t.Fatalf("south FedRecords = %d, want %d", st["south"].FedRecords, len(test[1].P.Records))
	}
}

func TestVenueRegistryUnknownVenue(t *testing.T) {
	vr, a, test := testRegistry(t)
	if _, err := vr.Register("only", a); err != nil {
		t.Fatal(err)
	}
	if err := vr.Feed("nope", "o", Record{Loc: Loc(1, 1, 0), T: 1}); !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("Feed unknown venue: err = %v, want ErrUnknownVenue", err)
	}
	if _, _, err := vr.AnnotateCtx(context.Background(), "nope", &test[0].P); !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("AnnotateCtx unknown venue: err = %v", err)
	}
	if _, err := vr.Query(context.Background(), Query{Kind: QueryPopularRegions, Venues: []string{"nope"}}); !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("query unknown venue: err = %v", err)
	}
	if err := vr.Unload("nope"); !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("Unload unknown venue: err = %v", err)
	}
	if err := vr.Unload("only"); err != nil {
		t.Fatal(err)
	}
	if err := vr.Flush("only"); !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("Flush after unload: err = %v, want ErrUnknownVenue", err)
	}
	if vr.Len() != 0 {
		t.Fatalf("Len() = %d after unload", vr.Len())
	}
}

func TestVenueRegistryHotReload(t *testing.T) {
	vr, a, test := testRegistry(t)
	orig, err := vr.Register("mall", a)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, _, err := a.Annotate(&test[0].P)
	if err != nil {
		t.Fatal(err)
	}

	// Save the model, hot-reload it into the same venue ID.
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := vr.Load("mall", a.Space(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded == orig {
		t.Fatal("Load did not swap in a fresh engine")
	}
	cur, err := vr.Engine("mall")
	if err != nil {
		t.Fatal(err)
	}
	if cur != reloaded {
		t.Fatal("registry still routes to the old engine")
	}
	if cur.VenueID() != "mall" {
		t.Fatalf("VenueID = %q", cur.VenueID())
	}
	got, _, err := vr.AnnotateCtx(context.Background(), "mall", &test[0].P)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantLabels) {
		t.Fatal("hot-reloaded model labels differ from the original")
	}
}

func TestVenueRegistryMaxVenues(t *testing.T) {
	vr, a, _ := testRegistry(t, WithMaxVenues(1))
	if _, err := vr.Register("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Register("b", a); !errors.Is(err, ErrTooManyVenues) {
		t.Fatalf("over-limit load: err = %v, want ErrTooManyVenues", err)
	}
	// A hot reload of an existing venue is always allowed.
	if _, err := vr.Register("a", a); err != nil {
		t.Fatalf("hot reload at the limit failed: %v", err)
	}
	if _, err := vr.Register("", a); err == nil {
		t.Fatal("empty venue ID accepted")
	}
}

func TestVenueRegistryBudgetWaitIsCancellable(t *testing.T) {
	vr, a, test := testRegistry(t, WithVenueBudget(1))
	e, err := vr.Register("v", a)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot, then issue a request with an already-dead
	// context: it must fail with ErrCanceled instead of queuing behind
	// the held slot (and must not run inference once the slot frees).
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := e.AnnotateCtx(ctx, &test[0].P)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("budget wait with dead ctx: err = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AnnotateCtx blocked on a held budget slot despite cancellation")
	}
}

func TestVenueRegistrySharedBudget(t *testing.T) {
	vr, a, test := testRegistry(t, WithVenueBudget(1))
	for _, id := range []string{"a", "b"} {
		if _, err := vr.Register(id, a); err != nil {
			t.Fatal(err)
		}
	}
	// With a single shared inference slot, concurrent batches on both
	// venues still complete (the budget serialises, not deadlocks).
	ps := []PSequence{test[0].P, test[1].P}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, id := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			_, errs[i] = vr.AnnotateAllCtx(context.Background(), id, ps)
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("venue %d under shared budget: %v", i, err)
		}
	}
}
