package main

// Integration tests: train a small model, stand the HTTP surface up on
// httptest, and round-trip /v1/annotate, /v1/feed + /v1/flush and the live
// queries against direct Engine calls — single-venue and multi-venue,
// plus the admin plane and graceful shutdown.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/sim"
)

const testEta, testPsi = 120, 60

var (
	annOnce sync.Once
	annVal  *c2mn.Annotator
	annTest []c2mn.LabeledSequence
	annErr  error
)

// testParts trains one small model, shared across tests (the engines
// built on it are independent; training dominates test time).
func testParts(t *testing.T) (*c2mn.Annotator, []c2mn.LabeledSequence) {
	t.Helper()
	annOnce.Do(func() {
		space, err := c2mn.GenerateBuilding(sim.SmallBuilding(), 1)
		if err != nil {
			annErr = err
			return
		}
		spec := sim.DefaultMobility(10, 1500)
		spec.StayMax = 300
		ds, err := c2mn.GenerateMobility(space, spec, 5)
		if err != nil {
			annErr = err
			return
		}
		train, test := ds.Sequences[:7], ds.Sequences[7:]
		ann, err := c2mn.Train(space, train, c2mn.TrainOptions{
			V: 6, Exact: true, TuneClustering: true, Seed: 1,
		})
		if err != nil {
			annErr = err
			return
		}
		annVal, annTest = ann, test
	})
	if annErr != nil {
		t.Fatal(annErr)
	}
	return annVal, annTest
}

// testRegistry builds a registry hosting the venues under the shared
// test model.
func testRegistry(t *testing.T, venues ...string) (*c2mn.VenueRegistry, []c2mn.LabeledSequence) {
	t.Helper()
	ann, test := testParts(t)
	registry, err := c2mn.NewVenueRegistry(
		c2mn.WithVenueDefaults(c2mn.WithPreprocess(testEta, testPsi)),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range venues {
		if _, err := registry.Register(id, ann); err != nil {
			t.Fatal(err)
		}
	}
	return registry, test
}

func toWire(records []c2mn.Record) []wireRecord {
	out := make([]wireRecord, len(records))
	for i, r := range records {
		out[i] = wireRecord{X: r.Loc.X, Y: r.Loc.Y, Floor: r.Loc.Floor, T: r.T}
	}
	return out
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServerRoundTrips(t *testing.T) {
	registry, test := testRegistry(t, "default")
	engine, err := registry.Engine("default")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	// Liveness.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// /annotate (venue defaulted: only one loaded) matches a direct
	// Engine call.
	p := test[0].P
	resp = postJSON(t, ts.URL+"/v1/annotate", sequenceRequest{
		ObjectID: p.ObjectID,
		Records:  toWire(p.Records),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/annotate status = %s", resp.Status)
	}
	got := decodeBody[annotateResponse](t, resp)
	labels, ms, err := engine.Annotator().Annotate(&p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Venue != "default" {
		t.Fatalf("/annotate venue = %q", got.Venue)
	}
	if got.ObjectID != p.ObjectID || len(got.Regions) != len(labels.Regions) {
		t.Fatalf("/annotate shape: %s with %d regions", got.ObjectID, len(got.Regions))
	}
	for i, r := range labels.Regions {
		if got.Regions[i] != int(r) {
			t.Fatalf("/annotate region[%d] = %d, want %d", i, got.Regions[i], r)
		}
	}
	if len(got.Semantics) != len(ms.Semantics) {
		t.Fatalf("/annotate semantics count = %d, want %d", len(got.Semantics), len(ms.Semantics))
	}
	for i, m := range ms.Semantics {
		w := got.Semantics[i]
		if w.Region != int(m.Region) || w.Start != m.Start || w.End != m.End || w.Event != m.Event.String() {
			t.Fatalf("/annotate semantics[%d] = %+v, want %v", i, w, m)
		}
	}

	// Empty sequences are a client error.
	resp = postJSON(t, ts.URL+"/v1/annotate", sequenceRequest{ObjectID: "empty"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/annotate empty status = %s, want 400", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/annotate", sequenceRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/annotate no object_id status = %s, want 400", resp.Status)
	}
	resp.Body.Close()

	// Stream every test object through /feed, then /flush.
	for i := range test {
		resp = postJSON(t, ts.URL+"/v1/feed", sequenceRequest{
			ObjectID: fmt.Sprintf("obj%d", i),
			Records:  toWire(test[i].P.Records),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/feed status = %s", resp.Status)
		}
		fed := decodeBody[feedResponse](t, resp)
		if fed.Fed != len(test[i].P.Records) {
			t.Fatalf("/feed fed = %d, want %d", fed.Fed, len(test[i].P.Records))
		}
	}
	resp = postJSON(t, ts.URL+"/v1/flush", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/flush status = %s", resp.Status)
	}
	flushed := decodeBody[flushResponse](t, resp)
	if flushed.PendingRecords != 0 {
		t.Fatalf("/flush left %d records pending", flushed.PendingRecords)
	}
	if flushed.EmittedSequences == 0 {
		t.Fatal("/flush emitted nothing")
	}

	// Live query over the fed stream matches the Engine directly.
	resp, err = http.Get(ts.URL + "/v1/query/popular-regions?k=3")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/query/popular-regions: %v %v", resp.Status, err)
	}
	gotTop := decodeBody[[]regionCountResponse](t, resp)
	wantTop := engine.TopKPopularRegions(engine.Space().Regions(), c2mn.Window{Start: 0, End: 1e18}, 3)
	if len(gotTop) != len(wantTop) {
		t.Fatalf("/query/popular-regions returned %d entries, want %d", len(gotTop), len(wantTop))
	}
	for i, rc := range wantTop {
		if gotTop[i].Region != int(rc.Region) || gotTop[i].Count != rc.Count {
			t.Fatalf("/query/popular-regions[%d] = %+v, want %v", i, gotTop[i], rc)
		}
	}

	// Frequent pairs and stats respond; stats carry the venue split.
	resp, err = http.Get(ts.URL + "/v1/query/frequent-pairs?k=3")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/query/frequent-pairs: %v %v", resp.Status, err)
	}
	decodeBody[[]pairCountResponse](t, resp)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: %v %v", resp.Status, err)
	}
	st := decodeBody[statsResponse](t, resp)
	if st.Totals.EmittedSequences != flushed.EmittedSequences {
		t.Fatalf("/stats totals emitted = %d, want %d", st.Totals.EmittedSequences, flushed.EmittedSequences)
	}
	if st.Venues["default"].EmittedSequences != flushed.EmittedSequences {
		t.Fatalf("/stats venue split missing: %+v", st.Venues)
	}
	// Every counter sums into the totals — FeedBatches included, the
	// divisor of the mean coalesced batch size.
	if st.Totals != st.Venues["default"] || st.Totals.FeedBatches == 0 {
		t.Fatalf("/stats totals = %+v, want the sole venue's %+v", st.Totals, st.Venues["default"])
	}

	// Parameter validation.
	for _, bad := range []string{"?k=0", "?k=x", "?start=x", "?start=NaN", "?end=nan", "?regions=1,x"} {
		resp, err = http.Get(ts.URL + "/v1/query/popular-regions" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad params %q status = %s, want 400", bad, resp.Status)
		}
		resp.Body.Close()
	}
}

func TestServerQueryParamsWindowAndRegions(t *testing.T) {
	registry, test := testRegistry(t, "default")
	engine, _ := registry.Engine("default")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	for i := range test {
		resp := postJSON(t, ts.URL+"/v1/feed", sequenceRequest{
			ObjectID: fmt.Sprintf("obj%d", i),
			Records:  toWire(test[i].P.Records),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/flush", nil)
	resp.Body.Close()

	// Restricting the window and region set narrows the answer the same
	// way the library query does.
	regions := engine.Space().Regions()
	q := []c2mn.RegionID{regions[0], regions[1]}
	w := c2mn.Window{Start: 0, End: 700}
	want := engine.TopKPopularRegions(q, w, 2)
	url := fmt.Sprintf("%s/v1/query/popular-regions?k=2&start=0&end=700&regions=%d,%d",
		ts.URL, regions[0], regions[1])
	resp, err := http.Get(url)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %v %v", resp.Status, err)
	}
	got := decodeBody[[]regionCountResponse](t, resp)
	gotPlain := make([]c2mn.RegionCount, len(got))
	for i, rc := range got {
		gotPlain[i] = c2mn.RegionCount{Region: c2mn.RegionID(rc.Region), Count: rc.Count}
	}
	if !reflect.DeepEqual(gotPlain, want) {
		t.Fatalf("windowed query = %v, want %v", gotPlain, want)
	}
}

func TestServerMaxBodyRejectsOversizedRequests(t *testing.T) {
	registry, test := testRegistry(t, "default")
	ts := httptest.NewServer(newServer(registry, 128, ""))
	defer ts.Close()

	for _, path := range []string{"/v1/annotate", "/v1/feed"} {
		resp := postJSON(t, ts.URL+path, sequenceRequest{
			ObjectID: "big",
			Records:  toWire(test[0].P.Records),
		})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized status = %s, want 413", path, resp.Status)
		}
		if te := decodeBody[v1Error](t, resp); te.Error.Code != "body_too_large" {
			t.Fatalf("%s oversized response envelope = %+v", path, te)
		}
	}

	// A request under the cap still reaches the handler (and fails for
	// its own reasons, not with 413).
	resp := postJSON(t, ts.URL+"/v1/annotate", sequenceRequest{ObjectID: "s"})
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatalf("small request rejected as too large: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestServerMultiVenue is the two-venue end-to-end: concurrent feeding
// into both venues, per-venue queries verifying isolation, and the
// 404 + ErrUnknownVenue contract on a bad venue ID.
func TestServerMultiVenue(t *testing.T) {
	registry, test := testRegistry(t, "north", "south")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	// With two venues loaded, a bare data-plane call must name one.
	resp := postJSON(t, ts.URL+"/v1/feed", sequenceRequest{ObjectID: "o", Records: toWire(test[0].P.Records)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous venue status = %s, want 400", resp.Status)
	}
	resp.Body.Close()

	// Feed both venues concurrently: north gets even test objects via
	// the path form, south gets odd ones via the ?venue= form. The same
	// object IDs are reused across venues — streams must not collide.
	var wg sync.WaitGroup
	feedErrs := make(chan string, len(test)*2)
	for i := range test {
		wg.Add(1)
		go func(i int) {
			// No t.Fatal here: testing.T must not be failed from spawned
			// goroutines, so every failure flows through feedErrs.
			defer wg.Done()
			var url string
			if i%2 == 0 {
				url = fmt.Sprintf("%s/v1/venues/north/feed", ts.URL)
			} else {
				url = fmt.Sprintf("%s/v1/feed?venue=south", ts.URL)
			}
			buf, err := json.Marshal(sequenceRequest{
				ObjectID: fmt.Sprintf("obj%d", i/2),
				Records:  toWire(test[i].P.Records),
			})
			if err != nil {
				feedErrs <- fmt.Sprintf("feed %d: marshal: %v", i, err)
				return
			}
			resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
			if err != nil {
				feedErrs <- fmt.Sprintf("feed %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				feedErrs <- fmt.Sprintf("feed %d: %s", i, resp.Status)
			}
		}(i)
	}
	wg.Wait()
	close(feedErrs)
	for msg := range feedErrs {
		t.Fatal(msg)
	}
	resp = postJSON(t, ts.URL+"/v1/flush", nil) // no venue: flushes all
	flushed := decodeBody[flushResponse](t, resp)
	if flushed.Venues != 2 || flushed.EmittedSequences == 0 {
		t.Fatalf("/flush all = %+v", flushed)
	}

	// Per-venue queries match the per-venue engines: isolation.
	for _, id := range []string{"north", "south"} {
		engine, err := registry.Engine(id)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/venues/%s/query/popular-regions?k=4", ts.URL, id))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("venue %s query: %v %v", id, resp.Status, err)
		}
		got := decodeBody[[]regionCountResponse](t, resp)
		want := engine.TopKPopularRegions(engine.Space().Regions(), c2mn.Window{Start: 0, End: math.MaxFloat64}, 4)
		if len(got) != len(want) {
			t.Fatalf("venue %s: %d entries, want %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i].Region != int(want[i].Region) || got[i].Count != want[i].Count {
				t.Fatalf("venue %s[%d] = %+v, want %+v", id, i, got[i], want[i])
			}
		}
	}
	// The two venues saw different streams, so their stores differ.
	north, _ := registry.Sequences("north")
	south, _ := registry.Sequences("south")
	if reflect.DeepEqual(north, south) {
		t.Fatal("venue stores identical: isolation broken")
	}

	// Unknown venue IDs are 404 with the sentinel's message, on every
	// routed endpoint.
	for _, probe := range []struct {
		method, url string
	}{
		{"POST", ts.URL + "/v1/venues/nowhere/feed"},
		{"POST", ts.URL + "/v1/feed?venue=nowhere"},
		{"POST", ts.URL + "/v1/venues/nowhere/annotate"},
		{"GET", ts.URL + "/v1/venues/nowhere/query/popular-regions"},
		{"GET", ts.URL + "/v1/venues/nowhere/stats"},
		{"POST", ts.URL + "/v1/flush?venue=nowhere"},
	} {
		var resp *http.Response
		var err error
		if probe.method == "POST" {
			resp = postJSON(t, probe.url, sequenceRequest{ObjectID: "o"})
		} else {
			resp, err = http.Get(probe.url)
			if err != nil {
				t.Fatal(err)
			}
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s status = %s, want 404", probe.method, probe.url, resp.Status)
		}
		te := decodeBody[v1Error](t, resp)
		if te.Error.Code != "unknown_venue" || !strings.Contains(te.Error.Message, "unknown venue") {
			t.Fatalf("%s error = %+v, want the typed unknown-venue envelope", probe.url, te.Error)
		}
	}

	// Per-venue stats via the path form.
	resp, err := http.Get(ts.URL + "/v1/venues/north/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/venues/north/stats: %v %v", resp.Status, err)
	}
	nst := decodeBody[c2mn.EngineStats](t, resp)
	if nst.EmittedSequences == 0 {
		t.Fatal("north emitted nothing")
	}
}

// TestServerAdminPlane exercises the /v1/venues list and the
// /v1/admin load-from-disk (hot reload included) and unload.
func TestServerAdminPlane(t *testing.T) {
	registry, test := testRegistry(t, "alpha")
	ann, _ := testParts(t)
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	// Save the model + space for the admin load.
	dir := t.TempDir()
	spacePath := filepath.Join(dir, "space.json")
	modelPath := filepath.Join(dir, "model.json")
	sf, err := os.Create(spacePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ann.Space().WriteJSON(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ann.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	// List: one venue.
	resp, err := http.Get(ts.URL + "/v1/venues")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/venues: %v %v", resp.Status, err)
	}
	listing := decodeBody[struct {
		Venues []venueInfo `json:"venues"`
	}](t, resp)
	if len(listing.Venues) != 1 || listing.Venues[0].Venue != "alpha" || listing.Venues[0].Regions == 0 {
		t.Fatalf("/v1/venues = %+v", listing)
	}

	// Load a second venue from disk.
	resp = postJSON(t, ts.URL+"/v1/admin/venues", loadVenueRequest{Venue: "beta", Space: spacePath, Model: modelPath})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/admin/venues status = %s", resp.Status)
	}
	resp.Body.Close()
	if got := registry.Venues(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("venues after load = %v", got)
	}
	// The loaded venue annotates.
	resp = postJSON(t, ts.URL+"/v1/venues/beta/annotate", sequenceRequest{
		ObjectID: test[0].P.ObjectID,
		Records:  toWire(test[0].P.Records),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta annotate status = %s", resp.Status)
	}
	resp.Body.Close()

	// Hot reload an existing ID is allowed and swaps the engine.
	before, _ := registry.Engine("beta")
	resp = postJSON(t, ts.URL+"/v1/admin/venues", loadVenueRequest{Venue: "beta", Space: spacePath, Model: modelPath})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("hot reload status = %s", resp.Status)
	}
	resp.Body.Close()
	after, _ := registry.Engine("beta")
	if before == after {
		t.Fatal("hot reload did not swap the engine")
	}

	// Bad loads are client errors.
	resp = postJSON(t, ts.URL+"/v1/admin/venues", loadVenueRequest{Venue: "", Space: spacePath, Model: modelPath})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty venue load status = %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/admin/venues", loadVenueRequest{Venue: "x", Space: spacePath, Model: filepath.Join(dir, "missing.json")})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing model load status = %s", resp.Status)
	}
	resp.Body.Close()

	// Unload.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/venues/beta", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/admin/venues/beta: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	if registry.Len() != 1 {
		t.Fatalf("venues after unload = %v", registry.Venues())
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/venues/beta", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unload status = %s, want 404", resp.Status)
	}
	resp.Body.Close()
}

// TestServerSnapshotEndpoint drives the admin snapshot trigger: a
// snapshot lands on disk and restores into a fresh registry with
// identical query answers; unknown venues 404; without -snapshot-dir
// the endpoint answers 409 with a typed code.
func TestServerSnapshotEndpoint(t *testing.T) {
	registry, test := testRegistry(t, "default")
	dir := t.TempDir()
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "", withSnapshotDir(dir)))
	defer ts.Close()

	for i := range test {
		resp := postJSON(t, ts.URL+"/v1/feed", sequenceRequest{
			ObjectID: fmt.Sprintf("obj%d", i),
			Records:  toWire(test[i].P.Records),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/admin/venues/default/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot trigger status = %s", resp.Status)
	}
	snap := decodeBody[map[string]string](t, resp)
	if snap["venue"] != "default" || snap["path"] != c2mn.SnapshotPath(dir, "default") {
		t.Fatalf("snapshot response = %v", snap)
	}
	if _, err := os.Stat(snap["path"]); err != nil {
		t.Fatal(err)
	}

	// The written snapshot warm-starts a fresh registry: identical
	// stats and identical pending streams.
	ann, _ := testParts(t)
	fresh, err := c2mn.NewVenueRegistry(c2mn.WithVenueDefaults(c2mn.WithPreprocess(testEta, testPsi)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Register("default", ann); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreVenue("default", dir); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Stats()["default"], registry.Stats()["default"]; got != want {
		t.Fatalf("restored stats = %+v, want %+v", got, want)
	}

	// Unknown venue: 404 with the venue sentinel.
	resp = postJSON(t, ts.URL+"/v1/admin/venues/nowhere/snapshot", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown venue snapshot status = %s", resp.Status)
	}
	resp.Body.Close()

	// Persistence disabled: typed 409.
	off := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer off.Close()
	resp = postJSON(t, off.URL+"/v1/admin/venues/default/snapshot", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("disabled snapshot status = %s, want 409", resp.Status)
	}
	te := decodeBody[v1Error](t, resp)
	if te.Error.Code != "conflict" {
		t.Fatalf("disabled snapshot code = %q", te.Error.Code)
	}

	// The trigger is a mutating admin endpoint: token-gated.
	gated := httptest.NewServer(newServer(registry, defaultMaxBody, "s3cret", withSnapshotDir(dir)))
	defer gated.Close()
	resp = postJSON(t, gated.URL+"/v1/admin/venues/default/snapshot", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless snapshot status = %s, want 401", resp.Status)
	}
	resp.Body.Close()
}

// TestSnapshotRoundSkipsUnchangedVenues pins the background loop's
// budget-awareness: a venue is re-snapshotted only when its pipeline
// counters moved since its last snapshot.
func TestSnapshotRoundSkipsUnchangedVenues(t *testing.T) {
	registry, test := testRegistry(t, "north", "south")
	dir := t.TempDir()
	last := newSnapshotTracker()

	// First round: both venues are new to the tracker.
	written, err := snapshotRound(registry, dir, last)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(written, []string{"north", "south"}) {
		t.Fatalf("first round wrote %v", written)
	}

	// Nothing moved: nothing written.
	if written, err = snapshotRound(registry, dir, last); err != nil || len(written) != 0 {
		t.Fatalf("idle round wrote %v (err %v)", written, err)
	}

	// Traffic into north: only north is re-snapshotted.
	if _, err := registry.FeedAll("north", "obj", test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	if written, err = snapshotRound(registry, dir, last); err != nil || !reflect.DeepEqual(written, []string{"north"}) {
		t.Fatalf("post-traffic round wrote %v (err %v)", written, err)
	}

	// An unloaded venue falls out of the tracker without erroring.
	if err := registry.Unload("south"); err != nil {
		t.Fatal(err)
	}
	if written, err = snapshotRound(registry, dir, last); err != nil || len(written) != 0 {
		t.Fatalf("post-unload round wrote %v (err %v)", written, err)
	}
	if _, ok := last.get("south"); ok {
		t.Fatal("unloaded venue still tracked")
	}
}

// TestServerAdminTokenGatesMutations: with -admin-token set, venue
// load/unload require the bearer token; the read-only planes stay
// open.
func TestServerAdminTokenGatesMutations(t *testing.T) {
	registry, _ := testRegistry(t, "alpha")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "s3cret"))
	defer ts.Close()

	// Mutating admin calls without (or with a wrong) token: 401.
	resp := postJSON(t, ts.URL+"/v1/admin/venues", loadVenueRequest{Venue: "x", Space: "s", Model: "m"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless load status = %s, want 401", resp.Status)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/venues/alpha", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token unload: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	if registry.Len() != 1 {
		t.Fatal("unauthorized request mutated the registry")
	}

	// The right token works.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/venues/alpha", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized unload: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	if registry.Len() != 0 {
		t.Fatal("authorized unload did not apply")
	}

	// Read-only endpoints stay open.
	resp, err = http.Get(ts.URL + "/v1/venues")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/venues listing behind token: %v %v", resp.Status, err)
	}
	resp.Body.Close()
}

// TestServeGracefulShutdown drives the same serve() helper main uses:
// on context cancellation an in-flight request completes within the
// drain window, the listener refuses new connections, and serve
// returns cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	registry, _ := testRegistry(t, "default")

	started := make(chan struct{})
	release := make(chan struct{})
	inner := newServer(registry, defaultMaxBody, "")
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && r.URL.Query().Get("slow") == "1" {
			close(started)
			<-release // hold the request open across the shutdown signal
		}
		inner.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ctx, srv, ln, 5*time.Second, nil) }()

	// Start a request that is still in flight when shutdown begins.
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/healthz?slow=1")
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			reqDone <- fmt.Errorf("in-flight request status %s", resp.Status)
			return
		}
		reqDone <- nil
	}()
	<-started
	cancel() // the SIGINT/SIGTERM path

	select {
	case err := <-serveDone:
		t.Fatalf("serve returned before draining in-flight request: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request during shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve() = %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestServeDrainTimeout: a request that outlives the drain window is
// force-closed and serve reports the shutdown error.
func TestServeDrainTimeout(t *testing.T) {
	registry, _ := testRegistry(t, "default")
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	inner := newServer(registry, defaultMaxBody, "")
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("hang") == "1" {
			close(started)
			<-release
			return
		}
		inner.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ctx, srv, ln, 20*time.Millisecond, nil) }()
	go http.Get("http://" + ln.Addr().String() + "/healthz?hang=1")
	<-started
	cancel()
	select {
	case err := <-serveDone:
		if err == nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("serve() = %v, want deadline-exceeded shutdown error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve hung past the drain timeout")
	}
}

// TestServerV1FleetQuery is the acceptance end-to-end: three loaded
// venues with different streams, POST /v1/query with fleet scope, and
// the merged top-k must equal a brute-force recount over the
// concatenation of all venues' retained m-semantics.
func TestServerV1FleetQuery(t *testing.T) {
	ids := []string{"east", "north", "west"}
	registry, test := testRegistry(t, ids...)
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	// Venue i gets the test sequences from offset i on: overlapping but
	// distinct workloads per venue.
	for vi, id := range ids {
		for si := vi; si < len(test); si++ {
			resp := postJSON(t, fmt.Sprintf("%s/v1/venues/%s/feed", ts.URL, id), sequenceRequest{
				ObjectID: fmt.Sprintf("obj%d", si),
				Records:  toWire(test[si].P.Records),
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1 feed %s: %s", id, resp.Status)
			}
			resp.Body.Close()
		}
	}
	resp := postJSON(t, ts.URL+"/v1/flush", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/flush: %s", resp.Status)
	}
	resp.Body.Close()

	// Brute-force reference over the concatenated venue snapshots.
	var all []c2mn.MSSequence
	var regions []c2mn.RegionID
	for _, id := range ids {
		seqs, err := registry.Sequences(id)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, seqs...)
		e, _ := registry.Engine(id)
		regions = e.Space().Regions()
	}
	allTime := c2mn.Window{Start: 0, End: 1e18}

	const k = 4
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: c2mn.Query{
		Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet,
		Window: &allTime, K: k, PerVenue: true,
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query fleet: %s", resp.Status)
	}
	got := decodeBody[httpapi.QueryResponse](t, resp)
	if !reflect.DeepEqual(got.Scanned, ids) {
		t.Fatalf("scanned = %v, want %v", got.Scanned, ids)
	}
	want := c2mn.TopKPopularRegions(all, regions, allTime, k)
	if !reflect.DeepEqual(got.Regions, want) {
		t.Fatalf("fleet /v1/query = %v, brute force = %v", got.Regions, want)
	}
	if len(got.PerVenue) != len(ids) {
		t.Fatalf("per_venue has %d entries, want %d", len(got.PerVenue), len(ids))
	}
	for i, vc := range got.PerVenue {
		e, err := registry.Engine(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if vc.Venue != ids[i] || !reflect.DeepEqual(vc.Regions, e.TopKPopularRegions(regions, allTime, k)) {
			t.Fatalf("per_venue[%d] = %+v diverges from venue top-k", i, vc)
		}
	}

	// The pair kind merges exactly too.
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: c2mn.Query{
		Kind: c2mn.QueryFrequentPairs, Scope: c2mn.ScopeFleet, Window: &allTime, K: k,
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query pairs: %s", resp.Status)
	}
	gotPairs := decodeBody[httpapi.QueryResponse](t, resp)
	wantPairs := c2mn.TopKFrequentPairs(all, regions, allTime, k)
	if !reflect.DeepEqual(gotPairs.Pairs, wantPairs) {
		t.Fatalf("fleet pair /v1/query = %v, brute force = %v", gotPairs.Pairs, wantPairs)
	}

	// The GET sugar route answers the same fleet query.
	hresp, err := http.Get(fmt.Sprintf("%s/v1/query/popular-regions?scope=fleet&k=%d&start=0&end=1e18", ts.URL, k))
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("sugar fleet query: %v %v", hresp.Status, err)
	}
	sugar := decodeBody[[]regionCountResponse](t, hresp)
	if len(sugar) != len(want) {
		t.Fatalf("sugar fleet query returned %d rows, want %d", len(sugar), len(want))
	}
	for i, rc := range want {
		if sugar[i].Region != int(rc.Region) || sugar[i].Count != rc.Count {
			t.Fatalf("sugar[%d] = %+v, want %+v", i, sugar[i], rc)
		}
	}

	// An explicit venue list via ?venues= merges that subset.
	hresp, err = http.Get(fmt.Sprintf("%s/v1/query/popular-regions?venues=west,east&k=%d", ts.URL, k))
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("sugar venues query: %v %v", hresp.Status, err)
	}
	subset := decodeBody[[]regionCountResponse](t, hresp)
	var wantSub []c2mn.MSSequence
	for _, id := range []string{"west", "east"} {
		seqs, _ := registry.Sequences(id)
		wantSub = append(wantSub, seqs...)
	}
	wantSubTop := c2mn.TopKPopularRegions(wantSub, regions, allTime, k)
	for i, rc := range wantSubTop {
		if subset[i].Region != int(rc.Region) || subset[i].Count != rc.Count {
			t.Fatalf("subset sugar[%d] = %+v, want %+v", i, subset[i], rc)
		}
	}
}

// TestServerV1QueryPagination drives the cursor protocol: pages of the
// ranked list concatenate to the unpaginated answer, and the final
// page carries no cursor.
func TestServerV1QueryPagination(t *testing.T) {
	registry, test := testRegistry(t, "default")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	for i := range test {
		resp := postJSON(t, ts.URL+"/v1/feed", sequenceRequest{
			ObjectID: fmt.Sprintf("obj%d", i),
			Records:  toWire(test[i].P.Records),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/flush", nil)
	resp.Body.Close()

	full := c2mn.Query{Kind: c2mn.QueryPopularRegions, K: 50}
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: full})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpaginated query: %s", resp.Status)
	}
	whole := decodeBody[httpapi.QueryResponse](t, resp)
	if len(whole.Regions) < 3 {
		t.Fatalf("workload too small to paginate: %d regions", len(whole.Regions))
	}
	if whole.NextCursor != "" {
		t.Fatal("unpaginated query returned a cursor")
	}

	const pageSize = 2
	var pages []c2mn.RegionCount
	req := httpapi.QueryRequest{Query: full, PageSize: pageSize}
	for hops := 0; ; hops++ {
		if hops > len(whole.Regions) {
			t.Fatal("cursor chain does not terminate")
		}
		resp := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: %s", hops, resp.Status)
		}
		page := decodeBody[httpapi.QueryResponse](t, resp)
		if len(page.Regions) > pageSize {
			t.Fatalf("page %d has %d rows, page_size %d", hops, len(page.Regions), pageSize)
		}
		if page.Offset != hops*pageSize {
			t.Fatalf("page %d offset = %d, want %d", hops, page.Offset, hops*pageSize)
		}
		pages = append(pages, page.Regions...)
		if page.NextCursor == "" {
			break
		}
		req = httpapi.QueryRequest{Cursor: page.NextCursor}
	}
	if !reflect.DeepEqual(pages, whole.Regions) {
		t.Fatalf("concatenated pages = %v, unpaginated = %v", pages, whole.Regions)
	}

	// A cursor combined with query fields is rejected — even when only
	// a non-kind field like k is set.
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: full, Cursor: "abc"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cursor+query status = %s, want 400", resp.Status)
	}
	resp.Body.Close()
	valid, err := httpapi.EncodeCursor(httpapi.QueryCursor{Query: full, PageSize: pageSize, Offset: 0})
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: c2mn.Query{K: 50}, Cursor: valid})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cursor+k status = %s, want 400", resp.Status)
	}
	resp.Body.Close()
	// So is a corrupt cursor.
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Cursor: "!!!not-base64!!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt cursor status = %s, want 400", resp.Status)
	}
	resp.Body.Close()

	// A forged cursor with an extreme offset pages past the end — an
	// empty final page, never a sliced-out-of-range panic.
	forged, err := httpapi.EncodeCursor(httpapi.QueryCursor{Query: full, PageSize: pageSize, Offset: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Cursor: forged})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forged-offset cursor status = %s, want 200", resp.Status)
	}
	tail := decodeBody[httpapi.QueryResponse](t, resp)
	if len(tail.Regions) != 0 || tail.NextCursor != "" {
		t.Fatalf("forged-offset cursor page = %+v, want empty terminal page", tail)
	}
}

// v1Error is the typed /v1 error envelope as tests decode it.
type v1Error struct {
	Error httpapi.WireError `json:"error"`
}

// TestServerV1TypedErrors: errors carry machine codes.
func TestServerV1TypedErrors(t *testing.T) {
	registry, _ := testRegistry(t, "alpha")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	// Typed unknown-venue error on /v1.
	resp, err := http.Get(ts.URL + "/v1/venues/nowhere/stats")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1 unknown venue: %v %v", resp.Status, err)
	}
	te := decodeBody[v1Error](t, resp)
	if te.Error.Code != "unknown_venue" || !strings.Contains(te.Error.Message, "unknown venue") {
		t.Fatalf("/v1 error envelope = %+v", te)
	}

	// Typed invalid-query error from the unified endpoint.
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: c2mn.Query{Kind: "bogus"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/query bad kind status = %s, want 400", resp.Status)
	}
	te = decodeBody[v1Error](t, resp)
	if te.Error.Code != "invalid_query" {
		t.Fatalf("bad kind error code = %q, want invalid_query", te.Error.Code)
	}

	// Unknown venue through the unified endpoint is typed 404.
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: c2mn.Query{
		Kind: c2mn.QueryPopularRegions, Venues: []string{"nowhere"},
	}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/query unknown venue status = %s, want 404", resp.Status)
	}
	te = decodeBody[v1Error](t, resp)
	if te.Error.Code != "unknown_venue" {
		t.Fatalf("unknown venue code = %q", te.Error.Code)
	}
}

// TestFeedBacklogResponseShape pins the 429 load-shedding contract of
// /feed: backlog errors map to 429 with a Retry-After hint derived
// from -feed-timeout, the typed error next to the counts.
func TestFeedBacklogResponseShape(t *testing.T) {
	s := &server{retryAfterSecs: "1"}
	withFeedRetryAfter(2500 * time.Millisecond)(s)
	if s.retryAfterSecs != "3" {
		t.Fatalf("retry-after from 2.5s timeout = %q, want 3", s.retryAfterSecs)
	}
	withFeedRetryAfter(0)(s) // unset bound keeps the minimum hint
	if s.retryAfterSecs != "3" {
		t.Fatalf("zero timeout overwrote the hint: %q", s.retryAfterSecs)
	}

	backlog := fmt.Errorf("stream x: %w", c2mn.ErrBacklog)

	// A backlog error maps to 429 + Retry-After; the envelope carries
	// the typed error next to the counts.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/feed", nil)
	s.writeIngestError(rec, req, backlog, feedResponse{Venue: "v", Fed: 3})
	var v1 struct {
		Error httpapi.WireError `json:"error"`
		feedResponse
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v1); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusTooManyRequests || v1.Error.Code != "backlog" || v1.Fed != 3 {
		t.Fatalf("v1 backlog response = %d %+v", rec.Code, v1)
	}
	if rec.Header().Get("Retry-After") != s.retryAfterSecs {
		t.Fatalf("Retry-After = %q, want %q", rec.Header().Get("Retry-After"), s.retryAfterSecs)
	}

	// A non-backlog ingestion failure stays a 422.
	rec = httptest.NewRecorder()
	s.writeIngestError(rec, req, errors.New("bad fragment"), feedResponse{Venue: "v"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("plain ingest error status = %d, want 422", rec.Code)
	}
}
