package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/query"
)

// postQuery sends one POST /v1/query through the router.
func postQuery(t *testing.T, base string, q c2mn.Query) (int, httpapi.QueryResponse, string) {
	t.Helper()
	buf, _ := json.Marshal(httpapi.QueryRequest{Query: q})
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got httpapi.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, got, string(raw)
}

// scatterCache reads the scatter counters off /v1/admin/backends.
func scatterCache(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/admin/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var table struct {
		Scatter map[string]int64 `json:"scatter_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	return table.Scatter
}

// fiveVenueFleet spreads v0..v4 over two fake backends (a: v0 v1 v2,
// b: v3 v4) with random canned counts.
func fiveVenueFleet(t *testing.T, seed int64) (a, b *fakeBackend, venues map[string]*fakeVenue) {
	rng := rand.New(rand.NewSource(seed))
	a, b = newFakeBackend(t), newFakeBackend(t)
	venues = map[string]*fakeVenue{}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("v%d", i)
		venues[id] = randomCounts(rng)
		if i < 3 {
			a.venues[id] = venues[id]
		} else {
			b.venues[id] = venues[id]
		}
	}
	return a, b, venues
}

// mergedRegions is the brute-force answer over the named venues.
func mergedRegions(venues map[string]*fakeVenue, k int, ids ...string) []c2mn.RegionCount {
	lists := make([][]c2mn.RegionCount, 0, len(ids))
	for _, id := range ids {
		lists = append(lists, venues[id].Regions)
	}
	return query.TruncateRegionCounts(query.MergeRegionCounts(lists...), k)
}

// TestScatterOneSubRequestPerBackend: a fleet query over V venues on B
// backends costs B sub-requests and B cache entries, revalidates with B
// conditional requests that decode nothing, and a store that moves
// re-fetches only its own backend's group.
func TestScatterOneSubRequestPerBackend(t *testing.T) {
	a, b, venues := fiveVenueFleet(t, 11)
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)
	fleet := c2mn.Query{Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet, K: 4}
	want := mergedRegions(venues, 4, "v0", "v1", "v2", "v3", "v4")

	ask := func(step string) map[string]int64 {
		t.Helper()
		status, got, raw := postQuery(t, ts.URL, fleet)
		if status != http.StatusOK || fmt.Sprint(got.Regions) != fmt.Sprint(want) {
			t.Fatalf("%s: status %d regions %v, want %v (%s)", step, status, got.Regions, want, raw)
		}
		return scatterCache(t, ts.URL)
	}
	cold := ask("cold")
	if la, lb := a.queryLog(), b.queryLog(); len(la) != 1 || len(lb) != 1 ||
		fmt.Sprint(la[0].Venues) != "[v0 v1 v2]" || fmt.Sprint(lb[0].Venues) != "[v3 v4]" {
		t.Fatalf("sub-queries: a got %+v, b got %+v; want one each over the backend's whole share", la, lb)
	}
	if cold["sub_requests"] != 2 || cold["misses"] != 2 || cold["entries"] != 2 || cold["revalidations"] != 0 || cold["decoded_bytes"] <= 0 {
		t.Fatalf("cold scatter counters = %v, want 2 sub-requests, 2 misses, 2 entries", cold)
	}
	warm := ask("warm")
	if warm["sub_requests"] != 4 || warm["revalidations"] != 2 || warm["hits"] != 2 || warm["misses"] != 2 ||
		warm["entries"] != 2 || warm["decoded_bytes"] != cold["decoded_bytes"] {
		t.Fatalf("warm scatter counters = %v after cold %v, want 2 more sub-requests, both 304, nothing decoded", warm, cold)
	}
	// v1's store moves: backend a's group re-fetches, b's still validates.
	a.mu.Lock()
	venues["v1"].Gen++
	venues["v1"].Regions = append([]c2mn.RegionCount{{Region: 99, Count: 1000}}, venues["v1"].Regions...)
	a.mu.Unlock()
	want = mergedRegions(venues, 4, "v0", "v1", "v2", "v3", "v4")
	moved := ask("moved")
	if moved["sub_requests"] != 6 || moved["hits"] != 3 || moved["misses"] != 3 || moved["entries"] != 2 ||
		moved["decoded_bytes"] <= warm["decoded_bytes"] {
		t.Fatalf("scatter counters after one store moved = %v, want one miss and one hit more than %v", moved, warm)
	}
}

// TestScatterVanishedVenueIsSkippedAlone: a venue unloaded between
// discovery and scan makes its backend refuse the group; fleet scope
// re-asks that group venue by venue and drops only the vanished one,
// while naming it explicitly is a 404.
func TestScatterVanishedVenueIsSkippedAlone(t *testing.T) {
	a, b, venues := fiveVenueFleet(t, 12)
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)
	a.mu.Lock()
	delete(a.venues, "v1") // the router's discovery still lists it
	a.mu.Unlock()

	status, got, raw := postQuery(t, ts.URL, c2mn.Query{Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet, K: 6, PerVenue: true})
	if status != http.StatusOK {
		t.Fatalf("fleet query with a vanished venue: status %d (%s)", status, raw)
	}
	if fmt.Sprint(got.Scanned) != "[v0 v2 v3 v4]" {
		t.Fatalf("scanned = %v, want every venue but the vanished v1", got.Scanned)
	}
	if want := mergedRegions(venues, 6, "v0", "v2", "v3", "v4"); fmt.Sprint(got.Regions) != fmt.Sprint(want) {
		t.Fatalf("regions = %v, want the other venues of the group still counted: %v", got.Regions, want)
	}
	if len(got.PerVenue) != 4 || got.PerVenue[1].Venue != "v2" ||
		fmt.Sprint(got.PerVenue[1].Regions) != fmt.Sprint(mergedRegions(venues, 6, "v2")) {
		t.Fatalf("per_venue = %+v, want rows for v0 v2 v3 v4 with each venue's own top k", got.PerVenue)
	}
	var asked []string
	for _, q := range a.queryLog() {
		asked = append(asked, fmt.Sprint(q.Venues))
	}
	if fmt.Sprint(asked) != "[[v0 v1 v2] [v0] [v1] [v2]]" {
		t.Fatalf("backend a was asked %v, want the group, then its venues one at a time", asked)
	}
	if n := len(b.queryLog()); n != 1 {
		t.Fatalf("backend b, whose group is intact, got %d sub-requests, want 1", n)
	}

	status, _, raw = postQuery(t, ts.URL, c2mn.Query{Kind: c2mn.QueryPopularRegions, Venues: []string{"v0", "v1", "v3"}})
	if status != http.StatusNotFound || !strings.Contains(raw, `"unknown_venue"`) {
		t.Fatalf("explicitly named vanished venue: status %d body %s, want 404 unknown_venue", status, raw)
	}
}

// TestScatterRegroupedKeyNeverReusesPreviousOwnersETag: after venues
// change owner, the new owner is asked the very sub-query the old owner
// answered (same group, same body) and mints the same validator for
// different counts; the cached partial must not be offered for it.
func TestScatterRegroupedKeyNeverReusesPreviousOwnersETag(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.venues["v0"] = &fakeVenue{Regions: []c2mn.RegionCount{{Region: 1, Count: 5}}}
	a.venues["v1"] = &fakeVenue{Regions: []c2mn.RegionCount{{Region: 2, Count: 3}}}
	b.venues["v2"] = &fakeVenue{Regions: []c2mn.RegionCount{{Region: 3, Count: 1}}}
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)
	fleet := c2mn.Query{Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet, K: 3}
	for i := 0; i < 2; i++ {
		if status, got, _ := postQuery(t, ts.URL, fleet); status != http.StatusOK || fmt.Sprint(got.Regions) != "[{1 5} {2 3} {3 1}]" {
			t.Fatalf("before the move: status %d regions %v", status, got.Regions)
		}
	}
	// Swap owners; the copies on the new owners hold other counts at the
	// same generation, so a validator carried across would be a false 304.
	a.mu.Lock()
	b.mu.Lock()
	a.venues = map[string]*fakeVenue{"v2": {Regions: []c2mn.RegionCount{{Region: 3, Count: 10}}}}
	b.venues = map[string]*fakeVenue{
		"v0": {Regions: []c2mn.RegionCount{{Region: 1, Count: 50}}},
		"v1": {Regions: []c2mn.RegionCount{{Region: 2, Count: 30}}},
	}
	a.queries, b.queries = nil, nil
	b.mu.Unlock()
	a.mu.Unlock()
	rt.CheckNow(t.Context())

	if status, got, _ := postQuery(t, ts.URL, fleet); status != http.StatusOK || fmt.Sprint(got.Regions) != "[{1 50} {2 30} {3 10}]" {
		t.Fatalf("after the move: status %d regions %v, want the new owners' counts", status, got.Regions)
	}
	la, lb := a.queryLog(), b.queryLog()
	if len(la) != 1 || len(lb) != 1 || fmt.Sprint(la[0].Venues) != "[v2]" || fmt.Sprint(lb[0].Venues) != "[v0 v1]" {
		t.Fatalf("after the move: a got %+v, b got %+v", la, lb)
	}
	if la[0].IfNoneMatch != "" || lb[0].IfNoneMatch != "" {
		t.Fatalf("regrouped sub-queries carried validators %q / %q minted by the previous owners", la[0].IfNoneMatch, lb[0].IfNoneMatch)
	}
}

// TestScatterScannedAndPerVenueOrder: grouping by backend must not show
// in the answer — venues scope reports scanned and per_venue in request
// order, fleet scope sorted, each row the venue's own top k.
func TestScatterScannedAndPerVenueOrder(t *testing.T) {
	a, b, venues := fiveVenueFleet(t, 13)
	rt := testRouter(t, Config{}, a, b)
	ts := routerServer(t, rt)
	for _, tc := range []struct {
		q     c2mn.Query
		order []string
	}{
		{c2mn.Query{Kind: c2mn.QueryPopularRegions, Venues: []string{"v3", "v0", "v4", "v1"}, K: 2, PerVenue: true}, []string{"v3", "v0", "v4", "v1"}},
		{c2mn.Query{Kind: c2mn.QueryFrequentPairs, Venues: []string{"v4", "v2", "v1"}, K: 3, PerVenue: true}, []string{"v4", "v2", "v1"}},
		{c2mn.Query{Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet, K: 2, PerVenue: true}, []string{"v0", "v1", "v2", "v3", "v4"}},
	} {
		status, got, raw := postQuery(t, ts.URL, tc.q)
		if status != http.StatusOK {
			t.Fatalf("%+v: status %d (%s)", tc.q, status, raw)
		}
		if !reflect.DeepEqual(got.Scanned, tc.order) {
			t.Fatalf("%+v: scanned %v, want %v", tc.q, got.Scanned, tc.order)
		}
		want := make([]c2mn.VenueCounts, len(tc.order))
		for i, id := range tc.order {
			want[i] = c2mn.VenueCounts{Venue: id}
			if tc.q.Kind == c2mn.QueryFrequentPairs {
				if p := query.TruncatePairCounts(venues[id].Pairs, tc.q.K); len(p) > 0 {
					want[i].Pairs = p
				}
			} else if r := query.TruncateRegionCounts(venues[id].Regions, tc.q.K); len(r) > 0 {
				want[i].Regions = r
			}
		}
		if !reflect.DeepEqual(got.PerVenue, want) {
			t.Fatalf("%+v: per_venue = %+v, want %+v", tc.q, got.PerVenue, want)
		}
	}
}

// TestScatterOverLimitBackendAnswer: a backend answer past MaxBody is a
// 502 that names the limit and the backend, not a cut buffer reported
// as malformed JSON.
func TestScatterOverLimitBackendAnswer(t *testing.T) {
	a := newFakeBackend(t)
	big := &fakeVenue{}
	for r := 0; r < 400; r++ {
		big.Regions = append(big.Regions, c2mn.RegionCount{Region: c2mn.RegionID(r), Count: 1000 - r})
	}
	a.venues["v0"] = big
	rt := testRouter(t, Config{MaxBody: 2048}, a)
	ts := routerServer(t, rt)
	status, _, raw := postQuery(t, ts.URL, c2mn.Query{Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet})
	if status != http.StatusBadGateway {
		t.Fatalf("over-limit backend answer: status %d (%s), want 502", status, raw)
	}
	if !strings.Contains(raw, "2048-byte") || !strings.Contains(raw, a.srv.URL) || strings.Contains(raw, "unexpected end of JSON") {
		t.Fatalf("over-limit error %s does not name the limit and the backend", raw)
	}
}

// BenchmarkScatterFleet is one fleet frequent-pairs query through an
// in-process router over two fake backends hosting five venues (2 + 3)
// of ~2k-pair partials each — fleet-router's shape. Before every query
// one venue's store moves, as after a feed: its backend's group is
// re-fetched and decoded, the other group revalidates with a 304.
// sub-requests/op is the number of owning backends; decoded-B/op is
// one group's merged partial.
func BenchmarkScatterFleet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	backends := []*fakeBackend{newFakeBackend(b), newFakeBackend(b)}
	var venues []*fakeVenue
	for i := 0; i < 5; i++ {
		v := &fakeVenue{}
		for a := 1; len(v.Pairs) < 2000; a++ {
			for c := a + 1; c <= a+60 && len(v.Pairs) < 2000; c++ {
				if rng.Intn(3) > 0 {
					v.Pairs = append(v.Pairs, c2mn.PairCount{A: c2mn.RegionID(a), B: c2mn.RegionID(c), Count: 1 + rng.Intn(300)})
				}
			}
		}
		query.SortPairCounts(v.Pairs)
		backends[i*2/5].venues[fmt.Sprintf("v%d", i)] = v
		venues = append(venues, v)
	}
	rt := testRouter(b, Config{}, backends...)
	body, _ := json.Marshal(httpapi.QueryRequest{Query: c2mn.Query{Kind: c2mn.QueryFrequentPairs, Scope: c2mn.ScopeFleet, K: 10}})
	ask := func() {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	ask() // fill the partial cache
	sub0, dec0 := rt.subRequests.Load(), rt.decodedBytes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		venues[i%len(venues)].Gen++ // no request is in flight between asks
		ask()
	}
	b.ReportMetric(float64(rt.subRequests.Load()-sub0)/float64(b.N), "sub-requests/op")
	b.ReportMetric(float64(rt.decodedBytes.Load()-dec0)/float64(b.N), "decoded-B/op")
}
