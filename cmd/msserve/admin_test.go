package main

// Tests for the /v1/admin surface: the single token chokepoint, the
// route inventory and the typed 404/405 the removed mounts answer, and
// the retraining endpoints end to end.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/sim"
)

// doReq issues a method/url/body request with an optional bearer token.
func doReq(t *testing.T, method, url, token string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(buf))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func wireErrorOf(t *testing.T, resp *http.Response) httpapi.WireError {
	t.Helper()
	var body struct {
		Error httpapi.WireError `json:"error"`
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return body.Error
}

// adminMounts lists the /v1/admin routes of the route table.
func adminMounts(t *testing.T, s *server) []struct{ method, path string } {
	t.Helper()
	var out []struct{ method, path string }
	for _, rt := range s.routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		if strings.HasPrefix(path, "/v1/admin/") {
			// An unknown venue: with the token every handler runs, and
			// none of them must find anything to unload or overwrite.
			out = append(out, struct{ method, path string }{method, strings.ReplaceAll(path, "{venue}", "ghost")})
		}
	}
	if len(out) != 10 {
		t.Fatalf("route table holds %d /v1/admin mounts, want 10: %v", len(out), out)
	}
	return out
}

// TestAdminSurfaceToken pins the single chokepoint: every /v1/admin
// mount refuses without the bearer token and clears auth with it, and
// — authorized or not — answers Cache-Control: no-store, so a cache in
// front of the token gate can never replay an authorized response.
func TestAdminSurfaceToken(t *testing.T) {
	registry, _ := testRegistry(t, "default")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "sesame", withSnapshotDir(t.TempDir())))
	defer ts.Close()

	for _, p := range adminMounts(t, &server{}) {
		for _, token := range []string{"", "wrong", "sesame"} {
			resp := doReq(t, p.method, ts.URL+p.path, token, nil)
			resp.Body.Close()
			if got := resp.Header.Get("Cache-Control"); got != "no-store" {
				t.Errorf("%s %s token %q: Cache-Control %q, want no-store", p.method, p.path, token, got)
			}
			if token == "sesame" {
				if resp.StatusCode == http.StatusUnauthorized {
					t.Errorf("%s %s with the token: still 401", p.method, p.path)
				}
				continue
			}
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s token %q: %d, want 401", p.method, p.path, token, resp.StatusCode)
			}
			if got := resp.Header.Get("WWW-Authenticate"); got != "Bearer" {
				t.Errorf("%s %s WWW-Authenticate %q", p.method, p.path, got)
			}
		}
	}

	// With the token the request reaches the handler (drain: 200 on a
	// loaded venue).
	resp := doReq(t, "POST", ts.URL+"/v1/admin/venues/default/drain", "sesame", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized drain via /v1/admin: %d, want 200", resp.StatusCode)
	}
	resp = doReq(t, "DELETE", ts.URL+"/v1/admin/venues/default/drain", "sesame", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized undrain via /v1/admin: %d, want 200", resp.StatusCode)
	}
}

// TestRouteInventory pins the one route generation: every mounted
// pattern lives under /v1/ except the two bare probes, and every mount
// an earlier release served outside that set answers the typed 404/405
// with nothing steering anywhere.
func TestRouteInventory(t *testing.T) {
	registry, _ := testRegistry(t, "default")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	for _, rt := range (&server{}).routes() {
		method, path, ok := strings.Cut(rt.pattern, " ")
		if !ok {
			t.Errorf("pattern %q names no method", rt.pattern)
		}
		if !strings.HasPrefix(path, "/v1/") && rt.pattern != "GET /healthz" && rt.pattern != "GET /readyz" {
			t.Errorf("%s %s is mounted outside /v1/", method, path)
		}
	}

	for _, removed := range []struct {
		method, path string
		status       int
	}{
		// The unversioned data plane and admin.
		{"POST", "/annotate", 404}, {"POST", "/feed", 404}, {"POST", "/flush", 404},
		{"GET", "/query/popular-regions", 404}, {"GET", "/query/frequent-pairs", 404},
		{"POST", "/venues/default/annotate", 404}, {"POST", "/venues/default/feed", 404},
		{"POST", "/venues/default/flush", 404},
		{"GET", "/venues/default/query/popular-regions", 404}, {"GET", "/venues/default/query/frequent-pairs", 404},
		{"GET", "/venues/default/stats", 404}, {"GET", "/venues", 404}, {"GET", "/stats", 404},
		{"POST", "/venues", 404}, {"DELETE", "/venues/default", 404},
		// The pre-consolidation /v1 admin mounts. POST /v1/venues meets
		// the listing's GET, hence 405.
		{"POST", "/v1/venues", 405}, {"DELETE", "/v1/venues/default", 404},
		{"POST", "/v1/venues/default/snapshot", 404},
		{"GET", "/v1/venues/default/snapshot/file", 404}, {"PUT", "/v1/venues/default/snapshot/file", 404},
		{"POST", "/v1/venues/default/drain", 404}, {"DELETE", "/v1/venues/default/drain", 404},
	} {
		resp := doReq(t, removed.method, ts.URL+removed.path, "", nil)
		if resp.StatusCode != removed.status {
			t.Errorf("%s %s: %d, want %d", removed.method, removed.path, resp.StatusCode, removed.status)
		}
		for _, h := range []string{"Deprecation", "Link"} {
			if got := resp.Header.Get(h); got != "" {
				t.Errorf("%s %s carries %s: %q", removed.method, removed.path, h, got)
			}
		}
		want := map[int]string{404: "not_found", 405: "method_not_allowed"}[removed.status]
		if we := wireErrorOf(t, resp); we.Code != want {
			t.Errorf("%s %s: code %q, want %q", removed.method, removed.path, we.Code, want)
		}
	}
	if registry.Len() != 1 {
		t.Fatal("a removed mount still reached a handler")
	}
}

// TestV1ErrorEnvelope405And404: the mux's own plain-text errors carry
// the typed envelope on every path, and the 405's Allow header
// survives.
func TestV1ErrorEnvelope405And404(t *testing.T) {
	registry, _ := testRegistry(t, "default")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	// Wrong method on a known /v1 route.
	resp := doReq(t, "DELETE", ts.URL+"/v1/query", "", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/query: %d, want 405", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("405 Content-Type %q, want JSON envelope", ct)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("405 Allow %q lost the mux's method list", allow)
	}
	if we := wireErrorOf(t, resp); we.Code != "method_not_allowed" {
		t.Fatalf("405 code %q, want method_not_allowed", we.Code)
	}

	// Unknown /v1 path.
	resp = doReq(t, "GET", ts.URL+"/v1/nope", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nope: %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("404 Content-Type %q, want JSON envelope", ct)
	}
	if we := wireErrorOf(t, resp); we.Code != "not_found" {
		t.Fatalf("404 code %q, want not_found", we.Code)
	}

	// Paths outside /v1 get the same envelope.
	resp = doReq(t, "GET", ts.URL+"/nope", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: %d, want 404", resp.StatusCode)
	}
	if we := wireErrorOf(t, resp); we.Code != "not_found" {
		t.Fatalf("GET /nope code %q, want not_found", we.Code)
	}
}

// TestVenueModelEndpoint: model identity over the API, with the
// /v1/venues rows carrying the same fields.
func TestVenueModelEndpoint(t *testing.T) {
	registry, _ := testRegistry(t, "default")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/venues/default/model")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET model: %d", resp.StatusCode)
	}
	info := decodeBody[c2mn.ModelInfo](t, resp)
	if info.Venue != "default" || len(info.ModelHash) != 64 || len(info.SpaceHash) != 64 {
		t.Fatalf("model info %+v", info)
	}
	if info.ModelVersion <= 0 || info.SwapCount != 0 {
		t.Fatalf("model info %+v", info)
	}

	resp, err = http.Get(ts.URL + "/v1/venues")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Venues []venueInfo `json:"venues"`
	}](t, resp)
	if len(list.Venues) != 1 || list.Venues[0].ModelHash != info.ModelHash ||
		list.Venues[0].ModelVersion != info.ModelVersion {
		t.Fatalf("venue listing rows missing model identity: %+v", list.Venues)
	}

	resp, err = http.Get(ts.URL + "/v1/venues/missing/model")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown venue model: %d", resp.StatusCode)
	}
	if we := wireErrorOf(t, resp); we.Code != "unknown_venue" {
		t.Fatalf("unknown venue code %q", we.Code)
	}
}

// toWireLabeled converts a labeled sequence to the feedback wire form.
func toWireLabeled(ls c2mn.LabeledSequence) labeledSequenceWire {
	wi := labeledSequenceWire{
		ObjectID: ls.P.ObjectID,
		Records:  toWire(ls.P.Records),
		Regions:  make([]int, len(ls.Labels.Regions)),
		Events:   make([]string, len(ls.Labels.Events)),
	}
	for i, r := range ls.Labels.Regions {
		wi.Regions[i] = int(r)
	}
	for i, e := range ls.Labels.Events {
		wi.Events[i] = e.String()
	}
	return wi
}

// TestRetrainEndpointsDisabled: without -retrain the endpoints answer
// with the typed retrain_disabled conflict.
func TestRetrainEndpointsDisabled(t *testing.T) {
	registry, test := testRegistry(t, "default")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	resp := doReq(t, "POST", ts.URL+"/v1/admin/venues/default/retrain", "", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("retrain disabled: %d, want 409", resp.StatusCode)
	}
	if we := wireErrorOf(t, resp); we.Code != "retrain_disabled" {
		t.Fatalf("code %q, want retrain_disabled", we.Code)
	}
	resp = doReq(t, "POST", ts.URL+"/v1/admin/venues/default/feedback", "",
		retrainRequest{Data: []labeledSequenceWire{toWireLabeled(test[0])}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("feedback disabled: %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRetrainEndpointsCycle drives the closed loop over HTTP: a weak
// incumbent, ground truth through the feedback endpoint, a manual
// retrain trigger — the better candidate swaps in, the audit and the
// model identity reflect it, and a drained venue's cycle is vetoed.
func TestRetrainEndpointsCycle(t *testing.T) {
	ann, _ := testParts(t)
	space := ann.Space()
	// An incumbent deliberately trained into the ground: one exact
	// step over two sequences.
	data := retrainTestData(t, space)
	weak, err := c2mn.Train(space, data[:2], c2mn.TrainOptions{V: 6, Exact: true, MaxIter: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	registry, err := c2mn.NewVenueRegistry(
		c2mn.WithVenueDefaults(c2mn.WithPreprocess(testEta, testPsi)),
		c2mn.WithRetrainPolicy(c2mn.RetrainPolicy{
			Config: c2mn.RetrainConfig{MinSamples: 8, HoldoutFrac: 0.5, Seed: 3},
			Train:  c2mn.TrainOptions{V: 6, Exact: true, TuneClustering: true, Seed: 2},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := registry.Register("default", weak); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "sesame"))
	defer ts.Close()

	// A draining venue refuses the cycle before anything trains.
	resp := doReq(t, "POST", ts.URL+"/v1/admin/venues/default/drain", "sesame", nil)
	resp.Body.Close()
	resp = doReq(t, "POST", ts.URL+"/v1/admin/venues/default/retrain", "sesame", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("retrain while draining: %d, want 409", resp.StatusCode)
	}
	if we := wireErrorOf(t, resp); we.Code != "venue_draining" {
		t.Fatalf("draining veto code %q", we.Code)
	}
	resp = doReq(t, "DELETE", ts.URL+"/v1/admin/venues/default/drain", "sesame", nil)
	resp.Body.Close()

	// Not enough samples yet: the skip is typed and audited.
	resp = doReq(t, "POST", ts.URL+"/v1/admin/venues/default/retrain", "sesame", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("retrain without samples: %d, want 422", resp.StatusCode)
	}
	if we := wireErrorOf(t, resp); we.Code != "retrain_samples" {
		t.Fatalf("skip code %q, want retrain_samples", we.Code)
	}

	// Ground truth in, cycle, swap.
	wireData := make([]labeledSequenceWire, len(data))
	for i, ls := range data {
		wireData[i] = toWireLabeled(ls)
	}
	resp = doReq(t, "POST", ts.URL+"/v1/admin/venues/default/feedback", "sesame",
		retrainRequest{Data: wireData})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: %d", resp.StatusCode)
	}
	fb := decodeBody[map[string]any](t, resp)
	if n, _ := fb["sequences"].(float64); int(n) != len(data) {
		t.Fatalf("feedback recorded %v of %d", fb["sequences"], len(data))
	}

	oldHash, err := registry.VenueModel("default")
	if err != nil {
		t.Fatal(err)
	}
	resp = doReq(t, "POST", ts.URL+"/v1/admin/venues/default/retrain", "sesame", nil)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("retrain: %d (%s)", resp.StatusCode, body)
	}
	out := decodeBody[struct {
		Decision c2mn.RetrainDecision `json:"decision"`
	}](t, resp)
	if out.Decision.Outcome != c2mn.RetrainSwapped {
		t.Fatalf("outcome %q (inc CA %.3f vs cand CA %.3f), want swapped",
			out.Decision.Outcome, out.Decision.IncumbentCA, out.Decision.CandidateCA)
	}

	// Identity and audit reflect the swap over the API.
	resp, err = http.Get(ts.URL + "/v1/venues/default/model")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody[c2mn.ModelInfo](t, resp)
	if info.SwapCount != 1 || info.ModelHash == oldHash.ModelHash || info.ModelHash != out.Decision.ModelHash {
		t.Fatalf("model identity after swap: %+v (decision hash %s)", info, out.Decision.ModelHash)
	}
	resp = doReq(t, "GET", ts.URL+"/v1/admin/venues/default/retrain", "sesame", nil)
	st := decodeBody[struct {
		Retrain c2mn.RetrainState `json:"retrain"`
	}](t, resp)
	if st.Retrain.Swaps != 1 || st.Retrain.Counts[c2mn.RetrainSwapped] != 1 {
		t.Fatalf("retrain status after swap: %+v", st.Retrain)
	}
}

// retrainTestData regenerates the full labeled workload on the shared
// test space (testParts keeps only the tail split; retraining wants
// the whole set, and generation is deterministic per seed).
func retrainTestData(t *testing.T, space *c2mn.Space) []c2mn.LabeledSequence {
	t.Helper()
	spec := sim.DefaultMobility(10, 1500)
	spec.StayMax = 300
	ds, err := c2mn.GenerateMobility(space, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Sequences
}
