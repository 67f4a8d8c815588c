package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	"c2mn"
)

// noRedirect is a client that surfaces 307s instead of chasing them,
// like the router does.
var noRedirect = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

func TestServerReadyzSeparateFromHealthz(t *testing.T) {
	registry, _ := testRegistry(t, "north")
	var ready atomic.Bool
	ready.Store(true)
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "", withReadiness(&ready)))
	defer ts.Close()

	for _, path := range []string{"/readyz", "/v1/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s while ready = %s", path, resp.Status)
		}
	}

	// Drain starts: readiness flips, liveness must not.
	ready.Store(false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %s, want 503", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining = %s; liveness must never follow readiness", resp.Status)
	}
}

func TestServerVenueDrainLifecycle(t *testing.T) {
	registry, test := testRegistry(t, "north")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	// feed sends one record through a client that surfaces 307s.
	feedBody, err := json.Marshal(sequenceRequest{
		ObjectID: "obj", Records: toWire(test[0].P.Records[:1]),
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func() *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/venues/north/feed",
			bytes.NewReader(feedBody))
		resp, err := noRedirect.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Serving normally.
	resp := feed()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain feed = %s", resp.Status)
	}
	resp.Body.Close()

	// Drain without a redirect: feeds 503 with Retry-After, queries
	// keep answering, the venue listing flags the drain.
	resp = postJSON(t, ts.URL+"/v1/admin/venues/north/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %s", resp.Status)
	}
	resp.Body.Close()
	resp = feed()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained feed = %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drained feed carries no Retry-After")
	}
	e := decodeBody[v1Error](t, resp)
	if e.Error.Code != "venue_draining" {
		t.Fatalf("drained feed code = %q", e.Error.Code)
	}
	resp, err = http.Get(ts.URL + "/v1/venues/north/query/popular-regions?k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query against drained venue = %s; reads must keep serving", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/v1/venues")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Venues []venueInfo `json:"venues"`
	}](t, resp)
	if len(list.Venues) != 1 || !list.Venues[0].Draining {
		t.Fatalf("venue listing during drain = %+v", list.Venues)
	}

	// Cutover: re-drain with a redirect target; stragglers get 307 to
	// the new owner's feed path.
	resp = postJSON(t, ts.URL+"/v1/admin/venues/north/drain", map[string]string{"redirect_to": "http://new-owner:8080"})
	resp.Body.Close()
	resp = feed()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("post-cutover feed = %s, want 307", resp.Status)
	}
	if got, want := resp.Header.Get("Location"), "http://new-owner:8080/v1/venues/north/feed"; got != want {
		t.Fatalf("redirect Location = %q, want %q", got, want)
	}
	resp.Body.Close()

	// Undrain: service resumes.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/venues/north/drain", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain = %s", resp.Status)
	}
	resp = feed()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-undrain feed = %s", resp.Status)
	}
	resp.Body.Close()

	// Undraining a venue that is not draining: 404. Draining an
	// unknown venue: 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/venues/north/drain", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double undrain = %s, want 404", resp.Status)
	}
	resp = postJSON(t, ts.URL+"/v1/admin/venues/nowhere/drain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown venue = %s, want 404", resp.Status)
	}
}

// TestServerSnapshotFileTransfer walks the migration transfer leg:
// snapshot on the source, download the file, upload into a cold
// twin, and verify the state moved exactly — plus every guard on the
// upload path.
func TestServerSnapshotFileTransfer(t *testing.T) {
	registry, test := testRegistry(t, "default")
	srcDir := t.TempDir()
	src := httptest.NewServer(newServer(registry, defaultMaxBody, "", withSnapshotDir(srcDir)))
	defer src.Close()

	for i := range test {
		resp := postJSON(t, src.URL+"/v1/feed", sequenceRequest{
			ObjectID: fmt.Sprintf("obj%d", i), Records: toWire(test[i].P.Records),
		})
		resp.Body.Close()
	}
	resp := postJSON(t, src.URL+"/v1/admin/venues/default/snapshot", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot trigger = %s", resp.Status)
	}

	// Download and compare with the on-disk file byte for byte.
	resp, err := http.Get(src.URL + "/v1/admin/venues/default/snapshot/file")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot download = %s", resp.Status)
	}
	disk, err := os.ReadFile(c2mn.SnapshotPath(srcDir, "default"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, disk) {
		t.Fatalf("downloaded snapshot differs from the on-disk file (%d vs %d bytes)", len(snap), len(disk))
	}

	// Upload into a cold twin backend: state transfers exactly and the
	// uploaded bytes persist into the target's snapshot dir.
	ann, _ := testParts(t)
	coldReg, err := c2mn.NewVenueRegistry(c2mn.WithVenueDefaults(c2mn.WithPreprocess(testEta, testPsi)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldReg.Register("default", ann); err != nil {
		t.Fatal(err)
	}
	dstDir := t.TempDir()
	dst := httptest.NewServer(newServer(coldReg, defaultMaxBody, "", withSnapshotDir(dstDir)))
	defer dst.Close()

	put := func(url string, body []byte) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp = put(dst.URL+"/v1/admin/venues/default/snapshot/file", snap)
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(resp.Body)
		t.Fatalf("snapshot upload = %s: %s", resp.Status, buf)
	}
	restored := decodeBody[map[string]any](t, resp)
	if restored["status"] != "restored" {
		t.Fatalf("upload response = %v", restored)
	}
	if got, want := coldReg.Stats()["default"], registry.Stats()["default"]; got != want {
		t.Fatalf("restored stats = %+v, want %+v", got, want)
	}
	if _, err := os.Stat(c2mn.SnapshotPath(dstDir, "default")); err != nil {
		t.Fatalf("uploaded snapshot not persisted on the target: %v", err)
	}
	// Freshness: the venue listing reports the restore as a snapshot.
	resp, err = http.Get(dst.URL + "/v1/venues")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Venues []venueInfo `json:"venues"`
	}](t, resp)
	if len(list.Venues) != 1 || list.Venues[0].SnapshotStale || list.Venues[0].LastSnapshotUnix == 0 {
		t.Fatalf("post-restore venue listing = %+v", list.Venues)
	}

	// Guard: restoring over live state is refused with a typed 409.
	resp = put(dst.URL+"/v1/admin/venues/default/snapshot/file", snap)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double restore = %s, want 409", resp.Status)
	}
	e := decodeBody[v1Error](t, resp)
	if e.Error.Code != "snapshot_conflict" {
		t.Fatalf("double restore code = %q", e.Error.Code)
	}

	// Guard: garbage is a typed 422, and the venue's state survives.
	resp = put(dst.URL+"/v1/admin/venues/default/snapshot/file", []byte("not a snapshot"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage upload = %s, want 422", resp.Status)
	}
	e = decodeBody[v1Error](t, resp)
	if e.Error.Code != "snapshot_corrupt" {
		t.Fatalf("garbage upload code = %q", e.Error.Code)
	}

	// Guard: unknown venue 404; download without persistence 409;
	// download before any snapshot 404.
	resp = put(dst.URL+"/v1/admin/venues/nowhere/snapshot/file", snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("upload to unknown venue = %s, want 404", resp.Status)
	}
	noDir := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer noDir.Close()
	resp, err = http.Get(noDir.URL + "/v1/admin/venues/default/snapshot/file")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("download with persistence off = %s, want 409", resp.Status)
	}
	emptyDir := httptest.NewServer(newServer(coldReg, defaultMaxBody, "", withSnapshotDir(t.TempDir())))
	defer emptyDir.Close()
	resp, err = http.Get(emptyDir.URL + "/v1/admin/venues/default/snapshot/file")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("download before any snapshot = %s, want 404", resp.Status)
	}

	// The transfer endpoints are admin surface: token-gated both ways.
	gated := httptest.NewServer(newServer(registry, defaultMaxBody, "s3cret", withSnapshotDir(srcDir)))
	defer gated.Close()
	resp, err = http.Get(gated.URL + "/v1/admin/venues/default/snapshot/file")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless download = %s, want 401", resp.Status)
	}
	resp = put(gated.URL+"/v1/admin/venues/default/snapshot/file", snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless upload = %s, want 401", resp.Status)
	}
}

// TestServerSnapshotFreshnessColumns pins the /v1/venues snapshot
// freshness satellite: stale until snapshotted, fresh after, stale
// again as soon as the counters move.
func TestServerSnapshotFreshnessColumns(t *testing.T) {
	registry, test := testRegistry(t, "north")
	dir := t.TempDir()
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "", withSnapshotDir(dir)))
	defer ts.Close()

	venueRow := func() venueInfo {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/venues")
		if err != nil {
			t.Fatal(err)
		}
		list := decodeBody[struct {
			Venues []venueInfo `json:"venues"`
		}](t, resp)
		if len(list.Venues) != 1 {
			t.Fatalf("venue listing = %+v", list.Venues)
		}
		return list.Venues[0]
	}

	if row := venueRow(); !row.SnapshotStale || row.LastSnapshotUnix != 0 {
		t.Fatalf("never-snapshotted row = %+v, want stale with no timestamp", row)
	}
	resp := postJSON(t, ts.URL+"/v1/venues/north/feed", sequenceRequest{
		ObjectID: "obj", Records: toWire(test[0].P.Records),
	})
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/admin/venues/north/snapshot", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %s", resp.Status)
	}
	if row := venueRow(); row.SnapshotStale || row.LastSnapshotUnix == 0 {
		t.Fatalf("freshly snapshotted row = %+v, want fresh with a timestamp", row)
	}
	resp = postJSON(t, ts.URL+"/v1/venues/north/feed", sequenceRequest{
		ObjectID: "obj2", Records: toWire(test[1].P.Records),
	})
	resp.Body.Close()
	if row := venueRow(); !row.SnapshotStale {
		t.Fatalf("row after more traffic = %+v, want stale again", row)
	}
}

// TestServerRequestIDPropagation pins the X-Request-ID satellite: an
// inbound ID is echoed on the response and embedded in /v1 error
// payloads; absent IDs stay absent (the router, not msserve,
// generates).
func TestServerRequestIDPropagation(t *testing.T) {
	registry, _ := testRegistry(t, "north")
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/venues/nowhere/stats", nil)
	req.Header.Set("X-Request-ID", "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc-123" {
		t.Fatalf("echoed X-Request-ID = %q", got)
	}
	e := decodeBody[v1Error](t, resp)
	if e.Error.Code != "unknown_venue" || e.Error.RequestID != "req-abc-123" {
		t.Fatalf("error payload = %+v, want the request ID embedded", e.Error)
	}

	// No inbound ID: no synthesized one on the backend.
	resp, err = http.Get(ts.URL + "/v1/venues")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "" {
		t.Fatalf("unsolicited X-Request-ID = %q", got)
	}
}
