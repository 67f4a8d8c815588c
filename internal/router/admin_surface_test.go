package router

// Tests for the router's /v1/admin plane: the token chokepoint on
// every mount, the route inventory and the typed 404/405 the removed
// mounts answer, and the proxied backend admin tree with the
// retrain/migration guard.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"c2mn/internal/httpapi"
)

func adminReq(t *testing.T, method, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func envelopeCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var body struct {
		Error httpapi.WireError `json:"error"`
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	return body.Error.Code
}

// TestRouterAdminMirror pins the router's token chokepoint: every one
// of its own /v1/admin mounts refuses without the bearer token and
// clears auth with it, and — authorized or not — answers
// Cache-Control: no-store.
func TestRouterAdminMirror(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{AdminToken: "sesame"}, a)
	srv := routerServer(t, rt)

	mounts := 0
	for _, r := range rt.routes() {
		method, path, _ := strings.Cut(r.pattern, " ")
		if !strings.HasPrefix(path, "/v1/admin/") || strings.HasPrefix(path, "/v1/admin/venues") {
			continue // the venues tree proxies; the backend gates it
		}
		mounts++
		for _, token := range []string{"", "wrong", "sesame"} {
			resp := adminReq(t, method, srv.URL+path, token)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if got := resp.Header.Get("Cache-Control"); got != "no-store" {
				t.Errorf("%s %s token %q: Cache-Control %q, want no-store", method, path, token, got)
			}
			if token == "sesame" {
				if resp.StatusCode == http.StatusUnauthorized {
					t.Errorf("%s %s with the token: still 401", method, path)
				}
				continue
			}
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s token %q: %d, want 401", method, path, token, resp.StatusCode)
			}
			if got := resp.Header.Get("WWW-Authenticate"); got != "Bearer" {
				t.Errorf("%s %s WWW-Authenticate %q", method, path, got)
			}
		}
	}
	if mounts != 7 {
		t.Fatalf("route table holds %d router admin mounts, want 7", mounts)
	}

	resp := adminReq(t, "GET", srv.URL+"/v1/admin/backends", "sesame")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/admin/backends: %d", resp.StatusCode)
	}
}

// TestRouterRouteInventory pins the one route generation: every
// mounted pattern lives under /v1/ except the two bare probes, and the
// removed mounts answer the typed 404/405 with nothing steering
// anywhere — before any backend is consulted.
func TestRouterRouteInventory(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{}, a)
	srv := routerServer(t, rt)

	for _, r := range rt.routes() {
		path := r.pattern
		if _, rest, ok := strings.Cut(r.pattern, " "); ok {
			path = rest
		}
		if !strings.HasPrefix(path, "/v1/") && r.pattern != "GET /healthz" && r.pattern != "GET /readyz" {
			t.Errorf("%q is mounted outside /v1/", r.pattern)
		}
	}

	for _, removed := range []struct {
		method, path string
		status       int
	}{
		{"GET", "/admin/backends", 404}, {"POST", "/admin/backends", 404}, {"DELETE", "/admin/backends", 404},
		{"GET", "/admin/assignments", 404}, {"POST", "/admin/pins", 404}, {"DELETE", "/admin/pins", 404},
		{"POST", "/admin/migrate", 404},
		// The load mount's old home meets the listing's GET, the unload's
		// meets nothing.
		{"POST", "/v1/venues", 405}, {"DELETE", "/v1/venues/north", 404},
	} {
		resp := adminReq(t, removed.method, srv.URL+removed.path, "")
		if resp.StatusCode != removed.status {
			t.Errorf("%s %s: %d, want %d", removed.method, removed.path, resp.StatusCode, removed.status)
		}
		for _, h := range []string{"Deprecation", "Link"} {
			if got := resp.Header.Get(h); got != "" {
				t.Errorf("%s %s carries %s: %q", removed.method, removed.path, h, got)
			}
		}
		want := map[int]string{404: "not_found", 405: "method_not_allowed"}[removed.status]
		if code := envelopeCode(t, resp); code != want {
			t.Errorf("%s %s: code %q, want %q", removed.method, removed.path, code, want)
		}
	}
	if log := a.callLog(); len(log) != 0 {
		t.Fatalf("a removed mount reached the backend: %v", log)
	}
}

// TestRouterProxiesAdminVenueTree: the backends' consolidated admin
// tree forwards to the venue's owner, and a retrain trigger against a
// migrating venue is refused router-side with the typed conflict.
func TestRouterProxiesAdminVenueTree(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{}, a)
	srv := routerServer(t, rt)

	resp := adminReq(t, "POST", srv.URL+"/v1/admin/venues/north/retrain", "")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("proxied retrain: %d (%s)", resp.StatusCode, body)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	log := a.callLog()
	if len(log) == 0 || log[len(log)-1] != "retrain north" {
		t.Fatalf("backend call log %v, want a retrain forward", log)
	}

	// Mid-migration the guard answers before the backend sees anything.
	rt.mu.Lock()
	rt.migrating["north"] = true
	rt.mu.Unlock()
	before := len(a.callLog())
	resp = adminReq(t, "POST", srv.URL+"/v1/admin/venues/north/retrain", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("retrain while migrating: %d, want 409", resp.StatusCode)
	}
	if code := envelopeCode(t, resp); code != "migration_conflict" {
		t.Fatalf("guard code %q, want migration_conflict", code)
	}
	if got := len(a.callLog()); got != before {
		t.Fatalf("guarded retrain still reached the backend (%d calls, was %d)", got, before)
	}

	// Other admin subpaths pass through the guard untouched, migrating
	// or not (the drain below is the migration's own tool).
	resp = adminReq(t, "POST", srv.URL+"/v1/admin/venues/north/drain", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied drain while migrating: %d, want 200", resp.StatusCode)
	}
}

// TestRouterV1Envelope405And404: the router's mux errors carry the
// typed envelope with Allow preserved.
func TestRouterV1Envelope405And404(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["north"] = &fakeVenue{}
	rt := testRouter(t, Config{}, a)
	srv := routerServer(t, rt)

	resp := adminReq(t, "DELETE", srv.URL+"/v1/query", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/query: %d, want 405", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("405 Content-Type %q, want JSON envelope", ct)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("405 Allow %q lost the method list", allow)
	}
	if code := envelopeCode(t, resp); code != "method_not_allowed" {
		t.Fatalf("405 code %q", code)
	}

	resp = adminReq(t, "GET", srv.URL+"/v1/nope", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nope: %d, want 404", resp.StatusCode)
	}
	if code := envelopeCode(t, resp); code != "not_found" {
		t.Fatalf("404 code %q", code)
	}
}
