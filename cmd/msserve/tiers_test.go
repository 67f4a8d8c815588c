package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"c2mn/internal/router"
)

// TestTiersDecodeBodiesAlike drives the same request bodies at an
// msserve and at a router in front of it, on every body-taking route,
// and requires the same status and error code from both tiers: a body
// is exactly one JSON value whichever tier reads it.
func TestTiersDecodeBodiesAlike(t *testing.T) {
	registry, _ := testRegistry(t, "default")
	backend := httptest.NewServer(newServer(registry, defaultMaxBody, ""))
	defer backend.Close()
	rt, err := router.New(router.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	front := httptest.NewServer(rt)
	defer front.Close()

	const (
		fleet = `{"kind":"popular-regions","scope":"fleet"}`
		seq   = `{"object_id":"o","records":[{"x":1,"y":1,"floor":0,"t":1}]}`
		truth = `{"data":[]}`
	)
	post := func(base, path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode < 400 {
			resp.Body.Close()
			return resp.StatusCode, ""
		}
		return resp.StatusCode, wireErrorOf(t, resp).Code
	}
	for _, c := range []struct {
		path, body string
		status     int
		code       string
	}{
		{"/v1/query", fleet, 200, ""},
		{"/v1/query", fleet + " \n", 200, ""},
		{"/v1/query", fleet + " trailing-garbage", 400, "invalid_argument"},
		{"/v1/query", fleet + fleet, 400, "invalid_argument"},
		{"/v1/query", fleet + "}", 400, "invalid_argument"},
		{"/v1/query", `{"kind":"popular-regions","scope":"fle`, 400, "invalid_argument"},
		// Venue scope: the router forwards the bytes it buffered.
		{"/v1/query", `{"kind":"popular-regions","venues":["default"]} x`, 400, "invalid_argument"},
		{"/v1/feed", seq, 200, ""},
		{"/v1/feed", seq + " trailing-garbage", 400, "invalid_argument"},
		{"/v1/venues/default/feed", seq + seq, 400, "invalid_argument"},
		{"/v1/annotate", seq + " x", 400, "invalid_argument"},
		{"/v1/venues/default/annotate", seq + "]", 400, "invalid_argument"},
		{"/v1/admin/venues", `{"venue":"v","space":"s","model":"m"} x`, 400, "invalid_argument"},
		{"/v1/admin/venues/default/drain", `{"redirect_to":""} x`, 400, "invalid_argument"},
		{"/v1/admin/venues/default/feedback", truth + " x", 400, "invalid_argument"},
		{"/v1/admin/venues/default/retrain", truth + truth, 400, "invalid_argument"},
	} {
		serveStatus, serveCode := post(backend.URL, c.path, c.body)
		routeStatus, routeCode := post(front.URL, c.path, c.body)
		if serveStatus != routeStatus || serveCode != routeCode {
			t.Errorf("POST %s %q: msserve %d %q, msrouter %d %q", c.path, c.body, serveStatus, serveCode, routeStatus, routeCode)
		}
		if serveStatus != c.status || serveCode != c.code {
			t.Errorf("POST %s %q: %d %q, want %d %q", c.path, c.body, serveStatus, serveCode, c.status, c.code)
		}
	}
	// The router's own admin bodies go through the same decode.
	for _, path := range []string{"/v1/admin/backends", "/v1/admin/pins", "/v1/admin/migrate"} {
		if status, code := post(front.URL, path, `{} x`); status != 400 || code != "invalid_argument" {
			t.Errorf("POST %s with trailing bytes: %d %q, want 400 invalid_argument", path, status, code)
		}
	}
	if got := registry.Venues(); len(got) != 1 {
		t.Fatalf("a refused load body still reached the registry: %v", got)
	}
}
