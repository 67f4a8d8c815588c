package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"c2mn"
)

// envelopeOf decodes a recorded response as the typed error envelope.
func envelopeOf(t *testing.T, rec *httptest.ResponseRecorder) WireError {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type %q, want the JSON envelope (body %q)", ct, rec.Body)
	}
	var body struct {
		Error WireError `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding envelope %q: %v", rec.Body, err)
	}
	return body.Error
}

func TestErrorCodeTable(t *testing.T) {
	for _, c := range []struct {
		status int
		err    error
		want   string
	}{
		// Sentinels win over the status, wrapped or not, on either tier.
		{http.StatusNotFound, fmt.Errorf("query venue %q: %w", "x", c2mn.ErrUnknownVenue), "unknown_venue"},
		{http.StatusBadRequest, c2mn.ErrInvalidQuery, "invalid_query"},
		{http.StatusTooManyRequests, fmt.Errorf("stream x: %w", c2mn.ErrBacklog), "backlog"},
		{http.StatusServiceUnavailable, fmt.Errorf("%w: venue %q is migrating", ErrVenueDraining, "v"), "venue_draining"},
		{http.StatusServiceUnavailable, c2mn.ErrNoBackend, "no_backend"},
		{http.StatusConflict, c2mn.ErrMigrationConflict, "migration_conflict"},
		{http.StatusConflict, c2mn.ErrSnapshotConflict, "snapshot_conflict"},
		{http.StatusConflict, c2mn.ErrRetrainDisabled, "retrain_disabled"},
		{http.StatusUnprocessableEntity, c2mn.ErrRetrainSamples, "retrain_samples"},
		// Status-derived fallbacks: the union of what the two tiers answer.
		{http.StatusBadRequest, errors.New("x"), "invalid_argument"},
		{http.StatusUnauthorized, errors.New("x"), "unauthorized"},
		{http.StatusNotFound, errors.New("x"), "not_found"},
		{http.StatusMethodNotAllowed, errors.New("x"), "method_not_allowed"},
		{http.StatusConflict, errors.New("x"), "conflict"},
		{http.StatusRequestEntityTooLarge, errors.New("x"), "body_too_large"},
		{http.StatusTooManyRequests, errors.New("x"), "backlog"},
		{http.StatusBadGateway, errors.New("x"), "backend_unreachable"},
		{http.StatusServiceUnavailable, errors.New("x"), "unavailable"},
		{http.StatusInternalServerError, errors.New("x"), "internal"},
		{http.StatusUnprocessableEntity, errors.New("x"), "unprocessable"},
	} {
		if got := errorCode(c.status, c.err); got != c.want {
			t.Errorf("errorCode(%d, %v) = %q, want %q", c.status, c.err, got, c.want)
		}
	}
	if ErrVenueDraining.Error() != "venue is draining" {
		t.Errorf("ErrVenueDraining message = %q", ErrVenueDraining)
	}
}

func TestWriteErrorEmbedsRequestID(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/venues/x/stats", nil)
	req.Header.Set(RequestIDHeader, "req-1")
	WriteError(rec, req, http.StatusNotFound, fmt.Errorf("%w: %q", c2mn.ErrUnknownVenue, "x"))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
	want := WireError{Code: "unknown_venue", Message: `c2mn: unknown venue: "x"`, RequestID: "req-1"}
	if got := envelopeOf(t, rec); got != want {
		t.Fatalf("envelope %+v, want %+v", got, want)
	}
}

// TestWrap pins the middleware on every path, /v1 or not: the mux's
// own 404/405 become the typed envelope with Allow preserved, handler
// responses pass through, X-Request-ID is echoed only when sent, and
// streaming handlers still reach the flusher.
func TestWrap(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	})
	mux.HandleFunc("GET /v1/missing", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, r, http.StatusNotFound, c2mn.ErrUnknownVenue)
	})
	mux.HandleFunc("GET /v1/proxied", func(w http.ResponseWriter, r *http.Request) {
		// What forwarding a stock mux's 404 verbatim looks like.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", "19")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, "404 page not found\n")
	})
	mux.HandleFunc("GET /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "data: 1\n\n")
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("flush through the wrapper: %v", err)
		}
	})
	h := Wrap(mux)
	serve := func(method, path, reqID string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, nil)
		if reqID != "" {
			req.Header.Set(RequestIDHeader, reqID)
		}
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := serve(http.MethodDelete, "/v1/query", "abc")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/query: %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("405 Allow %q lost the mux's method list", allow)
	}
	we := envelopeOf(t, rec)
	if we.Code != "method_not_allowed" || we.RequestID != "abc" ||
		we.Message != "DELETE not allowed on /v1/query (allowed: POST)" {
		t.Fatalf("405 envelope %+v", we)
	}
	if rec.Header().Get(RequestIDHeader) != "abc" {
		t.Fatalf("X-Request-ID not echoed: %v", rec.Header())
	}

	for _, path := range []string{"/v1/nope", "/nope", "/admin/backends", "/v1/proxied"} {
		rec = serve(http.MethodGet, path, "")
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, rec.Code)
		}
		if we := envelopeOf(t, rec); we.Code != "not_found" || we.Message != "no route matches GET "+path {
			t.Fatalf("GET %s envelope %+v", path, we)
		}
		if got := rec.Header().Get(RequestIDHeader); got != "" {
			t.Fatalf("unsolicited X-Request-ID %q", got)
		}
		for _, stale := range []string{"X-Content-Type-Options", "Content-Length"} {
			if got := rec.Header().Get(stale); got != "" {
				t.Fatalf("GET %s: the plain-text answer's %s %q survived the rewrite", path, stale, got)
			}
		}
	}

	// A handler's own typed 404 and a 200 pass through untouched.
	if we := envelopeOf(t, serve(http.MethodGet, "/v1/missing", "")); we.Code != "unknown_venue" {
		t.Fatalf("handler 404 rewritten: %+v", we)
	}
	if rec = serve(http.MethodPost, "/v1/query", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("handler 200 = %d %q", rec.Code, rec.Body)
	}
	if rec = serve(http.MethodGet, "/v1/stream", ""); !rec.Flushed || rec.Body.String() != "data: 1\n\n" {
		t.Fatalf("stream flushed=%v body %q", rec.Flushed, rec.Body)
	}
}

func TestAdminGate(t *testing.T) {
	reached := 0
	inner := func(w http.ResponseWriter, r *http.Request) {
		reached++
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}
	call := func(token, auth string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/x", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		Admin(token, inner)(rec, req)
		if got := rec.Header().Get("Cache-Control"); got != "no-store" {
			t.Errorf("token %q auth %q: Cache-Control %q, want no-store", token, auth, got)
		}
		return rec
	}
	for _, auth := range []string{"", "Bearer wrong", "Basic sesame", "sesame", "Bearer sesame2"} {
		before := reached
		rec := call("sesame", auth)
		if rec.Code != http.StatusUnauthorized || reached != before {
			t.Fatalf("auth %q: status %d, handler reached %v", auth, rec.Code, reached != before)
		}
		if got := rec.Header().Get("WWW-Authenticate"); got != "Bearer" {
			t.Fatalf("auth %q: WWW-Authenticate %q", auth, got)
		}
		we := envelopeOf(t, rec)
		if we.Code != "unauthorized" || we.Message != "admin endpoint requires a valid bearer token" {
			t.Fatalf("auth %q: envelope %+v", auth, we)
		}
	}
	if rec := call("sesame", "Bearer sesame"); rec.Code != http.StatusOK || reached != 1 {
		t.Fatalf("valid token: status %d, reached %d", rec.Code, reached)
	}
	// An empty token leaves the tree open.
	if rec := call("", ""); rec.Code != http.StatusOK || reached != 2 {
		t.Fatalf("open tree: status %d, reached %d", rec.Code, reached)
	}
}

// TestDecodeBody pins the one body decode: a body is exactly one JSON
// value, with the 413/400 phrasing both tiers answer.
func TestDecodeBody(t *testing.T) {
	type payload struct {
		Kind string `json:"kind"`
	}
	const limit = 64
	for _, c := range []struct {
		name, body string
		status     int
		code, msg  string
	}{
		{"value", `{"kind":"a"}`, 0, "", ""},
		{"trailing whitespace", "{\"kind\":\"a\"} \n\t", 0, "", ""},
		{"trailing garbage", `{"kind":"a"} trailing-garbage`, 400, "invalid_argument", "decoding request: unexpected data after the JSON value"},
		{"second value", `{"kind":"a"}{"kind":"b"}`, 400, "invalid_argument", "decoding request: unexpected data after the JSON value"},
		{"stray close", `{"kind":"a"}}`, 400, "invalid_argument", "decoding request: unexpected data after the JSON value"},
		{"truncated", `{"kind":`, 400, "invalid_argument", "decoding request: unexpected EOF"},
		{"empty", ``, 400, "invalid_argument", "decoding request: EOF"},
		{"wrong type", `{"kind":3}`, 400, "invalid_argument", "decoding request: json: cannot unmarshal number into Go struct field payload.kind of type string"},
		{"too large", `{"kind":"` + strings.Repeat("a", limit) + `"}`, 413, "body_too_large", "request body exceeds 64 bytes"},
		{"too large by its tail", `{"kind":"a"}` + strings.Repeat(" ", limit), 413, "body_too_large", "request body exceeds 64 bytes"},
	} {
		for _, buffered := range []bool{false, true} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(c.body))
			var v payload
			var ok bool
			if buffered {
				var body []byte
				if body, ok = ReadBody(rec, req, limit, "request body"); ok {
					ok = DecodeBytes(rec, req, body, &v)
				}
			} else {
				ok = DecodeBody(rec, req, limit, &v)
			}
			if c.status == 0 {
				if !ok || v.Kind != "a" || rec.Body.Len() != 0 {
					t.Errorf("%s (buffered=%v): ok=%v value %+v response %q", c.name, buffered, ok, v, rec.Body)
				}
				continue
			}
			if ok || rec.Code != c.status {
				t.Errorf("%s (buffered=%v): ok=%v status %d, want %d", c.name, buffered, ok, rec.Code, c.status)
				continue
			}
			if we := envelopeOf(t, rec); we.Code != c.code || we.Message != c.msg {
				t.Errorf("%s (buffered=%v): envelope %+v, want %s %q", c.name, buffered, we, c.code, c.msg)
			}
		}
	}
}

func TestReadBodyNamesTheBody(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPut, "/v1/admin/venues/v/snapshot/file", bytes.NewReader(make([]byte, 9)))
	if _, ok := ReadBody(rec, req, 8, "snapshot"); ok || rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized snapshot: ok=%v status %d", ok, rec.Code)
	}
	if we := envelopeOf(t, rec); we.Message != "snapshot exceeds 8 bytes" {
		t.Fatalf("413 message %q", we.Message)
	}
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPut, "/x", io.MultiReader(strings.NewReader("ab"), failingReader{}))
	if _, ok := ReadBody(rec, req, 8, "snapshot"); ok || rec.Code != http.StatusBadRequest {
		t.Fatalf("failing read: ok=%v status %d", ok, rec.Code)
	}
	if we := envelopeOf(t, rec); we.Message != "reading snapshot: boom" {
		t.Fatalf("400 message %q", we.Message)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("boom") }
