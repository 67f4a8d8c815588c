// Package httpapi is the one HTTP kit under both serving tiers:
// cmd/msserve and internal/router answer with the same error
// envelope, request-id echo, 404/405 upgrade, admin-token gate and
// body decoding because they call the same code, not because one
// mirrors the other. It holds only what both tiers use.
package httpapi

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"c2mn"
)

// RequestIDHeader correlates a request across the routing tier and
// the venue backends: the router generates an ID when the client sent
// none, msserve echoes whatever arrives, and both embed it in error
// payloads.
const RequestIDHeader = "X-Request-ID"

// WireError is the typed error payload, {"error": {...}} on the wire.
// RequestID reflects the request's X-Request-ID (when one was sent,
// e.g. by the router), so an error observed by the client is
// correlatable with the backend's logs and the router's.
type WireError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrVenueDraining marks feed rejections against a draining venue, so
// the typed error code distinguishes a migration pause from a client
// mistake.
var ErrVenueDraining = errors.New("venue is draining")

// sentinelCodes maps the sentinels either tier can answer with onto
// their stable machine-readable codes; the first match wins.
var sentinelCodes = []struct {
	err  error
	code string
}{
	{c2mn.ErrNoBackend, "no_backend"},
	{c2mn.ErrMigrationConflict, "migration_conflict"},
	{c2mn.ErrUnknownVenue, "unknown_venue"},
	{c2mn.ErrInvalidQuery, "invalid_query"},
	{c2mn.ErrBacklog, "backlog"},
	{c2mn.ErrCanceled, "canceled"},
	{c2mn.ErrTooManyVenues, "too_many_venues"},
	{c2mn.ErrEmptySequence, "empty_sequence"},
	{c2mn.ErrModelVersion, "model_version"},
	{c2mn.ErrSnapshotVersion, "snapshot_version"},
	{c2mn.ErrSnapshotMismatch, "snapshot_mismatch"},
	{c2mn.ErrSnapshotConflict, "snapshot_conflict"},
	{c2mn.ErrSnapshotCorrupt, "snapshot_corrupt"},
	{ErrVenueDraining, "venue_draining"},
	{c2mn.ErrRetrainDisabled, "retrain_disabled"},
	{c2mn.ErrRetrainBusy, "retrain_busy"},
	{c2mn.ErrRetrainConflict, "retrain_conflict"},
	{c2mn.ErrRetrainSamples, "retrain_samples"},
}

// errorCode derives the stable machine-readable code of an error: the
// sentinel's when one matches, a status-derived fallback otherwise.
func errorCode(status int, err error) string {
	for _, sc := range sentinelCodes {
		if errors.Is(err, sc.err) {
			return sc.code
		}
	}
	switch status {
	case http.StatusBadRequest:
		return "invalid_argument"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusTooManyRequests:
		return "backlog"
	case http.StatusBadGateway:
		return "backend_unreachable"
	case http.StatusServiceUnavailable:
		return "unavailable"
	}
	if status >= http.StatusInternalServerError {
		return "internal"
	}
	return "unprocessable"
}

// ErrorOf builds the typed payload for err answered with status on r.
func ErrorOf(r *http.Request, status int, err error) WireError {
	return WireError{
		Code: errorCode(status, err), Message: err.Error(),
		RequestID: r.Header.Get(RequestIDHeader),
	}
}

// WriteError emits the typed {"error": {"code", "message"}} envelope.
func WriteError(w http.ResponseWriter, r *http.Request, status int, err error) {
	WriteJSON(w, status, map[string]WireError{"error": ErrorOf(r, status, err)})
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// NoStore marks an introspection response uncacheable. Operational
// state (stats, venue listings, health, admin answers) describes this
// instant on this process and must never be served stale by an
// intermediary; only /v1/query is deliberately cache-validated,
// through its generation ETag.
func NoStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

// Admin wraps a handler behind the bearer-token check: the single auth
// chokepoint of a tier's /v1/admin tree. An empty token leaves the
// tree open, for deployments fronted by their own auth. Admin
// responses are uncacheable by construction: beyond being stale the
// moment state moves, a cache in front of a token-gated endpoint could
// replay an authorized response to an unauthorized caller.
func Admin(token string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		NoStore(w)
		if token != "" {
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
				w.Header().Set("WWW-Authenticate", "Bearer")
				WriteError(w, r, http.StatusUnauthorized, errors.New("admin endpoint requires a valid bearer token"))
				return
			}
		}
		h(w, r)
	}
}

// Wrap is the middleware both tiers serve their mux through. It
// reflects an inbound X-Request-ID onto the response, so a client (or
// the router) can match answers to requests across process
// boundaries, and it upgrades the mux's own error responses — the
// text/plain 404s and auto-405s ServeMux writes for unmatched paths
// and wrong methods — to the typed JSON envelope every other error
// carries. Handler-written responses pass through untouched: handlers
// and proxied backend responses always set a non-text Content-Type
// before writing, so the text/plain sniff only ever matches the mux's
// (and http.Error's) own output. The mux's Allow header on a 405
// survives, since headers are shared with the underlying writer.
func Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(RequestIDHeader); id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		ew := &envelopeWriter{ResponseWriter: w, r: r}
		h.ServeHTTP(ew, r)
		ew.finish()
	})
}

// envelopeWriter intercepts a plain-text 404/405 at WriteHeader time,
// swallows its body, and lets finish rewrite it as the typed
// envelope. Everything else streams straight through.
type envelopeWriter struct {
	http.ResponseWriter
	r         *http.Request
	intercept bool
	status    int
	wrote     bool
}

func (ew *envelopeWriter) WriteHeader(status int) {
	if ew.wrote || ew.intercept {
		return
	}
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(ew.Header().Get("Content-Type"), "text/plain") {
		ew.intercept = true
		ew.status = status
		return
	}
	ew.wrote = true
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *envelopeWriter) Write(b []byte) (int, error) {
	if ew.intercept {
		// Drop the plain-text body; finish writes the envelope.
		return len(b), nil
	}
	ew.wrote = true
	return ew.ResponseWriter.Write(b)
}

func (ew *envelopeWriter) finish() {
	if !ew.intercept {
		return
	}
	h := ew.Header()
	h.Del("X-Content-Type-Options")
	// A proxied plain-text 404 carries the length of the body dropped
	// above; the envelope must not be cut to it.
	h.Del("Content-Length")
	msg := "no route matches " + ew.r.Method + " " + ew.r.URL.Path
	if ew.status == http.StatusMethodNotAllowed {
		msg = ew.r.Method + " not allowed on " + ew.r.URL.Path
		if allow := h.Get("Allow"); allow != "" {
			msg += " (allowed: " + allow + ")"
		}
	}
	WriteError(ew.ResponseWriter, ew.r, ew.status, errors.New(msg))
}

// Flush and Unwrap keep the streaming surface (/v1/watch) working
// through the wrapper: internal/notify's SSE writer resolves its
// flusher via http.NewResponseController's Unwrap chain.
func (ew *envelopeWriter) Flush() {
	if f, ok := ew.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (ew *envelopeWriter) Unwrap() http.ResponseWriter { return ew.ResponseWriter }

// writeBodyError phrases a request-body failure: 413 when the body
// outgrew its limit, 400 otherwise. what names the body in the 413,
// doing the step that failed in the 400.
func writeBodyError(w http.ResponseWriter, r *http.Request, err error, what, doing string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%s exceeds %d bytes", what, tooLarge.Limit))
		return
	}
	WriteError(w, r, http.StatusBadRequest, fmt.Errorf("%s: %w", doing, err))
}

// ReadBody buffers the request body, capped at limit bytes, answering
// the 413 or 400 itself; the bool reports success. what names the body
// in those errors ("request body", "snapshot").
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeBodyError(w, r, err, what, "reading "+what)
		return nil, false
	}
	return body, true
}

// decodeJSON decodes the one JSON value rd holds into v. Anything but
// whitespace after the value is an error: a body is one document, and
// a tier that stopped reading at the first value would accept what the
// other refuses. The check is a single further token read on the same
// streaming decoder, not a second scan of the body.
func decodeJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	if err := dec.Decode(v); err != nil {
		return err
	}
	var tooLarge *http.MaxBytesError
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, &tooLarge):
		return err
	default:
		return errors.New("unexpected data after the JSON value")
	}
}

// DecodeBody decodes the request's JSON body, capped at limit bytes,
// into v, answering the 413 or 400 itself; the bool reports success.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return decode(w, r, http.MaxBytesReader(w, r.Body, limit), v)
}

// DecodeBytes is DecodeBody for a body already buffered with ReadBody
// (the router keeps the bytes to forward them verbatim).
func DecodeBytes(w http.ResponseWriter, r *http.Request, body []byte, v any) bool {
	return decode(w, r, bytes.NewReader(body), v)
}

func decode(w http.ResponseWriter, r *http.Request, rd io.Reader, v any) bool {
	if err := decodeJSON(rd, v); err != nil {
		writeBodyError(w, r, err, "request body", "decoding request")
		return false
	}
	return true
}
