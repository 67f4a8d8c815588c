package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
)

// handleVenueScoped forwards a venue-scoped request — the data plane
// under /v1/venues/{venue}/..., the unload at /v1/admin/venues/{venue}
// — to the venue's owning backend.
func (rt *Router) handleVenueScoped(w http.ResponseWriter, r *http.Request) {
	rt.forwardToOwner(w, r, r.PathValue("venue"))
}

// handleAdminVenueScoped proxies the backends' consolidated admin
// tree (/v1/admin/venues/{venue}/...) to the venue's owner, with one
// router-side guard: a retrain trigger against a venue mid-migration
// is refused before it reaches the backend. The migration is moving a
// settled snapshot of exactly the serving state; a hot swap landing
// under it would rotate the model the snapshot's identity guards were
// checked against and void the cutover.
func (rt *Router) handleAdminVenueScoped(w http.ResponseWriter, r *http.Request) {
	venue := r.PathValue("venue")
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/retrain") {
		rt.mu.RLock()
		migrating := rt.migrating[venue]
		rt.mu.RUnlock()
		if migrating {
			httpapi.WriteError(w, r, http.StatusConflict,
				fmt.Errorf("%w: venue %q is migrating; retry after the cutover", c2mn.ErrMigrationConflict, venue))
			return
		}
	}
	rt.forwardToOwner(w, r, venue)
}

// handleBareVenuePath forwards the bare data-plane paths (/v1/annotate,
// /v1/feed) that name their venue by ?venue= — or, matching msserve's
// sole-venue convenience, implicitly when the fleet serves exactly one.
func (rt *Router) handleBareVenuePath(w http.ResponseWriter, r *http.Request) {
	venue := r.URL.Query().Get("venue")
	if venue == "" {
		known := rt.knownVenues()
		if len(known) != 1 {
			httpapi.WriteError(w, r, http.StatusBadRequest,
				fmt.Errorf("%d venue(s) in the fleet: pass ?venue=", len(known)))
			return
		}
		venue = known[0]
	}
	rt.forwardToOwner(w, r, venue)
}

// handleLoadVenue places a new venue: HRW over the ready backends
// decides where POST /v1/admin/venues lands (the body names
// server-side file paths, so the owning backend loads from its own
// disk).
func (rt *Router) handleLoadVenue(w http.ResponseWriter, r *http.Request) {
	body, ok := httpapi.ReadBody(w, r, rt.cfg.MaxBody, "request body")
	if !ok {
		return
	}
	var req struct {
		Venue string `json:"venue"`
	}
	// Tolerate a malformed body here: the backend owns request
	// validation and will phrase the 400 itself.
	_ = json.Unmarshal(body, &req)
	venue := req.Venue
	if venue == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("venue is required"))
		return
	}
	backend, err := rt.owner(venue)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	rt.forward(w, r, backend, body)
}

// forwardToOwner resolves the venue's owner and forwards the request,
// buffering the body so transport-level retries can replay it.
func (rt *Router) forwardToOwner(w http.ResponseWriter, r *http.Request, venue string) {
	if venue == "" {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("empty venue ID"))
		return
	}
	backend, err := rt.owner(venue)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	body, ok := httpapi.ReadBody(w, r, rt.cfg.MaxBody, "request body")
	if !ok {
		return
	}
	rt.forward(w, r, backend, body)
}

// forward proxies one buffered request to a backend and streams the
// response back verbatim — status, headers and body untouched, so
// backend answers (429 backpressure with its Retry-After included)
// reach the client exactly as the backend wrote them. Transport
// errors — no response received — are retried with jittered backoff
// up to cfg.Retries times; a mid-migration 307 is followed once,
// transparently, to the redirecting venue's new owner.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, backend string, body []byte) {
	target := backend + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	resp, err := rt.roundTrip(r.Context(), r.Method, target, r.Header, body)
	if err != nil {
		rt.markUnreachable(backend, err)
		httpapi.WriteError(w, r, http.StatusBadGateway,
			fmt.Errorf("backend %s unreachable: %w", backend, err))
		return
	}
	if resp.StatusCode == http.StatusTemporaryRedirect {
		if loc := resp.Header.Get("Location"); loc != "" {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			redirected, err := rt.roundTrip(r.Context(), r.Method, loc, r.Header, body)
			if err != nil {
				httpapi.WriteError(w, r, http.StatusBadGateway,
					fmt.Errorf("following migration redirect to %s: %w", loc, err))
				return
			}
			resp = redirected
		}
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// roundTrip issues one backend request with the bounded retry policy.
// Only transport errors retry: a received response — any status — is
// the backend's answer and is returned as-is.
func (rt *Router) roundTrip(ctx context.Context, method, target string, header http.Header, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			// Exponential backoff with full jitter: sleep a uniform
			// slice of 25ms·2^attempt so synchronized retries from
			// concurrent requests spread out.
			backoff := time.Duration(rand.Int64N(int64(25*time.Millisecond) << attempt))
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		copyForwardHeaders(req.Header, header)
		resp, err := rt.client.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// copyForwardHeaders copies the client's headers onto the outbound
// backend request, dropping the hop-by-hop set.
func copyForwardHeaders(dst, src http.Header) {
	for k, vv := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "Proxy-Connection", "Host":
			continue
		}
		dst[http.CanonicalHeaderKey(k)] = vv
	}
}

// backendJSON issues one JSON request on the router's own behalf
// (health probes aside, this is the migration coordinator's client):
// bounded retries on transport errors, the backend admin token
// attached, and non-2xx responses turned into errors carrying the
// backend's own message.
func (rt *Router) backendJSON(ctx context.Context, method, target string, body []byte, out any) error {
	buf, _, _, err := rt.backendFetch(ctx, method, target, body, "")
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(buf, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, target, err)
	}
	return nil
}

// backendFetch is the request under backendJSON, with HTTP freshness:
// a non-empty ifNoneMatch is sent as If-None-Match, and a 304 answer
// returns notModified=true and no body. The response's ETag (empty
// when the backend minted none) is returned so callers can label what
// they cache. A 2xx body larger than cfg.MaxBody is an error, never a
// silently cut buffer.
func (rt *Router) backendFetch(ctx context.Context, method, target string, body []byte, ifNoneMatch string) (buf []byte, etag string, notModified bool, err error) {
	header := http.Header{}
	if body != nil {
		header.Set("Content-Type", "application/json")
	}
	if rt.cfg.BackendToken != "" {
		header.Set("Authorization", "Bearer "+rt.cfg.BackendToken)
	}
	if ifNoneMatch != "" {
		header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := rt.roundTrip(ctx, method, target, header, body)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	etag = resp.Header.Get("ETag")
	if resp.StatusCode == http.StatusNotModified {
		io.Copy(io.Discard, resp.Body)
		return nil, etag, true, nil
	}
	buf, err = io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody+1))
	if err != nil {
		return nil, "", false, fmt.Errorf("%s %s: reading response: %w", method, target, err)
	}
	if int64(len(buf)) > rt.cfg.MaxBody {
		return nil, "", false, fmt.Errorf("%s %s: response exceeds the %d-byte body limit", method, target, rt.cfg.MaxBody)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, "", false, backendError(method, target, resp.StatusCode, buf)
	}
	return buf, etag, false, nil
}

// backendError folds a backend's typed /v1 error payload into a Go
// error, mapping the wire codes that have library sentinels back onto
// them so errors.Is works across the process boundary.
func backendError(method, target string, status int, body []byte) error {
	var payload struct {
		Error httpapi.WireError `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	var sentinel error
	if err := json.Unmarshal(body, &payload); err == nil && payload.Error.Message != "" {
		msg = payload.Error.Message
		switch payload.Error.Code {
		case "unknown_venue":
			sentinel = c2mn.ErrUnknownVenue
		case "invalid_query":
			sentinel = c2mn.ErrInvalidQuery
		case "snapshot_mismatch":
			sentinel = c2mn.ErrSnapshotMismatch
		case "snapshot_conflict":
			sentinel = c2mn.ErrSnapshotConflict
		case "snapshot_corrupt":
			sentinel = c2mn.ErrSnapshotCorrupt
		}
	}
	err := fmt.Errorf("%s %s: HTTP %d: %s", method, target, status, msg)
	if sentinel != nil {
		err = fmt.Errorf("%w: %w", sentinel, err)
	}
	return err
}

// venuePath builds a backend /v1/venues/{venue}/{sub} data-plane URL.
func venuePath(backend, venue, sub string) string {
	return backend + "/v1/venues/" + url.PathEscape(venue) + "/" + sub
}

// adminVenuePath builds a backend /v1/admin/venues/{venue}[/{sub}] URL:
// the token-gated primitives a migration sequences.
func adminVenuePath(backend, venue, sub string) string {
	p := backend + "/v1/admin/venues/" + url.PathEscape(venue)
	if sub != "" {
		p += "/" + sub
	}
	return p
}
