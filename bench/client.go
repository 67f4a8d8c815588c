package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Operation classes a tally keeps latencies for.
const (
	opFeed = iota
	opQueryRepeat
	opQueryMiss
	opQueryFleet
	numOps
)

// tally is what one load goroutine saw. Each goroutine owns its tally;
// they are merged after the goroutines have ended.
type tally struct {
	lat         [numOps][]float64 // milliseconds
	attempted   int64
	failed      int64
	notModified int64
	throttled   int64
	fedRecords  int64 // records the server acknowledged
	completed   int64 // sequences the server said the feeds completed
	lateness    []float64
	firstErr    error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// queries is the number of completed queries of all classes.
func (t *tally) queries() int {
	return len(t.lat[opQueryRepeat]) + len(t.lat[opQueryMiss]) + len(t.lat[opQueryFleet])
}

func (t *tally) allQueryLatencies() []float64 {
	out := append([]float64(nil), t.lat[opQueryRepeat]...)
	out = append(out, t.lat[opQueryMiss]...)
	return append(out, t.lat[opQueryFleet]...)
}

func mergeTallies(ts ...*tally) *tally {
	out := &tally{}
	for _, t := range ts {
		for op := range t.lat {
			out.lat[op] = append(out.lat[op], t.lat[op]...)
		}
		out.attempted += t.attempted
		out.failed += t.failed
		out.notModified += t.notModified
		out.throttled += t.throttled
		out.fedRecords += t.fedRecords
		out.completed += t.completed
		out.lateness = append(out.lateness, t.lateness...)
		if out.firstErr == nil {
			out.firstErr = t.firstErr
		}
	}
	return out
}

// caller is one load connection: an HTTP client that keeps a single
// connection alive, the ETags it has been given, and its tally.
type caller struct {
	http  *http.Client
	base  string
	etags []string
	t     *tally
	tr    *tracer
}

func newCaller(base string, etagSlots int, tr *tracer) *caller {
	return &caller{
		http: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		base:  base,
		etags: make([]string, etagSlots),
		t:     &tally{},
		tr:    tr,
	}
}

func (c *caller) close() { c.http.CloseIdleConnections() }

type feedReply struct {
	Fed       int `json:"fed"`
	Completed int `json:"completed_sequences"`
}

// feed posts one feed to a venue and checks the reply: 200, every
// record acknowledged, and exactly wantCompleted sequences closed.
// start is when the request counts as sent — the due time in an open
// loop — and the latency runs from there to the full response.
func (c *caller) feed(venue string, f *feed, wantCompleted int, start time.Time) {
	c.t.attempted++
	sp := c.tr.begin(0, c.tr.request(), "client.feed")
	resp, err := c.http.Post(c.base+"/v1/venues/"+venue+"/feed", "application/json", bytes.NewReader(f.body))
	if err != nil {
		c.tr.end(sp)
		c.t.fail(fmt.Errorf("feed %s: %w", venue, err))
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	elapsed := time.Since(start)
	if resp.StatusCode == http.StatusTooManyRequests {
		c.t.throttled++
	}
	var reply feedReply
	switch {
	case err != nil:
		c.t.fail(fmt.Errorf("feed %s: reading reply: %w", venue, err))
	case resp.StatusCode != http.StatusOK:
		c.t.fail(fmt.Errorf("feed %s: status %d: %s", venue, resp.StatusCode, bytes.TrimSpace(body)))
	case json.Unmarshal(body, &reply) != nil:
		c.t.fail(fmt.Errorf("feed %s: bad reply %q", venue, body))
	case reply.Fed != len(f.records) || reply.Completed != wantCompleted:
		c.t.fedRecords += int64(reply.Fed)
		c.t.completed += int64(reply.Completed)
		c.t.fail(fmt.Errorf("feed %s: fed %d of %d, completed %d, want %d",
			venue, reply.Fed, len(f.records), reply.Completed, wantCompleted))
	default:
		c.t.fedRecords += int64(reply.Fed)
		c.t.completed += int64(reply.Completed)
		c.t.lat[opFeed] = append(c.t.lat[opFeed], millis(elapsed))
	}
}

// query sends one planned query, replaying the slot's ETag, and
// returns the body of a 200. A 304 is accepted only for a request
// that carried an ETag.
func (c *caller) query(q *queryReq, start time.Time) []byte {
	c.t.attempted++
	var rd io.Reader
	if q.body != nil {
		rd = bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(context.Background(), q.method, c.base+q.path, rd)
	if err != nil {
		c.t.fail(err)
		return nil
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sent := ""
	if q.slot >= 0 {
		sent = c.etags[q.slot]
	}
	if sent != "" {
		req.Header.Set("If-None-Match", sent)
	}
	sp := c.tr.begin(0, c.tr.request(), "client.query."+className[q.class])
	resp, err := c.http.Do(req)
	if err != nil {
		c.tr.end(sp)
		c.t.fail(fmt.Errorf("query %s: %w", q.path, err))
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	elapsed := time.Since(start)
	switch {
	case err != nil:
		c.t.fail(fmt.Errorf("query %s: reading reply: %w", q.path, err))
		return nil
	case resp.StatusCode == http.StatusNotModified:
		if sent == "" {
			c.t.fail(fmt.Errorf("query %s: 304 for a request without an ETag", q.path))
			return nil
		}
		c.t.notModified++
	case resp.StatusCode == http.StatusOK:
		if q.slot >= 0 {
			c.etags[q.slot] = resp.Header.Get("ETag")
		}
	default:
		if resp.StatusCode == http.StatusTooManyRequests {
			c.t.throttled++
		}
		c.t.fail(fmt.Errorf("query %s: status %d: %s", q.path, resp.StatusCode, bytes.TrimSpace(body)))
		return nil
	}
	c.t.lat[opQueryRepeat+q.class] = append(c.t.lat[opQueryRepeat+q.class], millis(elapsed))
	return body
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// getJSON fetches and decodes a JSON document outside any measurement.
func getJSON(url string, into any) error {
	resp, err := probeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// engineStats are the /v1/stats counters the benchmark reads: those
// the output checks reconcile and those behind two layer metrics.
// The field names are c2mn.EngineStats's, which the route marshals
// untagged.
type engineStats struct {
	FedRecords       int64
	EmittedSequences int64
	FeedBatches      int64
	StoredSequences  int64
	QueryCacheHits   int64
	QueryCacheMisses int64
}

func (a engineStats) minus(b engineStats) engineStats {
	return engineStats{
		FedRecords:       a.FedRecords - b.FedRecords,
		EmittedSequences: a.EmittedSequences - b.EmittedSequences,
		FeedBatches:      a.FeedBatches - b.FeedBatches,
		StoredSequences:  a.StoredSequences - b.StoredSequences,
		QueryCacheHits:   a.QueryCacheHits - b.QueryCacheHits,
		QueryCacheMisses: a.QueryCacheMisses - b.QueryCacheMisses,
	}
}

func (a *engineStats) add(b engineStats) {
	a.FedRecords += b.FedRecords
	a.EmittedSequences += b.EmittedSequences
	a.FeedBatches += b.FeedBatches
	a.StoredSequences += b.StoredSequences
	a.QueryCacheHits += b.QueryCacheHits
	a.QueryCacheMisses += b.QueryCacheMisses
}

// statsTotals sums the per-venue /v1/stats counters over the backends.
// It adds the venues up itself: the route's own totals leave some
// counters out.
func statsTotals(backends []*proc) (engineStats, error) {
	var sum engineStats
	for _, b := range backends {
		var resp struct {
			Venues map[string]engineStats `json:"venues"`
		}
		if err := getJSON(b.base+"/v1/stats", &resp); err != nil {
			return sum, err
		}
		for _, st := range resp.Venues {
			sum.add(st)
		}
	}
	return sum, nil
}

// frame is one SSE event as it arrived.
type frame struct {
	at    time.Time
	event string
	id    string
}

// watcher holds one /watch subscription open and timestamps every
// event frame on arrival.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	frames []frame
	err    error
}

// openWatch subscribes and returns once the initial snapshot frame has
// arrived, so that no later frame can be the subscription's own.
func openWatch(url string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %s: status %d", url, resp.StatusCode)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{})}
	first := make(chan struct{})
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		var once sync.Once
		err := readFrames(resp.Body, func(f frame) {
			w.mu.Lock()
			w.frames = append(w.frames, f)
			w.mu.Unlock()
			once.Do(func() { close(first) })
		})
		if err != nil && ctx.Err() == nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
		}
		once.Do(func() { close(first) })
	}()
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		w.close()
		return nil, fmt.Errorf("watch %s: no snapshot within 10s", url)
	}
	if _, err := w.snapshot(); err != nil {
		w.close()
		return nil, fmt.Errorf("watch %s: %w", url, err)
	}
	return w, nil
}

// readFrames parses an SSE stream: "event:", "id:" and "data:" lines
// up to a blank line make one frame; lines starting with ':' are
// heartbeat comments.
func readFrames(r io.Reader, emit func(frame)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var cur frame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if cur.event != "" {
				cur.at = time.Now()
				emit(cur)
			}
			cur = frame{}
		case strings.HasPrefix(line, "event:"):
			cur.event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "id:"):
			cur.id = strings.TrimSpace(line[len("id:"):])
		}
	}
}

// snapshot returns a copy of the frames so far and any stream error.
func (w *watcher) snapshot() ([]frame, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]frame(nil), w.frames...), w.err
}

// close ends the subscription and waits for the reader to finish.
func (w *watcher) close() {
	w.cancel()
	<-w.done
}

// watchLags attributes frames to sends: the lag of send i is the time
// from due[i] to the first frame naming the venue that arrives before
// due[i+1]. Sends with no such frame are returned as unmatched.
func watchLags(due []time.Time, frames []frame, venue string) (lags []float64, unmatched int) {
	fi := 0
	for i, d := range due {
		for fi < len(frames) && (frames[fi].at.Before(d) || !namesVenue(frames[fi], venue)) {
			fi++
		}
		if fi < len(frames) && (i+1 == len(due) || frames[fi].at.Before(due[i+1])) {
			lags = append(lags, millis(frames[fi].at.Sub(d)))
			continue
		}
		unmatched++
	}
	return lags, unmatched
}

// namesVenue reports whether a data-bearing frame's composite id
// ("venue:gen;venue:gen") has an entry for the venue.
func namesVenue(f frame, venue string) bool {
	if f.event != "delta" && f.event != "resync" && f.event != "snapshot" {
		return false
	}
	for _, part := range strings.Split(f.id, ";") {
		if strings.HasPrefix(part, venue+":") {
			return true
		}
	}
	return false
}

// openLoop calls fn at start, start+period, … until ctx ends or n
// calls were made, never earlier than due and never skipping one: a
// slow call makes the following ones late, and how late each call
// began is returned in milliseconds.
func openLoop(ctx context.Context, start time.Time, period time.Duration, n int, fn func(i int, due time.Time)) (lateness []float64) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return lateness
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			return lateness
		}
		lateness = append(lateness, millis(time.Since(due)))
		fn(i, due)
	}
	return lateness
}
