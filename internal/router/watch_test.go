package router

// Tests for the routing tier's continuous-query stream: exact merge of
// per-venue upstream subscriptions, Last-Event-ID resume, and the
// self-healing resubscription path across a venue migration.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/notify"
)

// sseFake emulates the slice of msserve the router's watch plane
// touches: readiness, venue discovery, and the venue-scoped SSE watch
// endpoint driven by a notify.Hub, generation bumps included.
type sseFake struct {
	srv *httptest.Server
	hub *notify.Hub

	mu     sync.Mutex
	venues map[string]*sseFakeVenue
	// heartbeat, when positive, emits comment frames on open streams at
	// that cadence — needed by tests where a stream must look alive
	// while its data never moves.
	heartbeat time.Duration
	// silentStreams makes the next N watch streams wedge after their
	// snapshot: no heartbeats, no deltas, the connection just stays
	// open — the shape of a stopped process or half-open peer.
	silentStreams int
	// badIDStreams makes the next N watch streams emit their snapshot
	// with an unparseable event id and then wedge — a protocol
	// violation only a resubscribing relay can recover from.
	badIDStreams int
}

type sseFakeVenue struct {
	gen     uint64
	regions []c2mn.RegionCount // untruncated, canonical order
}

func newSSEFake(t *testing.T) *sseFake {
	f := &sseFake{hub: notify.NewHub(), venues: map[string]*sseFakeVenue{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/venues", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		rows := make([]map[string]any, 0, len(f.venues))
		for id := range f.venues {
			rows = append(rows, map[string]any{"venue": id})
		}
		f.mu.Unlock()
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venues": rows})
	})
	mux.HandleFunc("GET /v1/venues/{venue}/watch", f.handleWatch)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// set installs (or replaces) a venue's untruncated answer at the given
// generation and signals the hub, like a store write would.
func (f *sseFake) set(venue string, gen uint64, regions []c2mn.RegionCount) {
	f.mu.Lock()
	f.venues[venue] = &sseFakeVenue{gen: gen, regions: regions}
	f.mu.Unlock()
	f.hub.Publish(venue, gen)
}

// remove unloads a venue; open watch streams say goodbye.
func (f *sseFake) remove(venue string) {
	f.mu.Lock()
	delete(f.venues, venue)
	f.mu.Unlock()
	f.hub.Invalidate(venue)
}

func (f *sseFake) state(venue string) (uint64, []c2mn.RegionCount, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.venues[venue]
	if !ok {
		return 0, nil, false
	}
	return v.gen, append([]c2mn.RegionCount(nil), v.regions...), true
}

func (f *sseFake) handleWatch(w http.ResponseWriter, r *http.Request) {
	venue := r.PathValue("venue")
	sub := f.hub.Subscribe([]string{venue}, 0)
	defer sub.Close()
	gen, regions, ok := f.state(venue)
	if !ok {
		httpapi.WriteJSON(w, http.StatusNotFound, map[string]httpapi.WireError{"error": {
			Code: "unknown_venue", Message: "unknown venue " + venue,
		}})
		return
	}
	f.mu.Lock()
	silent := f.silentStreams > 0
	if silent {
		f.silentStreams--
	}
	badID := f.badIDStreams > 0
	if badID {
		f.badIDStreams--
	}
	hb := f.heartbeat
	f.mu.Unlock()
	sw, err := notify.NewSSEWriter(w, 0)
	if err != nil {
		return
	}
	if badID {
		sw.Event("snapshot", "not a composite id", notify.SnapshotData{
			Kind: "popular-regions", K: len(regions), Scanned: []string{venue}, Regions: regions,
		})
		<-r.Context().Done()
		return
	}
	answer := notify.Answer{Kind: "popular-regions", Regions: regions}
	id := notify.VenueEventID(venue, gen)
	if last := r.Header.Get("Last-Event-ID"); last != id {
		if sw.Event("snapshot", id, notify.SnapshotData{
			Kind: "popular-regions", K: len(regions), Scanned: []string{venue}, Regions: regions,
		}) != nil {
			return
		}
	}
	if silent {
		<-r.Context().Done()
		return
	}
	var hbCh <-chan time.Time
	if hb > 0 {
		t := time.NewTicker(hb)
		defer t.Stop()
		hbCh = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hbCh:
			if sw.Comment("hb") != nil {
				return
			}
		case <-sub.Ready():
			sub.Take()
			gen, regions, ok := f.state(venue)
			if !ok {
				sw.Event("goodbye", id, notify.GoodbyeData{Reason: notify.ReasonUnknownVenue})
				return
			}
			nid := notify.VenueEventID(venue, gen)
			if nid == id {
				continue
			}
			next := notify.Answer{Kind: "popular-regions", Regions: regions}
			d := notify.Diff(answer, next)
			if d.Empty() {
				continue
			}
			if sw.Event("delta", nid, d) != nil {
				return
			}
			answer, id = next, nid
		}
	}
}

type routerSSEEvent struct {
	ev  notify.Event
	err error
}

type routerSSEConn struct {
	cancel context.CancelFunc
	events chan routerSSEEvent
}

func dialRouterWatch(t *testing.T, url, lastID string) *routerSSEConn {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("router watch status = %s", resp.Status)
	}
	c := &routerSSEConn{cancel: cancel, events: make(chan routerSSEEvent, 64)}
	go func() {
		defer resp.Body.Close()
		er := notify.NewEventReader(resp.Body)
		for {
			ev, err := er.Next()
			c.events <- routerSSEEvent{ev, err}
			if err != nil {
				return
			}
		}
	}()
	t.Cleanup(c.cancel)
	return c
}

func (c *routerSSEConn) nextData(t *testing.T, timeout time.Duration) (notify.Event, bool) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case e := <-c.events:
			if e.err != nil {
				return notify.Event{}, false
			}
			if e.ev.IsComment() {
				continue
			}
			return e.ev, true
		case <-deadline:
			return notify.Event{}, false
		}
	}
}

func regionsJSON(t *testing.T, rcs []c2mn.RegionCount) string {
	t.Helper()
	buf, err := json.Marshal(rcs)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func foldRouterEvent(t *testing.T, answer notify.Answer, ev notify.Event) notify.Answer {
	t.Helper()
	switch ev.Name {
	case "snapshot", "resync":
		var snap notify.SnapshotData
		if err := json.Unmarshal(ev.Data, &snap); err != nil {
			t.Fatalf("bad %s payload %s: %v", ev.Name, ev.Data, err)
		}
		return notify.Answer{Kind: snap.Kind, Regions: snap.Regions, Pairs: snap.Pairs}
	case "delta":
		var d notify.DeltaData
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			t.Fatalf("bad delta payload %s: %v", ev.Data, err)
		}
		return notify.Apply(answer, d)
	}
	t.Fatalf("unexpected event %q", ev.Name)
	return answer
}

func TestRouterWatchMergesAcrossBackends(t *testing.T) {
	a, b := newSSEFake(t), newSSEFake(t)
	a.set("north", 1, []c2mn.RegionCount{{Region: 1, Count: 30}, {Region: 2, Count: 10}})
	b.set("south", 1, []c2mn.RegionCount{{Region: 2, Count: 25}, {Region: 3, Count: 5}})

	cfg := Config{Backends: []string{a.srv.URL, b.srv.URL}, WatchHeartbeat: 50 * time.Millisecond}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := routerServer(t, rt)

	c := dialRouterWatch(t, ts.URL+"/v1/watch?venues=north,south&k=2", "")
	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v ok=%v", ev, ok)
	}
	answer := foldRouterEvent(t, notify.Answer{}, ev)
	// Exact merge: region 2 sums 10+25=35 and leads, region 1 at 30;
	// truncation to k=2 happens AFTER the merge.
	want := []c2mn.RegionCount{{Region: 2, Count: 35}, {Region: 1, Count: 30}}
	if regionsJSON(t, answer.Regions) != regionsJSON(t, want) {
		t.Fatalf("merged snapshot = %s, want %s", regionsJSON(t, answer.Regions), regionsJSON(t, want))
	}
	wantID := notify.EncodeEventID(map[string]uint64{"north": 1, "south": 1})
	if ev.ID != wantID {
		t.Fatalf("snapshot id = %q, want %q", ev.ID, wantID)
	}

	// A write on one backend pushes a delta that folds to the new merge.
	b.set("south", 2, []c2mn.RegionCount{{Region: 2, Count: 25}, {Region: 3, Count: 40}})
	ev, ok = c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "delta" {
		t.Fatalf("after write: %+v ok=%v", ev, ok)
	}
	answer = foldRouterEvent(t, answer, ev)
	want = []c2mn.RegionCount{{Region: 3, Count: 40}, {Region: 2, Count: 35}}
	if regionsJSON(t, answer.Regions) != regionsJSON(t, want) {
		t.Fatalf("folded = %s, want %s", regionsJSON(t, answer.Regions), regionsJSON(t, want))
	}
	wantID = notify.EncodeEventID(map[string]uint64{"north": 1, "south": 2})
	if ev.ID != wantID {
		t.Fatalf("delta id = %q, want %q", ev.ID, wantID)
	}

	// Resume with the current composite, then write: whether the write
	// lands before or after the router finishes re-assembling its folds
	// decides between a skipped snapshot + delta and a fresh snapshot —
	// both are contract-valid; what must hold is the folded answer and
	// its id.
	c2c := dialRouterWatch(t, ts.URL+"/v1/watch?venues=north,south&k=2", ev.ID)
	a.set("north", 2, []c2mn.RegionCount{{Region: 1, Count: 60}})
	want = []c2mn.RegionCount{{Region: 1, Count: 60}, {Region: 3, Count: 40}}
	wantID = notify.EncodeEventID(map[string]uint64{"north": 2, "south": 2})
	resumed := answer
	deadline := time.Now().Add(5 * time.Second)
	for regionsJSON(t, resumed.Regions) != regionsJSON(t, want) {
		ev2, ok := c2c.nextData(t, time.Until(deadline))
		if !ok {
			t.Fatalf("resumed stream never converged; folded %s", regionsJSON(t, resumed.Regions))
		}
		resumed = foldRouterEvent(t, resumed, ev2)
		if regionsJSON(t, resumed.Regions) == regionsJSON(t, want) && ev2.ID != wantID {
			t.Fatalf("converged with id %q, want %q", ev2.ID, wantID)
		}
	}
}

func TestRouterWatchSurvivesMigration(t *testing.T) {
	a, b := newSSEFake(t), newSSEFake(t)
	a.set("m", 1, []c2mn.RegionCount{{Region: 1, Count: 10}})

	cfg := Config{Backends: []string{a.srv.URL, b.srv.URL}, WatchHeartbeat: 50 * time.Millisecond}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := routerServer(t, rt)

	c := dialRouterWatch(t, ts.URL+"/v1/venues/m/watch?k=5", "")
	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v ok=%v", ev, ok)
	}
	answer := foldRouterEvent(t, notify.Answer{}, ev)

	// Migrate: restore on the target with the generation jump a real
	// snapshot restore performs, pin ownership there, then retire the
	// source copy (whose stream says goodbye unknown_venue).
	const genJump = uint64(1) << 32
	b.set("m", 1+genJump, []c2mn.RegionCount{{Region: 1, Count: 10}, {Region: 2, Count: 4}})
	pin, err := json.Marshal(map[string]string{"venue": "m", "backend": b.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/admin/pins", "application/json", strings.NewReader(string(pin)))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pin: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	rt.CheckNow(context.Background())
	a.remove("m")

	// The relay re-resolves ownership and resumes from the target; the
	// jumped generation forces a fresh upstream snapshot, which reaches
	// the client as the delta (or resync) that makes its fold exact.
	deadline := time.Now().Add(10 * time.Second)
	want := []c2mn.RegionCount{{Region: 1, Count: 10}, {Region: 2, Count: 4}}
	wantID := notify.EncodeEventID(map[string]uint64{"m": 1 + genJump})
	for {
		if regionsJSON(t, answer.Regions) == regionsJSON(t, want) {
			break
		}
		ev, ok := c.nextData(t, time.Until(deadline))
		if !ok {
			t.Fatalf("stream ended before converging; folded %s", regionsJSON(t, answer.Regions))
		}
		if ev.Name == "goodbye" {
			t.Fatalf("client stream got goodbye during migration: %s", ev.Data)
		}
		answer = foldRouterEvent(t, answer, ev)
		if regionsJSON(t, answer.Regions) == regionsJSON(t, want) && ev.ID != wantID {
			t.Fatalf("converged with id %q, want %q", ev.ID, wantID)
		}
	}
}

// A backend that wedges — stops producing frames without closing the
// connection (SIGSTOP, half-open TCP after a crash) — must not park
// the relay forever: the idle watchdog abandons the silent stream and
// resubscribes, and the reconnected stream catches the write the
// wedged one swallowed.
func TestRouterWatchAbandonsSilentUpstream(t *testing.T) {
	a := newSSEFake(t)
	a.set("s", 1, []c2mn.RegionCount{{Region: 1, Count: 5}})

	rt, err := New(Config{
		Backends:         []string{a.srv.URL},
		WatchHeartbeat:   50 * time.Millisecond,
		WatchIdleTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := routerServer(t, rt)

	a.mu.Lock()
	a.silentStreams = 1
	a.mu.Unlock()
	c := dialRouterWatch(t, ts.URL+"/v1/venues/s/watch?k=5", "")
	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v ok=%v", ev, ok)
	}
	answer := foldRouterEvent(t, notify.Answer{}, ev)

	// The wedged stream never sees this write; only a relay that gave
	// up on it and resubscribed can deliver it.
	a.set("s", 2, []c2mn.RegionCount{{Region: 1, Count: 5}, {Region: 2, Count: 9}})
	want := []c2mn.RegionCount{{Region: 2, Count: 9}, {Region: 1, Count: 5}}
	wantID := notify.EncodeEventID(map[string]uint64{"s": 2})
	deadline := time.Now().Add(10 * time.Second)
	for regionsJSON(t, answer.Regions) != regionsJSON(t, want) {
		ev, ok := c.nextData(t, time.Until(deadline))
		if !ok {
			t.Fatalf("stream never recovered from the silent upstream; folded %s", regionsJSON(t, answer.Regions))
		}
		answer = foldRouterEvent(t, answer, ev)
		if regionsJSON(t, answer.Regions) == regionsJSON(t, want) && ev.ID != wantID {
			t.Fatalf("converged with id %q, want %q", ev.ID, wantID)
		}
	}
}

// A relay connected to a backend that lost ownership but still hosts
// the venue — and keeps heartbeating its frozen copy — must notice the
// owner change and resubscribe. Stream end never comes here; only the
// watchdog's ownership recheck can unpark it.
func TestRouterWatchRepinUnparksStream(t *testing.T) {
	a, b := newSSEFake(t), newSSEFake(t)
	a.set("p", 1, []c2mn.RegionCount{{Region: 1, Count: 7}})
	b.set("p", 1, []c2mn.RegionCount{{Region: 1, Count: 7}})
	a.mu.Lock()
	a.heartbeat = 20 * time.Millisecond // the stale stream stays visibly alive
	a.mu.Unlock()

	rt, err := New(Config{
		Backends:         []string{a.srv.URL, b.srv.URL},
		WatchHeartbeat:   50 * time.Millisecond,
		WatchIdleTimeout: time.Second, // heartbeats outpace it: idle can't fire
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := routerServer(t, rt)
	pinVenue(t, ts.URL, "p", a.srv.URL)

	c := dialRouterWatch(t, ts.URL+"/v1/venues/p/watch?k=5", "")
	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v ok=%v", ev, ok)
	}
	answer := foldRouterEvent(t, notify.Answer{}, ev)

	// Move ownership to b without touching a: a's copy stays loaded and
	// heartbeating, exactly the shape that parked relays before the
	// ownership recheck existed.
	b.set("p", 2, []c2mn.RegionCount{{Region: 1, Count: 7}, {Region: 3, Count: 2}})
	pinVenue(t, ts.URL, "p", b.srv.URL)
	rt.CheckNow(context.Background())

	want := []c2mn.RegionCount{{Region: 1, Count: 7}, {Region: 3, Count: 2}}
	wantID := notify.EncodeEventID(map[string]uint64{"p": 2})
	deadline := time.Now().Add(10 * time.Second)
	for regionsJSON(t, answer.Regions) != regionsJSON(t, want) {
		ev, ok := c.nextData(t, time.Until(deadline))
		if !ok {
			t.Fatalf("stream never followed the re-pin; folded %s", regionsJSON(t, answer.Regions))
		}
		answer = foldRouterEvent(t, answer, ev)
		if regionsJSON(t, answer.Regions) == regionsJSON(t, want) && ev.ID != wantID {
			t.Fatalf("converged with id %q, want %q", ev.ID, wantID)
		}
	}
}

// An upstream event whose id does not parse is a protocol error: the
// relay must drop that stream and resubscribe for a fresh, validated
// snapshot instead of folding bytes whose generation is unknown. The
// client's first data event carries the good composite — nothing
// stamped with (or folded past) the garbage id ever reaches it.
func TestRouterWatchResubscribesOnUnparseableUpstreamID(t *testing.T) {
	a := newSSEFake(t)
	a.set("x", 1, []c2mn.RegionCount{{Region: 1, Count: 8}})
	a.mu.Lock()
	a.badIDStreams = 1
	a.mu.Unlock()

	rt, err := New(Config{Backends: []string{a.srv.URL}, WatchHeartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := routerServer(t, rt)

	c := dialRouterWatch(t, ts.URL+"/v1/venues/x/watch?k=5", "")
	ev, ok := c.nextData(t, 10*time.Second)
	if !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v ok=%v", ev, ok)
	}
	if want := notify.EncodeEventID(map[string]uint64{"x": 1}); ev.ID != want {
		t.Fatalf("snapshot id = %q, want %q (the validated resubscription's)", ev.ID, want)
	}
	answer := foldRouterEvent(t, notify.Answer{}, ev)
	want := []c2mn.RegionCount{{Region: 1, Count: 8}}
	if regionsJSON(t, answer.Regions) != regionsJSON(t, want) {
		t.Fatalf("snapshot = %s, want %s", regionsJSON(t, answer.Regions), regionsJSON(t, want))
	}
}

// A watched venue whose backend is down and stays down must not leave
// the client stream heartbeating forever with no data: the initial
// gather is bounded, and past the deadline the stream ends with a
// terminal goodbye so the client can retry — matching the poll path,
// which would have returned an error.
func TestRouterWatchBoundsInitialGather(t *testing.T) {
	a := newSSEFake(t)
	a.set("down", 1, []c2mn.RegionCount{{Region: 1, Count: 2}})

	rt, err := New(Config{
		Backends:            []string{a.srv.URL},
		WatchHeartbeat:      50 * time.Millisecond,
		WatchConnectTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	a.srv.Close() // the owner is discovered, then dies before the subscribe

	ts := routerServer(t, rt)
	c := dialRouterWatch(t, ts.URL+"/v1/venues/down/watch?k=5", "")
	ev, ok := c.nextData(t, 10*time.Second)
	if !ok || ev.Name != "goodbye" {
		t.Fatalf("event = %+v ok=%v, want a bounded-gather goodbye", ev, ok)
	}
	var g notify.GoodbyeData
	if err := json.Unmarshal(ev.Data, &g); err != nil || g.Reason != notify.ReasonError {
		t.Fatalf("goodbye payload %s", ev.Data)
	}
}

func pinVenue(t *testing.T, routerURL, venue, backend string) {
	t.Helper()
	body, err := json.Marshal(map[string]string{"venue": venue, "backend": backend})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/admin/pins", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin %s -> %s: %s", venue, backend, resp.Status)
	}
}

func TestRouterWatchVenueGoneSaysGoodbye(t *testing.T) {
	a := newSSEFake(t)
	a.set("solo", 1, []c2mn.RegionCount{{Region: 1, Count: 3}})
	rt, err := New(Config{Backends: []string{a.srv.URL}, WatchHeartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := routerServer(t, rt)

	c := dialRouterWatch(t, ts.URL+"/v1/venues/solo/watch", "")
	if ev, ok := c.nextData(t, 5*time.Second); !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v", ev)
	}
	a.remove("solo")
	// goneAfter consecutive unknown answers end the stream with a
	// terminal goodbye rather than silent reconnect churn.
	ev, ok := c.nextData(t, 15*time.Second)
	if !ok || ev.Name != "goodbye" {
		t.Fatalf("after unload: %+v ok=%v, want goodbye", ev, ok)
	}
	var g notify.GoodbyeData
	if err := json.Unmarshal(ev.Data, &g); err != nil || g.Reason != notify.ReasonUnknownVenue {
		t.Fatalf("goodbye payload %s", ev.Data)
	}
}

func TestRouterStopWatchesSaysGoodbyeDraining(t *testing.T) {
	a := newSSEFake(t)
	a.set("v", 1, []c2mn.RegionCount{{Region: 1, Count: 3}})
	rt, err := New(Config{Backends: []string{a.srv.URL}, WatchHeartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := routerServer(t, rt)

	c := dialRouterWatch(t, ts.URL+"/v1/venues/v/watch", "")
	if ev, ok := c.nextData(t, 5*time.Second); !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v", ev)
	}
	rt.StopWatches()
	rt.StopWatches() // idempotent
	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "goodbye" {
		t.Fatalf("after StopWatches: %+v ok=%v", ev, ok)
	}
	var g notify.GoodbyeData
	if err := json.Unmarshal(ev.Data, &g); err != nil || g.Reason != notify.ReasonDraining {
		t.Fatalf("goodbye payload %s", ev.Data)
	}
}

func TestRouterIntrospectionNoStore(t *testing.T) {
	a := newFakeBackend(t)
	a.venues["v"] = &fakeVenue{Regions: []c2mn.RegionCount{{Region: 1, Count: 2}}}
	rt := testRouter(t, Config{}, a)
	ts := routerServer(t, rt)
	for _, path := range []string{"/v1/stats", "/v1/venues", "/healthz", "/readyz", "/v1/admin/backends", "/v1/admin/assignments"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", path, cc)
		}
	}
}
