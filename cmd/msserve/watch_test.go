package main

// Tests for the continuous-query push plane: snapshot/delta exactness
// against the polling endpoints, Last-Event-ID resume, heartbeats,
// drain and unload goodbyes — and the replay property at the heart of
// the design: any interleaving of feed events, dropped connections and
// resumes folds to the same answer as one uninterrupted subscription.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/notify"
)

// watchTestServer stands msserve up with the change-feed hub actually
// wired to the venue stores, the way main() does it.
func watchTestServer(t *testing.T, hb time.Duration, venues ...string) (*httptest.Server, chan struct{}, []c2mn.LabeledSequence) {
	t.Helper()
	ann, test := testParts(t)
	hub := notify.NewHub()
	registry, err := c2mn.NewVenueRegistry(
		c2mn.WithVenueDefaults(
			c2mn.WithPreprocess(testEta, testPsi),
			c2mn.WithChangeNotifier(hub.Publish),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range venues {
		if _, err := registry.Register(id, ann); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "",
		withWatchHub(hub), withWatchHeartbeat(hb), withWatchShutdown(stop)))
	t.Cleanup(ts.Close)
	return ts, stop, test
}

type sseEvent struct {
	ev  notify.Event
	err error
}

// sseConn is a test SSE client: a pump goroutine parses the stream into
// a channel so reads can time out without leaking readers.
type sseConn struct {
	cancel context.CancelFunc
	events chan sseEvent
}

func dialWatch(t *testing.T, url, lastID string) *sseConn {
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
		t.Fatalf("watch status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		cancel()
		t.Fatalf("watch Content-Type = %q", ct)
	}
	c := &sseConn{cancel: cancel, events: make(chan sseEvent, 64)}
	go func() {
		defer resp.Body.Close()
		er := notify.NewEventReader(resp.Body)
		for {
			ev, err := er.Next()
			c.events <- sseEvent{ev, err}
			if err != nil {
				return
			}
		}
	}()
	t.Cleanup(c.close)
	return c
}

func (c *sseConn) close() { c.cancel() }

// nextData returns the next data-bearing event, skipping heartbeats.
func (c *sseConn) nextData(t *testing.T, timeout time.Duration) (notify.Event, bool) {
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

// foldedState is a client's view of a standing query: the last event id
// it acknowledged and the answer folded up to it.
type foldedState struct {
	id     string
	answer notify.Answer
}

// fold applies one event to the state per the wire contract.
func (st *foldedState) fold(t *testing.T, ev notify.Event) {
	t.Helper()
	switch ev.Name {
	case "snapshot", "resync":
		var snap notify.SnapshotData
		if err := json.Unmarshal(ev.Data, &snap); err != nil {
			t.Fatalf("bad %s payload %s: %v", ev.Name, ev.Data, err)
		}
		st.answer = notify.Answer{Kind: snap.Kind, Regions: snap.Regions, Pairs: snap.Pairs}
	case "delta":
		var d notify.DeltaData
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			t.Fatalf("bad delta payload %s: %v", ev.Data, err)
		}
		st.answer = notify.Apply(st.answer, d)
	default:
		t.Fatalf("unexpected event %q", ev.Name)
	}
	st.id = ev.ID
}

func answerJSON(t *testing.T, a notify.Answer) string {
	t.Helper()
	buf, err := json.Marshal(struct {
		Regions []c2mn.RegionCount `json:"regions,omitempty"`
		Pairs   []c2mn.PairCount   `json:"pairs,omitempty"`
	}{a.Regions, a.Pairs})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// pollReference polls the one-shot sugar and returns its answer plus
// the unquoted ETag — the composite generation watch events carry.
func pollReference(t *testing.T, url string) (notify.Answer, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference poll: %s", resp.Status)
	}
	etag := strings.Trim(resp.Header.Get("ETag"), `"`)
	rows := decodeBody[[]regionCountResponse](t, resp)
	a := notify.Answer{Kind: string(c2mn.QueryPopularRegions)}
	for _, rc := range rows {
		a.Regions = append(a.Regions, c2mn.RegionCount{Region: c2mn.RegionID(rc.Region), Count: rc.Count})
	}
	return a, etag
}

func feedObject(t *testing.T, base, venue, object string, records []c2mn.Record) {
	t.Helper()
	resp := postJSON(t, base+"/v1/venues/"+venue+"/feed", sequenceRequest{
		ObjectID: object, Records: toWire(records),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed: %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, base+"/v1/venues/"+venue+"/flush?venue="+venue, struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %s", resp.Status)
	}
	resp.Body.Close()
}

// settle folds events until the client state matches the reference
// answer (the stream may deliver the change as several deltas).
func settle(t *testing.T, c *sseConn, st *foldedState, want notify.Answer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if answerJSON(t, st.answer) == answerJSON(t, want) {
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			t.Fatalf("stream never reached the reference answer:\nfolded %s\nwant   %s",
				answerJSON(t, st.answer), answerJSON(t, want))
		}
		ev, ok := c.nextData(t, remaining)
		if !ok {
			t.Fatalf("stream ended while %s still != %s", answerJSON(t, st.answer), answerJSON(t, want))
		}
		st.fold(t, ev)
	}
}

func TestWatchSnapshotAndDeltaMatchPolling(t *testing.T) {
	ts, _, test := watchTestServer(t, time.Minute, "w")
	refURL := ts.URL + "/v1/venues/w/query/popular-regions?k=5"

	feedObject(t, ts.URL, "w", "seed", test[0].P.Records)
	wantRef, wantID := pollReference(t, refURL)

	c := dialWatch(t, ts.URL+"/v1/venues/w/watch?k=5", "")
	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v ok=%v, want snapshot", ev, ok)
	}
	var st foldedState
	st.fold(t, ev)
	if st.id != wantID {
		t.Fatalf("snapshot id %q != polled ETag %q", st.id, wantID)
	}
	if answerJSON(t, st.answer) != answerJSON(t, wantRef) {
		t.Fatalf("snapshot answer diverges from poll:\n got %s\nwant %s",
			answerJSON(t, st.answer), answerJSON(t, wantRef))
	}

	// A store mutation pushes deltas that fold to the fresh poll.
	feedObject(t, ts.URL, "w", "step", test[1].P.Records)
	wantRef2, wantID2 := pollReference(t, refURL)
	settle(t, c, &st, wantRef2)
	if st.id != wantID2 {
		t.Fatalf("folded id %q != polled ETag %q", st.id, wantID2)
	}

	// Reconnecting with the current composite resumes without a
	// snapshot: the next data event is the NEXT change, not a replay.
	c2 := dialWatch(t, ts.URL+"/v1/venues/w/watch?k=5", st.id)
	feedObject(t, ts.URL, "w", "step2", test[2].P.Records)
	wantRef3, _ := pollReference(t, refURL)
	ev2, ok := c2.nextData(t, 10*time.Second)
	if !ok {
		t.Fatal("no event after resume")
	}
	if ev2.Name == "snapshot" {
		t.Fatalf("resume with matching Last-Event-ID replayed a snapshot")
	}
	st2 := foldedState{id: st.id, answer: st.answer}
	st2.fold(t, ev2)
	settle(t, c2, &st2, wantRef3)
}

func TestWatchFleetScope(t *testing.T) {
	ts, _, test := watchTestServer(t, time.Minute, "north", "south")
	refURL := ts.URL + "/v1/query/popular-regions?scope=fleet&k=5"

	feedObject(t, ts.URL, "north", "n0", test[0].P.Records)
	c := dialWatch(t, ts.URL+"/v1/watch?scope=fleet&k=5", "")
	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v, want snapshot", ev)
	}
	var st foldedState
	st.fold(t, ev)

	// A write to the OTHER venue must reach a fleet-scoped stream.
	feedObject(t, ts.URL, "south", "s0", test[1].P.Records)
	want, wantID := pollReference(t, refURL)
	settle(t, c, &st, want)
	if st.id != wantID {
		t.Fatalf("fleet folded id %q != polled ETag %q", st.id, wantID)
	}
}

// TestWatchReplayProperty is the exactness property: a subscriber that
// suffers random disconnects and resumes via Last-Event-ID folds to
// the same answer as an uninterrupted subscription, and both equal the
// polling reference at every quiescent point.
func TestWatchReplayProperty(t *testing.T) {
	ts, _, test := watchTestServer(t, time.Minute, "w")
	watchURL := ts.URL + "/v1/venues/w/watch?k=5"
	refURL := ts.URL + "/v1/venues/w/query/popular-regions?k=5"

	rng := rand.New(rand.NewSource(7))
	steady := dialWatch(t, watchURL, "")
	var steadyState foldedState
	flaky := dialWatch(t, watchURL, "")
	var flakyState foldedState

	for step, ls := range test {
		if step > 0 && rng.Intn(2) == 0 {
			// Drop the flaky connection mid-run; resume from its folded id.
			flaky.close()
			flaky = dialWatch(t, watchURL, flakyState.id)
		}
		feedObject(t, ts.URL, "w", fmt.Sprintf("obj-%d", step), ls.P.Records)
		want, wantID := pollReference(t, refURL)
		settle(t, steady, &steadyState, want)
		settle(t, flaky, &flakyState, want)
		if steadyState.id != wantID || flakyState.id != wantID {
			t.Fatalf("step %d: ids steady=%q flaky=%q, want %q",
				step, steadyState.id, flakyState.id, wantID)
		}
	}
	if answerJSON(t, steadyState.answer) != answerJSON(t, flakyState.answer) {
		t.Fatalf("final answers diverge:\nsteady %s\nflaky  %s",
			answerJSON(t, steadyState.answer), answerJSON(t, flakyState.answer))
	}
}

func TestWatchHeartbeatAndDrainGoodbye(t *testing.T) {
	ts, stop, test := watchTestServer(t, 50*time.Millisecond, "w")
	feedObject(t, ts.URL, "w", "seed", test[0].P.Records)

	c := dialWatch(t, ts.URL+"/v1/venues/w/watch", "")
	if ev, ok := c.nextData(t, 5*time.Second); !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v", ev)
	}
	// Heartbeats flow while the store is quiet.
	gotHB := false
	deadline := time.After(2 * time.Second)
	for !gotHB {
		select {
		case e := <-c.events:
			if e.err != nil {
				t.Fatalf("stream error before heartbeat: %v", e.err)
			}
			if e.ev.IsComment() {
				gotHB = true
			}
		case <-deadline:
			t.Fatal("no heartbeat within 2s at a 50ms cadence")
		}
	}

	// Drain: every open stream says goodbye(draining) and ends.
	close(stop)
	for {
		e := <-c.events
		if e.err != nil {
			t.Fatal("stream ended without a goodbye")
		}
		if e.ev.IsComment() {
			continue
		}
		if e.ev.Name != "goodbye" {
			t.Fatalf("event %q after drain, want goodbye", e.ev.Name)
		}
		var g notify.GoodbyeData
		if err := json.Unmarshal(e.ev.Data, &g); err != nil || g.Reason != notify.ReasonDraining {
			t.Fatalf("goodbye payload %s", e.ev.Data)
		}
		break
	}
}

func TestWatchUnloadGoodbye(t *testing.T) {
	ts, _, test := watchTestServer(t, time.Minute, "w")
	feedObject(t, ts.URL, "w", "seed", test[0].P.Records)
	c := dialWatch(t, ts.URL+"/v1/venues/w/watch", "")
	if ev, ok := c.nextData(t, 5*time.Second); !ok || ev.Name != "snapshot" {
		t.Fatalf("first event = %+v", ev)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/venues/w", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unload: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	ev, ok := c.nextData(t, 5*time.Second)
	if !ok || ev.Name != "goodbye" {
		t.Fatalf("after unload: %+v ok=%v, want goodbye", ev, ok)
	}
	var g notify.GoodbyeData
	if err := json.Unmarshal(ev.Data, &g); err != nil || g.Reason != notify.ReasonUnknownVenue {
		t.Fatalf("goodbye payload %s", ev.Data)
	}
}

func TestWatchUnknownVenueFailsBeforeStreaming(t *testing.T) {
	ts, _, _ := watchTestServer(t, time.Minute, "w")
	resp, err := http.Get(ts.URL + "/v1/venues/nope/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown venue watch = %s, want 404", resp.Status)
	}
}

func TestIntrospectionResponsesAreNoStore(t *testing.T) {
	ts, _, _ := watchTestServer(t, time.Minute, "w")
	for _, path := range []string{"/v1/stats", "/v1/venues", "/v1/venues/w/stats", "/healthz", "/readyz", "/v1/readyz"} {
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
