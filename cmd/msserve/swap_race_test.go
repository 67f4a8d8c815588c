package main

// Race test for the hot-swap path: a retraining cycle installs a new
// model while /feed, /v1/query and /v1/watch traffic hammers the same
// venue. Run under -race this pins the registry swap, the engine
// labeled sink, the snapshot-cache forget and the watch-hub
// invalidation against the serving hot paths. The feeders post fresh
// object IDs without flushing, so no sequence completes mid-test and
// the shadow holdout stays pure operator truth — the swap outcome is
// deterministic even with traffic racing the cycle.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/httpapi"
	"c2mn/internal/notify"
)

func TestHotSwapUnderConcurrentTraffic(t *testing.T) {
	ann, _ := testParts(t)
	space := ann.Space()
	data := retrainTestData(t, space)
	weak, err := c2mn.Train(space, data[:2], c2mn.TrainOptions{V: 6, Exact: true, MaxIter: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	hub := notify.NewHub()
	registry, err := c2mn.NewVenueRegistry(
		c2mn.WithVenueDefaults(
			c2mn.WithPreprocess(testEta, testPsi),
			c2mn.WithChangeNotifier(hub.Publish),
		),
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
	stop := make(chan struct{})
	// Heartbeat sizes the SSE frame-write deadline (3×hb): keep it
	// roomy — the cycle's training saturates the CPU (more so under
	// -race) and a starved write must not tear the stream down.
	ts := httptest.NewServer(newServer(registry, defaultMaxBody, "sesame",
		withWatchHub(hub), withWatchHeartbeat(time.Second), withWatchShutdown(stop)))
	t.Cleanup(ts.Close)

	// Watch subscriber: drain continuously so the server-side writer
	// never backs up, and flag the resync the swap must broadcast.
	watcher := dialWatch(t, ts.URL+"/v1/watch?scope=fleet&k=3", "")
	resync := make(chan struct{})
	consumerDone := make(chan struct{})
	// Read the raw pump channel, not nextData: the cycle's training can
	// run for tens of seconds with only heartbeats on the wire, and a
	// fixed nextData deadline would misread that silence as a dead
	// stream. The pump's error event (sent when the conn closes) ends
	// the loop instead.
	go func() {
		defer close(consumerDone)
		flagged := false
		for e := range watcher.events {
			if e.err != nil {
				return
			}
			if e.ev.Name == "resync" && !flagged {
				flagged = true
				close(resync)
			}
		}
	}()

	done := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr sync.Once
	fail := func(format string, args ...any) {
		firstErr.Do(func() { t.Errorf(format, args...) })
	}

	allTime := c2mn.Window{Start: 0, End: 1e18}
	for w := 0; w < 2; w++ {
		// Feeders: fresh object IDs, full record sets, never flushed —
		// the ingestion path races the swap without completing anything.
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ls := data[i%len(data)]
				resp := postJSON(t, ts.URL+"/v1/venues/default/feed", sequenceRequest{
					ObjectID: fmt.Sprintf("race-%d-%d", worker, i),
					Records:  toWire(ls.P.Records),
				})
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					fail("concurrent feed: %d", resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)

		// Queriers: live fleet queries must answer throughout the swap.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp := postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: c2mn.Query{
					Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet,
					Window: &allTime, K: 3,
				}})
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("concurrent query: %d", resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// With traffic in flight: ground truth in, cycle, swap.
	resp := doReq(t, "POST", ts.URL+"/v1/admin/venues/default/feedback", "sesame",
		retrainRequest{Data: func() []labeledSequenceWire {
			out := make([]labeledSequenceWire, len(data))
			for i, ls := range data {
				out[i] = toWireLabeled(ls)
			}
			return out
		}()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback under traffic: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doReq(t, "POST", ts.URL+"/v1/admin/venues/default/retrain", "sesame", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain under traffic: %d", resp.StatusCode)
	}
	out := decodeBody[struct {
		Decision c2mn.RetrainDecision `json:"decision"`
	}](t, resp)
	if out.Decision.Outcome != c2mn.RetrainSwapped {
		t.Fatalf("outcome %q (inc CA %.3f vs cand CA %.3f), want swapped",
			out.Decision.Outcome, out.Decision.IncumbentCA, out.Decision.CandidateCA)
	}

	// Let traffic keep racing the freshly swapped engine briefly.
	time.Sleep(100 * time.Millisecond)
	close(done)
	wg.Wait()

	// The swap broadcast a resync to the standing watch.
	select {
	case <-resync:
	case <-time.After(5 * time.Second):
		t.Fatal("watch subscriber never saw the swap's resync")
	}
	watcher.close()
	<-consumerDone

	// The surface is still coherent on the new model: ingestion
	// completes, queries answer, and the identity reflects the swap.
	resp = postJSON(t, ts.URL+"/v1/venues/default/feed", sequenceRequest{
		ObjectID: "post-swap", Records: toWire(data[0].P.Records),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap feed: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/flush", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap flush: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/query", httpapi.QueryRequest{Query: c2mn.Query{
		Kind: c2mn.QueryPopularRegions, Scope: c2mn.ScopeFleet,
		Window: &allTime, K: 3,
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap query: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/venues/default/model")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody[c2mn.ModelInfo](t, resp)
	if info.SwapCount != 1 || info.ModelHash != out.Decision.ModelHash {
		t.Fatalf("model identity after swap under traffic: %+v (decision hash %s)",
			info, out.Decision.ModelHash)
	}
}
