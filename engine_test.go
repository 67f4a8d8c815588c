package c2mn

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestAnnotateAllCtxDeterministicOrdering(t *testing.T) {
	a, test := testAnnotator(t)
	var ps []PSequence
	for len(ps) < 24 {
		for i := range test {
			ps = append(ps, test[i].P)
		}
	}
	ps = ps[:24]

	serialEng, err := NewEngine(a, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallelEng, err := NewEngine(a, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	serial, err := serialEng.AnnotateAllCtx(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parallelEng.AnnotateAllCtx(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker pool changed batch results")
	}
	// Slot i holds sequence i's result regardless of scheduling.
	for i := range ps {
		_, want, err := a.Annotate(&ps[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel[i], want) {
			t.Fatalf("out[%d] does not match direct annotation", i)
		}
	}
	// The no-ctx facade rides the same pool.
	all, err := a.AnnotateAll(ps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, serial) {
		t.Fatalf("AnnotateAll disagrees with AnnotateAllCtx")
	}
}

func TestAnnotateAllCtxCancellation(t *testing.T) {
	a, test := testAnnotator(t)

	// Already-canceled context: immediate typed error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AnnotateAllCtx(ctx, []PSequence{test[0].P}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want ErrCanceled", err)
	}
	if _, _, err := a.AnnotateCtx(ctx, &test[0].P); !errors.Is(err, ErrCanceled) {
		t.Fatalf("AnnotateCtx pre-canceled: err = %v", err)
	}

	// Mid-batch cancellation: a batch far too large to finish quickly,
	// canceled shortly after it starts, must stop promptly with the
	// sentinel rather than running to completion.
	big := make([]PSequence, 0, 2000)
	for len(big) < 2000 {
		big = append(big, test[len(big)%len(test)].P)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err := a.AnnotateAllCtx(ctx2, big)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-batch cancel: err = %v, want ErrCanceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
}

func TestTypedSentinelErrors(t *testing.T) {
	a, test := testAnnotator(t)
	if _, err := NewEngine(nil); !errors.Is(err, ErrNoModel) {
		t.Errorf("NewEngine(nil) err = %v, want ErrNoModel", err)
	}
	empty := PSequence{ObjectID: "empty"}
	if _, _, err := a.AnnotateCtx(context.Background(), &empty); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("empty sequence err = %v, want ErrEmptySequence", err)
	}
	if _, _, err := a.AnnotateWindowedCtx(context.Background(), &empty, 16, 4); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("windowed empty sequence err = %v", err)
	}
	// Batch entry points enforce the same contract, naming the index.
	batch := []PSequence{test[0].P, empty}
	if _, err := a.AnnotateAllCtx(context.Background(), batch); !errors.Is(err, ErrEmptySequence) {
		t.Errorf("batch empty sequence err = %v, want ErrEmptySequence", err)
	}
	e, err := NewEngine(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AnnotateCtx(context.Background(), &test[0].P); err != nil {
		t.Errorf("engine annotate failed: %v", err)
	}
	if _, err := NewEngine(a, WithPreprocess(-1, 0)); err == nil {
		t.Errorf("negative eta accepted")
	}
	if _, err := NewEngine(a, WithWindowing(-1, 0)); err == nil {
		t.Errorf("negative window accepted")
	}
}

// gappedStreams rebuilds the test sequences as raw per-object record
// streams with artificial η-sized gaps so that preprocessing splits
// each stream into several fragments.
func gappedStreams(test []LabeledSequence, eta float64) map[string][]Record {
	streams := map[string][]Record{}
	for i := range test {
		id := fmt.Sprintf("obj%d", i)
		var out []Record
		shift := 0.0
		for j, r := range test[i].P.Records {
			if j > 0 && j%40 == 0 {
				shift += eta + 50
			}
			r.T += shift
			out = append(out, r)
		}
		streams[id] = out
	}
	return streams
}

func sortedMSS(mss []MSSequence) []MSSequence {
	out := append([]MSSequence(nil), mss...)
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectID < out[j].ObjectID })
	return out
}

func TestEngineFeedMatchesBatchPipeline(t *testing.T) {
	a, test := testAnnotator(t)
	const eta, psi = 120, 60
	streams := gappedStreams(test, eta)

	// Batch reference: Preprocess + AnnotateAll per object.
	var batch []MSSequence
	for id, records := range streams {
		frs := Preprocess(id, records, eta, psi)
		mss, err := a.AnnotateAll(frs)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, mss...)
	}
	if len(batch) <= len(streams) {
		t.Fatalf("workload produced no splits: %d fragments from %d objects", len(batch), len(streams))
	}

	// Streaming: records fed one at a time, round-robin across objects.
	var emitted []MSSequence
	e, err := NewEngine(a,
		WithPreprocess(eta, psi),
		WithOnSequence(func(ms MSSequence) { emitted = append(emitted, ms) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(streams))
	for id := range streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	maxLen := 0
	for _, id := range ids {
		if len(streams[id]) > maxLen {
			maxLen = len(streams[id])
		}
	}
	for j := 0; j < maxLen; j++ {
		for _, id := range ids {
			if j < len(streams[id]) {
				if err := e.Feed(id, streams[id][j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Byte-identical m-semantics, fragment IDs included.
	wantJSON, err := json.Marshal(sortedMSS(batch))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(sortedMSS(emitted))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("streaming m-semantics diverge from batch pipeline:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// The live store saw exactly the emitted sequences (modulo empties).
	if !reflect.DeepEqual(sortedMSS(e.Sequences()), sortedMSS(emitted)) {
		t.Fatalf("live store contents diverge from callback emissions")
	}

	// Live queries match batch queries over the same semantics.
	regions := a.Space().Regions()
	w := Window{Start: 0, End: 1e9}
	gotTop := e.TopKPopularRegions(regions, w, 5)
	wantTop := TopKPopularRegions(batch, regions, w, 5)
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Errorf("live TkPRQ = %v, want %v", gotTop, wantTop)
	}
	gotPairs := e.TopKFrequentPairs(regions, w, 5)
	wantPairs := TopKFrequentPairs(batch, regions, w, 5)
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Errorf("live TkFRPQ = %v, want %v", gotPairs, wantPairs)
	}

	// Counters line up with what was fed and emitted.
	st := e.Stats()
	total := 0
	for _, id := range ids {
		total += len(streams[id])
	}
	if st.FedRecords != int64(total) {
		t.Errorf("FedRecords = %d, want %d", st.FedRecords, total)
	}
	if st.EmittedSequences != int64(len(emitted)) {
		t.Errorf("EmittedSequences = %d, want %d", st.EmittedSequences, len(emitted))
	}
	if st.PendingRecords != 0 {
		t.Errorf("PendingRecords = %d after Flush", st.PendingRecords)
	}
}

// TestEngineFeedCoalescedConcurrent drives the /feed micro-batcher
// with production-shaped concurrency — every object streaming from its
// own goroutine — and checks that coalescing is invisible in the
// results: the emitted m-semantics are exactly the batch pipeline's,
// every Feed caller gets its own fragment's outcome, and the
// batch counter stays consistent (acquisitions never exceed emitted
// fragments).
func TestEngineFeedCoalescedConcurrent(t *testing.T) {
	a, test := testAnnotator(t)
	const eta, psi = 120, 60
	streams := gappedStreams(test, eta)

	var batch []MSSequence
	for id, records := range streams {
		frs := Preprocess(id, records, eta, psi)
		mss, err := a.AnnotateAll(frs)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, mss...)
	}

	e, err := NewEngine(a, WithPreprocess(eta, psi))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(streams))
	for id, records := range streams {
		wg.Add(1)
		go func(id string, records []Record) {
			defer wg.Done()
			for _, r := range records {
				if err := e.Feed(id, r); err != nil {
					errs <- err
					return
				}
			}
		}(id, records)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	wantJSON, err := json.Marshal(sortedMSS(batch))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(sortedMSS(e.Sequences()))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("coalesced streaming m-semantics diverge from batch pipeline:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	st := e.Stats()
	if st.EmittedSequences != int64(len(batch)) {
		t.Errorf("EmittedSequences = %d, want %d", st.EmittedSequences, len(batch))
	}
	if st.FeedBatches < 1 || st.FeedBatches > st.EmittedSequences {
		t.Errorf("FeedBatches = %d, want within [1, %d]", st.FeedBatches, st.EmittedSequences)
	}
}

func TestEngineAnnotateAllCtxHonoursWindowing(t *testing.T) {
	a, test := testAnnotator(t)
	e, err := NewEngine(a, WithWindowing(40, 10), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]PSequence, len(test))
	for i := range test {
		ps[i] = test[i].P
	}
	got, err := e.AnnotateAllCtx(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		_, want, err := a.AnnotateWindowed(&ps[i], 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("out[%d] is not the windowed annotation", i)
		}
	}
}

func TestEngineFlushReleasesStreamState(t *testing.T) {
	a, test := testAnnotator(t)
	e, err := NewEngine(a, WithPreprocess(120, 60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedAll("obj", test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PendingObjects != 0 {
		t.Fatalf("Flush left %d tracked objects", st.PendingObjects)
	}
	// A continuing stream starts a fresh segmenter: numbering restarts
	// at #0, as a fresh Preprocess call would.
	before := len(e.Sequences())
	if _, err := e.FeedAll("obj", test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	seqs := e.Sequences()
	if len(seqs) <= before {
		t.Fatal("second flush emitted nothing")
	}
	if id := seqs[len(seqs)-1].ObjectID; id[len(id)-2:] != "#0" {
		t.Errorf("post-flush stream fragment ID = %q, want a #0 restart", id)
	}
}

func TestEngineFeedRejectsOutOfOrder(t *testing.T) {
	a, _ := testAnnotator(t)
	e, err := NewEngine(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Feed("o", Record{Loc: Loc(1, 1, 0), T: 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.Feed("o", Record{Loc: Loc(1, 1, 0), T: 50}); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	// Equal timestamps are non-decreasing, like PSequence.Validate.
	if err := e.Feed("o", Record{Loc: Loc(1, 1, 0), T: 100}); err != nil {
		t.Fatalf("equal timestamp rejected: %v", err)
	}
	if st := e.Stats(); st.FedRecords != 2 {
		t.Errorf("FedRecords = %d, want 2 (rejected record must not count)", st.FedRecords)
	}
}

func TestEngineRetentionWindow(t *testing.T) {
	a, test := testAnnotator(t)
	const eta, psi = 120, 60
	streams := gappedStreams(test, eta)
	e, err := NewEngine(a, WithPreprocess(eta, psi), WithRetention(1))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(streams))
	for id := range streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fedEmitted := 0
	for _, id := range ids {
		n, err := e.FeedAll(id, streams[id])
		if err != nil {
			t.Fatal(err)
		}
		fedEmitted += n
	}
	if fedEmitted == 0 {
		t.Fatal("no sequences completed mid-stream")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EmittedSequences == 0 {
		t.Fatal("nothing emitted")
	}
	// A 1-second window over a multi-object stream keeps only sequences
	// ending near the maximum period end.
	if int64(st.StoredSequences) >= st.EmittedSequences {
		t.Errorf("retention evicted nothing: stored %d of %d emitted",
			st.StoredSequences, st.EmittedSequences)
	}
}

func TestEngineChangeNotifier(t *testing.T) {
	a, test := testAnnotator(t)
	type signal struct {
		venue string
		gen   uint64
	}
	var mu sync.Mutex
	var signals []signal
	e, err := NewEngine(a,
		WithVenueID("north"),
		WithChangeNotifier(func(venue string, gen uint64) {
			mu.Lock()
			signals = append(signals, signal{venue, gen})
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range test[:2] {
		for _, r := range ls.P.Records {
			if err := e.Feed(ls.P.ObjectID, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]signal(nil), signals...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("feeding through a flush produced no change notifications")
	}
	for i, s := range got {
		if s.venue != "north" {
			t.Fatalf("signal %d carries venue %q, want north", i, s.venue)
		}
		if i > 0 && s.gen <= got[i-1].gen {
			t.Fatalf("generations not increasing: %v", got)
		}
	}
	st := e.Stats()
	if st.StoreNotifications != int64(len(got)) {
		t.Fatalf("StoreNotifications = %d, want %d delivered signals", st.StoreNotifications, len(got))
	}
}

// TestEngineStatsAddCoversEveryField sets every numeric field of an
// EngineStats through reflection and requires Add to sum each one: a
// counter added to the struct but not to Add would drop out of the
// /v1/stats totals on both serving tiers (FeedBatches once did).
func TestEngineStatsAddCoversEveryField(t *testing.T) {
	var one, total EngineStats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanInt() {
			t.Fatalf("EngineStats.%s is %s: teach Add and this test how to sum it", v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	total.Add(one)
	total.Add(one)
	got := reflect.ValueOf(total)
	for i := 0; i < got.NumField(); i++ {
		if want := int64(2 * (i + 1)); got.Field(i).Int() != want {
			t.Errorf("Add drops EngineStats.%s: got %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}
