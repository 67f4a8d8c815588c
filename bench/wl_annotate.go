package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"time"

	"c2mn"
)

const (
	// longSequences is the number of ~500-record test sequences of
	// annotate-batch.
	longSequences = 32
	// serveIterationsPerSecond sizes the in-process serving part: what
	// the seed commit sustains of its iterations — one completing feed
	// and four queries — on the reference machine.
	serveIterationsPerSecond = 180
)

// library is one set-up of annotate-batch: the venue and model decoded
// as a server would decode them, an engine over them, and a registry
// serving two preloaded venues in process.
type library struct {
	eng      *c2mn.Engine
	reg      *c2mn.VenueRegistry
	labels   []c2mn.Labels     // the warm pass's labels, per test sequence
	ms       []c2mn.MSSequence // and its m-semantics
	notified chan time.Time    // one entry per store generation move
}

// setUpLibrary loads the venue, makes one warm pass over the test
// sequences on nproc goroutines and preloads the registry.
func (r *run) setUpLibrary(seqs []c2mn.LabeledSequence, plans []*venuePlan) (*library, error) {
	space, err := c2mn.ReadSpace(bytes.NewReader(r.w.spaceJSON))
	if err != nil {
		return nil, err
	}
	ann, err := c2mn.Load(space, bytes.NewReader(r.w.modelJSON))
	if err != nil {
		return nil, err
	}
	lib := &library{
		labels: make([]c2mn.Labels, len(seqs)), ms: make([]c2mn.MSSequence, len(seqs)),
		// Buffered for every feed of a run: the notifier must never block
		// the write path it is called on.
		notified: make(chan time.Time, 1<<16),
	}
	if lib.eng, err = c2mn.NewEngine(ann, c2mn.WithWorkers(r.nproc)); err != nil {
		return nil, err
	}
	ctx := context.Background()
	errs := make([]error, r.nproc)
	closedLoop(r.nproc, func(lane int) {
		for i := lane; i < len(seqs); i += r.nproc {
			if lib.labels[i], lib.ms[i], errs[lane] = lib.eng.AnnotateCtx(ctx, &seqs[i].P); errs[lane] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	if lib.reg, err = c2mn.NewVenueRegistry(); err != nil {
		return nil, err
	}
	notify := c2mn.WithChangeNotifier(func(string, uint64) { lib.notified <- time.Now() })
	for _, p := range plans {
		if _, err := lib.reg.Register(p.name, ann, notify); err != nil {
			return nil, err
		}
	}
	if err := (&reference{reg: lib.reg}).feedAll(plans); err != nil {
		return nil, err
	}
	for len(lib.notified) > 0 {
		<-lib.notified
	}
	return lib, nil
}

// annotateBatch: the paper's experiment and the library user's view,
// all in process. Phase 1, a quarter of the time, one goroutine:
// Engine.AnnotateCtx round-robin over the test sequences, for the
// per-sequence latency. Phase 2, half of the time: repeated
// Engine.AnnotateAllCtx on nproc workers, for throughput. Phase 3, the
// last quarter: the serving trip without a socket — completing feeds
// into a VenueRegistry and the query mix against it, one goroutine, a
// fixed number of iterations — the in-process floor under the wire
// workloads' feed, watch and query figures.
func (r *run) annotateBatch() error {
	seqs, err := r.w.longSequences(longSequences)
	if err != nil {
		return err
	}
	ps := make([]c2mn.PSequence, len(seqs))
	records := 0
	for i := range seqs {
		ps[i] = seqs[i].P
		records += seqs[i].P.Len()
	}
	// Phase 3 feeds whole turns of the population, as many as come
	// nearest to a quarter of the time, so that every run feeds the same
	// visits whatever the seed. (A run too short for one turn feeds what
	// fits.)
	iters := int(r.opt.seconds / 4 * serveIterationsPerSecond)
	if turn := len(r.w.visits); iters >= turn {
		iters = (iters + turn/2) / turn * turn
	}
	iters -= iters % 2
	plans := []*venuePlan{
		r.planVenue("a", nil, 0, 100, iters/2),
		r.planVenue("b", nil, len(r.w.visits)/2, 100, iters/2),
	}
	qplan := newQueryPlan(r.w.seed, 0, []string{"a", "b"}, plans[0].stream.horizon())
	var queries []queryReq
	for it := 0; it < iters; it++ {
		queries = append(queries, qplan.repeat(it%2), qplan.miss(it%2), qplan.fleet(), qplan.fleet())
	}

	var lib *library
	var setups []float64
	for cycle := 0; cycle < setupCycles; cycle++ {
		began := time.Now()
		if lib, err = r.setUpLibrary(seqs, plans); err != nil {
			return err
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	r.rep.set("setup_s", median(setups), len(setups))
	var acc accuracy
	for i := range seqs {
		acc.add(seqs[i].Labels, lib.labels[i])
	}
	r.rep.set("label_accuracy", acc.combined(), acc.records)

	ctx := context.Background()
	self0 := selfCPU()
	began := time.Now()
	var inLibrary time.Duration // time spent inside the measured calls

	// Phase 1.
	var lat []float64
	var per100 []float64
	t := &tally{}
	deadline := began.Add(time.Duration(r.opt.seconds / 4 * float64(time.Second)))
	// Whole passes only: a partial pass would weigh whichever sequences
	// the seed's order puts first.
	for i := 0; i > 0 || time.Now().Before(deadline); i = (i + 1) % len(ps) {
		t.attempted++
		sp := r.tr.begin(0, r.tr.request(), "c2mn.AnnotateCtx")
		start := time.Now()
		labels, _, err := lib.eng.AnnotateCtx(ctx, &ps[i])
		d := time.Since(start)
		r.tr.end(sp)
		inLibrary += d
		switch {
		case err != nil:
			t.fail(err)
		case !reflect.DeepEqual(labels, lib.labels[i]):
			t.fail(fmt.Errorf("sequence %d: labels differ from the warm pass's", i))
		default:
			lat = append(lat, millis(d))
			per100 = append(per100, millis(d)*100/float64(ps[i].Len()))
		}
	}
	phase1 := time.Since(began)
	r.rep.set("seq_latency_p50_ms", median(lat), len(lat))
	r.rep.describe("Engine.AnnotateCtx per sequence", lat)
	r.rep.note("per 100 records: p50 %.4g ms (paper §V-B1: < 600 ms)", median(per100))

	// Phase 2.
	began2 := time.Now()
	deadline = began2.Add(time.Duration(r.opt.seconds / 2 * float64(time.Second)))
	passes := 0
	for time.Now().Before(deadline) {
		t.attempted++
		sp := r.tr.begin(0, r.tr.request(), "c2mn.AnnotateAllCtx")
		out, err := lib.eng.AnnotateAllCtx(ctx, ps)
		r.tr.end(sp)
		switch {
		case err != nil:
			t.fail(err)
		case !reflect.DeepEqual(out, lib.ms):
			t.fail(fmt.Errorf("batch pass %d: m-semantics differ from the warm pass's", passes))
		default:
			passes++
		}
	}
	phase2 := time.Since(began2)
	inLibrary += phase2 * time.Duration(r.nproc)
	r.rep.set("records_per_s", float64(passes*records)/phase2.Seconds(), passes*records)

	// Phase 3.
	before := registryStats(lib.reg)
	began3 := time.Now()
	var sent int64
	var lags []float64
	for it := 0; it < iters; it++ {
		due := time.Now()
		vp := plans[it%2]
		f := &vp.work[it/2]
		sent += int64(len(f.records))
		t.attempted++
		sp := r.tr.begin(0, r.tr.request(), "c2mn.FeedAll")
		start := time.Now()
		completed, err := lib.reg.FeedAll(vp.name, f.object, f.records)
		r.tr.end(sp)
		inLibrary += time.Since(start)
		switch {
		case err != nil:
			t.fail(err)
		case completed != 1 || len(lib.notified) != 1:
			t.fail(fmt.Errorf("feed %d: completed %d sequences and moved the generation %d times, want 1 and 1", it, completed, len(lib.notified)))
			for len(lib.notified) > 0 {
				<-lib.notified
			}
		default:
			t.fedRecords += int64(len(f.records))
			t.completed++
			t.lat[opFeed] = append(t.lat[opFeed], millis(time.Since(due)))
			lags = append(lags, millis((<-lib.notified).Sub(due)))
		}
		for j := 0; j < 4; j++ {
			q := &queries[4*it+j]
			t.attempted++
			sp := r.tr.begin(0, r.tr.request(), "c2mn.Query."+className[q.class])
			start := time.Now()
			_, err := lib.reg.Query(ctx, q.q)
			d := time.Since(start)
			r.tr.end(sp)
			inLibrary += d
			if err != nil {
				t.fail(err)
				continue
			}
			t.lat[opQueryRepeat+q.class] = append(t.lat[opQueryRepeat+q.class], millis(d))
		}
	}
	phase3 := time.Since(began3)
	after := registryStats(lib.reg)
	self := selfCPU() - self0

	r.rep.absorb(t)
	d := after.minus(before)
	r.reconcile(d, t, sent)
	r.rep.set("feed_p50_ms", median(t.lat[opFeed]), len(t.lat[opFeed]))
	r.rep.set("watch_lag_p50_ms", median(lags), len(lags))
	r.rep.set("queries_per_s", float64(t.queries())/phase3.Seconds(), t.queries())
	q := t.allQueryLatencies()
	r.rep.set("query_p50_ms", median(q), len(q))
	r.rep.set("query_miss_p50_ms", median(t.lat[opQueryMiss]), len(t.lat[opQueryMiss]))
	r.rep.describe("VenueRegistry.FeedAll (completing feed)", t.lat[opFeed])
	for class := 0; class < numClasses; class++ {
		r.rep.describe("VenueRegistry.Query ("+className[class]+")", t.lat[opQueryRepeat+class])
	}
	r.rep.describe("feed → change notifier", lags)
	// Everything here runs in the benchmark's process; its own share is
	// the CPU it used outside the measured library calls.
	share := max(0, 1-inLibrary.Seconds()/max(self.Seconds(), 1e-9))
	r.rep.note("phases %.2f s, %.2f s, %.2f s; CPU %.2f s of which %.3f outside the library",
		phase1.Seconds(), phase2.Seconds(), phase3.Seconds(), self.Seconds(), share)
	r.handOver(seqs, after.StoredSequences, time.Since(began))
	if r.opt.trace {
		ws := watchStats{lags: lags, feeds: len(t.lat[opFeed]), frames: len(lags)}
		r.clientLayerMetrics(t, ws)
		r.rep.set("client.cpu_share", share, 1)
		r.cacheMetrics(d)
	}
	return nil
}

// registryStats sums an in-process registry's counters as statsTotals
// sums a server's.
func registryStats(reg *c2mn.VenueRegistry) engineStats {
	var sum engineStats
	for _, st := range reg.Stats() {
		sum.add(engineStats{
			FedRecords: st.FedRecords, EmittedSequences: st.EmittedSequences, FeedBatches: st.FeedBatches,
			StoredSequences: int64(st.StoredSequences),
			QueryCacheHits:  st.QueryCacheHits, QueryCacheMisses: st.QueryCacheMisses,
		})
	}
	return sum
}
