package main

// The layer suite of a traced run. The end-to-end harness sees the
// system only through the root package, the binaries' flags and the /v1
// routes; this file alone reaches below, and times each layer from
// outside through the exported calls the product itself makes — there
// are no spans inside the program.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"c2mn"
	"c2mn/internal/core"
	"c2mn/internal/features"
	"c2mn/internal/indoor"
	"c2mn/internal/notify"
	"c2mn/internal/query"
	"c2mn/internal/router"
	"c2mn/internal/seq"
)

// layers runs the suite on the workload's own sequences and sets every
// per-layer metric the workload's measured part did not set itself.
func (r *run) layers() error {
	seqs := r.layerSeqs
	if len(seqs) == 0 {
		return fmt.Errorf("the workload named no sequences for the layer suite")
	}
	mss, err := r.shadowPipeline(seqs)
	if err != nil {
		return err
	}
	r.queryLayer(mss)
	if err := r.registryLayer(); err != nil {
		return err
	}
	r.smallProbes(mss)
	if err := r.probeFleet(); err != nil {
		return err
	}
	r.processMetrics()

	// Tracing costs the client one span per request. Its share is that
	// cost against the time a request takes.
	const calibration = 200000
	scratch := newTracer()
	began := time.Now()
	for i := 0; i < calibration; i++ {
		scratch.end(scratch.begin(0, scratch.request(), "calibration"))
	}
	perSpan := time.Since(began).Seconds() / calibration
	r.rep.set("bench.trace_overhead_share", float64(r.workloadSpans)*perSpan/max(r.workloadBusy.Seconds(), 1e-9), r.workloadSpans)
	r.rep.set("bench.prepare_s", r.w.prepare.Seconds(), 1)
	share := 0.0
	if r.rep.attempted > 0 {
		share = float64(r.rep.failed) / float64(r.rep.attempted)
	}
	r.rep.set("client.error_share", share, int(r.rep.attempted))
	return nil
}

// shadowPipeline assembles, from exported calls, the pipeline that
// Annotator.annotateWith and Engine.process run, under one root span
// per sequence: Segmenter.Feed → SeqContext.Reset → Workspace.Annotate
// → seq.Merge → Store.Add → Hub.Publish. It asserts on every sequence
// that the shadow's labels and m-semantics deep-equal
// Annotator.Annotate's, and reports each stage's self time. A callee
// that cannot be a child span because it runs inside another exported
// call — CandidateRegions inside Reset — is timed alone on the same
// input and subtracted. bench.shadow_coverage says how much of
// Annotator.Annotate's time the shadow's stages account for; outside
// 0.95–1.05 the layer table is unreliable and the run fails.
func (r *run) shadowPipeline(seqs []c2mn.LabeledSequence) ([]seq.MSSequence, error) {
	model, err := core.ReadModelJSON(bytes.NewReader(r.w.modelJSON))
	if err != nil {
		return nil, err
	}
	ex, err := features.NewExtractor(r.w.space, model.Params)
	if err != nil {
		return nil, err
	}
	sctx := &features.SeqContext{Ex: ex}
	ws := core.NewWorkspace()
	store := query.NewStore(0)
	hub := notify.NewHub()
	sub := hub.Subscribe([]string{"shadow"}, 0)
	defer sub.Close()
	tr := r.tr
	var storeSpan, storeReq int
	store.OnChange(func(gen uint64) {
		sp := tr.begin(storeSpan, storeReq, "notify.Hub.Publish")
		hub.Publish("shadow", gen)
		tr.end(sp)
	})

	first := len(tr.spans)
	records := 0
	var annotate time.Duration
	mss := make([]seq.MSSequence, len(seqs))
	const passes = 3
	for pass := 0; pass < passes; pass++ {
		for i := range seqs {
			src := &seqs[i].P
			records += src.Len()
			req := tr.request()
			root := tr.begin(0, req, "shadow.sequence")

			sp := tr.begin(root, req, "seq.Segmenter.Feed")
			sg := seq.NewSegmenter(src.ObjectID, c2mn.DefaultEta, c2mn.DefaultPsi)
			var p seq.PSequence
			done := false
			for _, rec := range src.Records {
				if _, ok := sg.Feed(rec); ok {
					tr.end(sp)
					return nil, fmt.Errorf("shadow: sequence %d split inside a visit", i)
				}
			}
			closing := src.Records[len(src.Records)-1]
			closing.T += visitGap
			p, done = sg.Feed(closing)
			tr.end(sp)
			if !done {
				return nil, fmt.Errorf("shadow: sequence %d was not completed by the closing record", i)
			}

			sp = tr.begin(root, req, "features.SeqContext.Reset")
			sctx.Reset(&p, nil)
			tr.end(sp)

			sp = tr.begin(root, req, "core.Workspace.Annotate")
			labels := ws.Annotate(model, sctx, core.InferOptions{})
			tr.end(sp)

			sp = tr.begin(root, req, "seq.Merge")
			ms := seq.Merge(&p, labels)
			tr.end(sp)

			storeSpan, storeReq = tr.begin(root, req, "query.Store.Add"), req
			store.Add(ms)
			tr.end(storeSpan)
			tr.end(root)
			sub.Take()

			began := time.Now()
			wantLabels, wantMS, err := r.w.ann.Annotate(&p)
			annotate += time.Since(began)
			r.rep.attempted++
			if err != nil || !reflect.DeepEqual(labels, wantLabels) || !reflect.DeepEqual(ms, wantMS) {
				r.rep.check("shadow.equals_annotate", false, fmt.Sprintf("sequence %d: shadow pipeline and Annotator.Annotate disagree (%v)", i, err))
				return nil, fmt.Errorf("shadow pipeline disagrees with Annotator.Annotate on sequence %d", i)
			}
			mss[i] = ms
		}
	}
	r.rep.check("shadow.equals_annotate", true, "")
	tr.count("shadow.records", int64(records))
	tr.count("shadow.sequences", int64(passes*len(seqs)))

	// CandidateRegions alone, on the same records.
	cache := ex.Cache()
	var dst []indoor.RegionID
	candidates := 0
	began := time.Now()
	for pass := 0; pass < passes; pass++ {
		for i := range seqs {
			for _, rec := range seqs[i].P.Records {
				dst = cache.CandidateRegions(rec.Loc, dst[:0])
				candidates += len(dst)
			}
		}
	}
	candTime := time.Since(began)
	tr.count("indoor.candidates", int64(candidates))

	self := selfTimes(tr.spans[first:])
	n := float64(records)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	resetSelf := self["features.SeqContext.Reset"] - candTime.Nanoseconds()
	sweep := self["core.Workspace.Annotate"]
	merge := self["seq.Merge"]
	rep := r.rep
	rep.set("seq.segment_ns_per_record", float64(self["seq.Segmenter.Feed"])/n, records)
	rep.set("features.reset_us_per_record", us(resetSelf)/n, records)
	rep.set("indoor.candidates_ns_per_record", float64(candTime.Nanoseconds())/n, records)
	rep.set("indoor.candidates_per_record", float64(candidates)/n, records)
	rep.set("core.sweep_us_per_record", us(sweep)/n, records)
	rep.set("seq.merge_ns_per_record", float64(merge)/n, records)
	rep.set("query.add_us_per_seq", us(self["query.Store.Add"])/float64(passes*len(seqs)), passes*len(seqs))
	rep.set("notify.publish_ns", float64(self["notify.Hub.Publish"])/float64(passes*len(seqs)), passes*len(seqs))
	rep.set("c2mn.annotate_us_per_record", us(annotate.Nanoseconds())/n, records)
	rep.set("core.share", float64(sweep)/float64(annotate.Nanoseconds()), records)
	coverage := float64(self["features.SeqContext.Reset"]+sweep+merge) / float64(annotate.Nanoseconds())
	rep.set("bench.shadow_coverage", coverage, records)
	rep.check("shadow.coverage", coverage >= 0.95 && coverage <= 1.05,
		fmt.Sprintf("shadow stages cover %.3f of Annotator.Annotate's time; the layer table is unreliable", coverage))

	// The geometry cache is built once per venue load: time it on a
	// fresh decode of the venue.
	fresh, err := indoor.ReadJSON(bytes.NewReader(r.w.spaceJSON))
	if err != nil {
		return nil, err
	}
	began = time.Now()
	fresh.GeometryCache(model.Params.V)
	rep.set("indoor.cache_build_ms", millis(time.Since(began)), 1)

	// Allocations of one Annotate call, pool warm.
	ps := make([]c2mn.PSequence, len(seqs))
	for i := range seqs {
		ps[i] = seqs[i].P
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range ps {
		r.w.ann.Annotate(&ps[i])
	}
	runtime.ReadMemStats(&m1)
	rep.set("c2mn.annotate_allocs_per_seq", float64(m1.Mallocs-m0.Mallocs)/float64(len(ps)), len(ps))

	// Worker-pool scaling: the same batch on nproc workers and on one.
	rate := func(workers int) (float64, error) {
		eng, err := c2mn.NewEngine(r.w.ann, c2mn.WithWorkers(workers))
		if err != nil {
			return 0, err
		}
		began := time.Now()
		for pass := 0; pass < passes; pass++ {
			if _, err := eng.AnnotateAllCtx(context.Background(), ps); err != nil {
				return 0, err
			}
		}
		return 1 / time.Since(began).Seconds(), nil
	}
	one, err := rate(1)
	if err != nil {
		return nil, err
	}
	many, err := rate(r.nproc)
	if err != nil {
		return nil, err
	}
	rep.set("c2mn.pool_scaling", many/one, r.nproc)
	return mss, nil
}

// queryLayer times the store at the workload's store size: it fills a
// store with that many annotated sequences — the shadow's, re-dated —
// and runs both top-k scans over half of its time range.
func (r *run) queryLayer(mss []seq.MSSequence) {
	target := max(r.storedSeqs, len(mss))
	store := query.NewStore(0)
	horizon := 0.0
	began := time.Now()
	for k := 0; k < target; k++ {
		src := mss[k%len(mss)]
		shift := float64(k/objectsPerVenue) * 2 * visitGap
		ms := seq.MSSequence{ObjectID: fmt.Sprintf("o%d#%d", k%objectsPerVenue, k), Semantics: make([]seq.MSemantics, len(src.Semantics))}
		for j, m := range src.Semantics {
			m.Start += shift
			m.End += shift
			ms.Semantics[j] = m
			horizon = max(horizon, m.End)
		}
		store.Add(ms)
	}
	fill := time.Since(began)
	r.rep.note("query layer: store of %d sequences filled in %.1f ms (re-dating included)", target, millis(fill))
	regions := r.w.space.Regions()
	var prq, frpq []float64
	const scans = 40
	for i := 0; i < scans; i++ {
		start := float64(i) / scans * horizon / 2
		w := query.Window{Start: start, End: start + horizon/2}
		began := time.Now()
		store.TopKPopularRegionsGen(regions, w, 10)
		prq = append(prq, millis(time.Since(began))*1e3)
		began = time.Now()
		store.TopKFrequentPairsGen(regions, w, 10)
		frpq = append(frpq, millis(time.Since(began))*1e3)
	}
	r.rep.set("query.tkprq_us", median(prq), scans)
	r.rep.set("query.tkfrpq_us", median(frpq), scans)
	r.rep.set("query.stored_seqs", float64(target), 1)
}

// twin is an in-process registry serving one venue, preloaded with a
// plan's preload: what a server hosting that venue holds in memory.
func (r *run) twin(p *venuePlan) (*reference, error) {
	ref, err := r.newReference([]string{p.name})
	if err != nil {
		return nil, err
	}
	return ref, ref.feedAll([]*venuePlan{p})
}

// registryLayer times the root package's serving calls in process on
// the wire workloads' own batches and queries: VenueRegistry.FeedAll
// per record, and VenueRegistry.Query on a cache hit and on a miss.
func (r *run) registryLayer() error {
	// Whole rounds of the objects and of the three visit lengths: a feed
	// annotates its object's previous visit, not the records it
	// carries, so only over whole rounds do the two counts agree.
	const feeds = 6 * objectsPerVenue
	p := r.planVenue("twin", nil, 0, 2*objectsPerVenue, feeds)
	ref, err := r.twin(p)
	if err != nil {
		return err
	}
	records := 0
	began := time.Now()
	for i := range p.work {
		f := &p.work[i]
		records += len(f.records)
		if _, err := ref.reg.FeedAll(p.name, f.object, f.records); err != nil {
			return err
		}
	}
	perRecord := millis(time.Since(began)) * 1e3 / float64(records)
	r.rep.set("c2mn.feedall_us_per_record", perRecord, records)
	if r.serverCPU > 0 {
		inference := float64(r.fedRecords) * perRecord / 1e6
		r.rep.note("inference in the measured part: %d records × %.1f us = %.2f s, %.3f of the servers' %.2f s CPU",
			r.fedRecords, perRecord, inference, inference/r.serverCPU.Seconds(), r.serverCPU.Seconds())
	}

	qp := newQueryPlan(r.w.seed, 0, []string{p.name}, p.stream.horizon())
	ctx := context.Background()
	var hit, miss []float64
	for i := 0; i < 200; i++ {
		q := qp.miss(0)
		began := time.Now()
		if _, err := ref.reg.Query(ctx, q.q); err != nil {
			return err
		}
		miss = append(miss, millis(time.Since(began))*1e3)
		// The same query again, store unmoved: a hit.
		began = time.Now()
		if _, err := ref.reg.Query(ctx, q.q); err != nil {
			return err
		}
		hit = append(hit, millis(time.Since(began))*1e3)
	}
	r.rep.set("c2mn.query_hit_us", median(hit), len(hit))
	r.rep.set("c2mn.query_miss_us", median(miss), len(miss))
	return nil
}

// smallProbes times the calls that take nanoseconds, in loops:
// notify.Diff between successive answers and router.RendezvousOwner.
func (r *run) smallProbes(mss []seq.MSSequence) {
	store := query.NewStore(0)
	regions := r.w.space.Regions()
	var answers []notify.Answer
	for i, ms := range mss {
		ms.ObjectID = fmt.Sprintf("d%d", i)
		store.Add(ms)
		rcs, _ := store.TopKPopularRegionsGen(regions, query.Window{Start: -1e18, End: 1e18}, 10)
		answers = append(answers, notify.Answer{Kind: string(c2mn.QueryPopularRegions), Regions: rcs})
	}
	const rounds = 50
	began := time.Now()
	diffs := 0
	for round := 0; round < rounds; round++ {
		for i := 1; i < len(answers); i++ {
			notify.Diff(answers[i-1], answers[i])
			diffs++
		}
	}
	if diffs == 0 {
		diffs = 1
	}
	r.rep.set("notify.diff_us", millis(time.Since(began))*1e3/float64(diffs), diffs)

	backends := []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080", "http://10.0.0.4:8080"}
	venues := []string{"v1", "v2", "v3", "v4", "probe", "north", "south", "mall-7"}
	const calls = 200000
	began = time.Now()
	for i := 0; i < calls; i++ {
		router.RendezvousOwner(venues[i%len(venues)], backends)
	}
	r.rep.set("router.rendezvous_ns", float64(time.Since(began).Nanoseconds())/calls, calls)
}

// probeFleet boots an otherwise idle fleet — msrouter over two
// msserve, one venue each — and prices the serving tiers by paired
// requests on the workload's own batches and queries: the same feed
// straight to msserve and into an in-process twin, the same query
// through the router, straight to the owner and into the twin, fleet
// queries between feeds, and one venue watched through the router and
// at its owner at once.
func (r *run) probeFleet() error {
	hasStay, err := r.stays()
	if err != nil {
		return err
	}
	const burst = 120
	p1 := r.planVenue("p1", nil, 0, 2*objectsPerVenue, burst+60)
	p2 := r.planVenue("p2", hasStay, 0, 2*objectsPerVenue, 100)
	plans := []*venuePlan{p1, p2}
	f, err := r.boot([][]string{{"p1"}, {"p2"}}, true)
	if err != nil {
		return err
	}
	defer f.stop()
	r.rep.absorb(r.preload(f, plans))
	twin, err := r.twin(p1)
	if err != nil {
		return err
	}
	owner := f.owner["p1"]
	direct := newCaller(owner.base, 0, nil)
	defer direct.close()
	ctx := context.Background()

	// Feeds: straight to the owner, and the same batch into the twin.
	var inproc []float64
	records := 0
	cpu0 := owner.cpu()
	for i := 0; i < burst; i++ {
		fd := &p1.work[i]
		records += len(fd.records)
		direct.feed("p1", fd, 1, time.Now())
		began := time.Now()
		if _, err := twin.reg.FeedAll("p1", fd.object, fd.records); err != nil {
			return err
		}
		inproc = append(inproc, millis(time.Since(began)))
	}
	cpuFeed := owner.cpu() - cpu0
	r.rep.set("msserve.feed_overhead_us", (median(direct.t.lat[opFeed])-median(inproc))*1e3, burst)
	r.rep.set("msserve.cpu_us_per_record", float64(cpuFeed.Microseconds())/float64(records), records)

	// Queries: through the router, straight to the owner, into the twin.
	via := newCaller(f.entry, 0, nil)
	defer via.close()
	qp := newQueryPlan(r.w.seed, 0, []string{"p1"}, p1.stream.horizon())
	var qInproc []float64
	const pairs = 300
	for i := 0; i < pairs; i++ {
		q := qp.miss(0)
		if i%2 == 1 {
			q = qp.repeat(0)
			q.slot = -1 // compare full bodies: no 304s here
		}
		got, own := via.query(&q, time.Now()), direct.query(&q, time.Now())
		r.rep.check("probe.router_equals_owner", got != nil && bytes.Equal(got, own),
			"venue query through the router differs from the same query at its owner: "+q.path)
		began := time.Now()
		if _, err := twin.reg.Query(ctx, q.q); err != nil {
			return err
		}
		qInproc = append(qInproc, millis(time.Since(began)))
	}
	viaLat, directLat := via.t.allQueryLatencies(), direct.t.allQueryLatencies()
	r.rep.set("router.hop_overhead_us", (median(viaLat)-median(directLat))*1e3, pairs)
	r.rep.set("msserve.query_overhead_us", (median(directLat)-median(qInproc))*1e3, pairs)
	const qburst = 2000
	cpu0 = owner.cpu()
	for i := 0; i < qburst; i++ {
		q := qp.miss(0)
		direct.query(&q, time.Now())
	}
	r.rep.set("msserve.cpu_us_per_query", float64((owner.cpu()-cpu0).Microseconds())/qburst, qburst)

	// Scatter-gather: a fleet query after every feed, so one venue's
	// partial has moved and the other's can be revalidated.
	sc0, err := scatterCache(f.router)
	if err != nil {
		return err
	}
	fq := newQueryPlan(r.w.seed, 1, []string{"p1"}, p1.stream.horizon())
	scatter := newCaller(f.entry, fq.slots(), nil)
	defer scatter.close()
	for i := 0; i < 60; i++ {
		via.feed("p1", &p1.work[burst+i], 1, time.Now())
		q := fq.fleet()
		scatter.query(&q, time.Now())
	}
	sc1, err := scatterCache(f.router)
	if err != nil {
		return err
	}
	r.rep.set("router.scatter_p50_ms", median(scatter.t.lat[opQueryFleet]), len(scatter.t.lat[opQueryFleet]))
	hits, misses := sc1.Hits-sc0.Hits, sc1.Misses-sc0.Misses
	r.rep.set("router.scatter_cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))

	// Watch relay: the same venue watched through the router and at its
	// owner; the relay's cost is the difference of the two lags.
	relayCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now().Add(20 * time.Millisecond)
	owner2 := f.owner["p2"].base
	atOwner, err := openWatch(owner2 + "/v1/venues/p2/watch?kind=popular-regions&k=" + fmt.Sprint(allCounts))
	if err != nil {
		return err
	}
	pw, err := r.startPacedWriter(relayCtx, owner2, f.entry, start, 25*time.Millisecond, []*venuePlan{p2})
	if err != nil {
		atOwner.close()
		return err
	}
	ws := pw.finish()
	atOwner.close()
	ownerFrames, _ := atOwner.snapshot()
	ownerLags, _ := watchLags(pw.due[0], ownerFrames[1:], "p2")
	r.rep.set("router.watch_relay_ms", median(ws.lags)-median(ownerLags), min(len(ws.lags), len(ownerLags)))

	if _, ok := r.rep.values["client.send_lateness_p99_ms"]; !ok {
		// The workload had no open-loop sender of its own: report how
		// late this one ran.
		r.rep.set("client.send_lateness_p99_ms", percentile(sortedCopy(pw.c.t.lateness), 0.99), len(pw.c.t.lateness))
	}

	for _, c := range []*caller{direct, via, scatter, pw.c} {
		r.rep.absorb(c.t)
	}
	return nil
}

// stays reports which visits of the population the model gives at
// least one stay: the reference pass's answer where the workload made
// one, else its own.
func (r *run) stays() ([]bool, error) {
	if r.hasStay != nil {
		return r.hasStay, nil
	}
	seqs := r.w.visits
	out := make([]bool, len(seqs))
	for i := range seqs {
		_, ms, err := r.w.ann.Annotate(&seqs[i].P)
		if err != nil {
			return nil, err
		}
		for _, m := range ms.Semantics {
			out[i] = out[i] || m.Event == c2mn.Stay
		}
	}
	return out, nil
}

type scatterCounts struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// scatterCache reads the router's partial-cache counters from the
// canonical admin route.
func scatterCache(rt *proc) (scatterCounts, error) {
	var resp struct {
		Scatter scatterCounts `json:"scatter_cache"`
	}
	err := getJSON(rt.base+"/v1/admin/backends", &resp)
	return resp.Scatter, err
}

// processMetrics reports what /proc said about every server process
// this run booted, the workload's own and the probe fleet's.
func (r *run) processMetrics() {
	r.site.mu.Lock()
	procs := append([]*proc(nil), r.site.procs[r.firstProc:]...)
	r.site.mu.Unlock()
	var boots []float64
	var serveRSS, routerRSS, routerCPU float64
	for _, p := range procs {
		switch p.kind {
		case "msserve":
			boots = append(boots, millis(p.boot))
			serveRSS = max(serveRSS, p.peakRSS())
		case "msrouter":
			routerRSS = max(routerRSS, p.peakRSS())
			routerCPU += p.cpu().Seconds()
		}
	}
	r.rep.set("msserve.boot_ms", median(boots), len(boots))
	r.rep.set("msserve.peak_rss_mb", serveRSS, len(boots))
	r.rep.set("msrouter.peak_rss_mb", routerRSS, 1)
	r.rep.set("msrouter.cpu_s", routerCPU, 1)
}
