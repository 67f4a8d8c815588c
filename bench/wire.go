package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"c2mn"
)

// setupCycles is how many times a run sets the system up; setup_s is
// the median. Only the last set-up is measured on.
const setupCycles = 3

// venuePlan is one venue's traffic: the feeds every set-up preloads
// and the feeds of the measured part, which continue the same stream.
type venuePlan struct {
	name    string
	stream  *feedStream
	preload []feed
	work    []feed
}

// planVenue deals a venue its traffic from the whole population, or
// from the visits marked in only, starting offset visits into the
// seed's order.
func (r *run) planVenue(name string, only []bool, offset, preload, work int) *venuePlan {
	st := r.w.newFeedStream(name+"-", r.w.deal(only), offset)
	return &venuePlan{name: name, stream: st, preload: st.take(preload), work: st.take(work)}
}

// fleet is one booted set of server processes.
type fleet struct {
	backends []*proc
	router   *proc            // nil when clients talk to msserve directly
	entry    string           // base URL the clients use
	owner    map[string]*proc // venue → the msserve hosting it
}

func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.backends
	}
	return append(append([]*proc(nil), f.backends...), f.router)
}

func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
}

// boot starts one msserve per layout entry, hosting that entry's
// venues, and msrouter in front of them when asked.
func (r *run) boot(layout [][]string, withRouter bool) (*fleet, error) {
	spacePath, modelPath, err := r.site.writeVenueFiles(r.w)
	if err != nil {
		return nil, err
	}
	f := &fleet{owner: map[string]*proc{}}
	var all []string
	for _, venues := range layout {
		p, err := r.site.startServe(spacePath, modelPath, venues...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, p)
		for _, v := range venues {
			f.owner[v] = p
			all = append(all, v)
		}
	}
	f.entry = f.backends[0].base
	if withRouter {
		if f.router, err = r.site.startRouter(f.backends, all); err != nil {
			f.stop()
			return nil, err
		}
		f.entry = f.router.base
	}
	return f, nil
}

// preload sends every plan's preload feeds through the fleet's entry
// from two connections, each venue's feeds in order on one of them.
func (r *run) preload(f *fleet, plans []*venuePlan) *tally {
	const lanes = 2
	callers := make([]*caller, lanes)
	var wg sync.WaitGroup
	for lane := range callers {
		callers[lane] = newCaller(f.entry, 0, nil)
		wg.Add(1)
		go func(c *caller, lane int) {
			defer wg.Done()
			defer c.close()
			for i := lane; i < len(plans); i += lanes {
				p := plans[i]
				for j := range p.preload {
					c.feed(p.name, &p.preload[j], p.preload[j].completes, time.Now())
				}
			}
		}(callers[lane], lane)
	}
	wg.Wait()
	return mergeTallies(callers[0].t, callers[1].t)
}

// setUp boots and preloads setupCycles times, keeps the last fleet and
// reports the median set-up time as setup_s. What it times is what a
// deployment pays before its first request: process boot to ready,
// venue load, and the preload that fills stores and warms pools.
func (r *run) setUp(layout [][]string, withRouter bool, plans []*venuePlan) (*fleet, error) {
	var times []float64
	var f *fleet
	for cycle := 0; cycle < setupCycles; cycle++ {
		began := time.Now()
		var err error
		if f, err = r.boot(layout, withRouter); err != nil {
			return nil, err
		}
		t := r.preload(f, plans)
		times = append(times, time.Since(began).Seconds())
		r.rep.absorb(t)
		if cycle < setupCycles-1 {
			f.stop()
		}
	}
	r.rep.set("setup_s", median(times), len(times))
	return f, nil
}

// reference is the in-process twin of a fleet: one VenueRegistry that
// is fed exactly what the servers were fed. The servers' answers must
// equal its answers byte for byte.
type reference struct {
	reg *c2mn.VenueRegistry
}

func (r *run) newReference(venues []string, opts ...c2mn.Option) (*reference, error) {
	reg, err := c2mn.NewVenueRegistry()
	if err != nil {
		return nil, err
	}
	for _, v := range venues {
		if _, err := reg.Register(v, r.w.ann, opts...); err != nil {
			return nil, err
		}
	}
	return &reference{reg: reg}, nil
}

// feedAll feeds the plans' preloads, two venues at a time.
func (ref *reference) feedAll(plans []*venuePlan) error {
	errs := make([]error, len(plans))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *venuePlan) {
			defer wg.Done()
			defer func() { <-sem }()
			for j := range p.preload {
				if _, err := ref.reg.FeedAll(p.name, p.preload[j].object, p.preload[j].records); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("feeding the in-process reference: %w", err)
		}
	}
	return nil
}

// answer renders the reference's reply to a query as msserve's POST
// /v1/query renders it: the QueryResult through encoding/json, with
// the encoder's trailing newline.
func (ref *reference) answer(q c2mn.Query) ([]byte, error) {
	res, err := ref.reg.Query(context.Background(), q)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkAnswers asks every venue's untruncated answers over the wire at
// a moment when no store is moving and compares bytes: with the
// in-process reference's answer when there is one, and, when there is
// a router, the answer through it with the one straight from the
// venue's owner.
func (r *run) checkAnswers(stage string, f *fleet, ref *reference, venues []string) {
	entry := newCaller(f.entry, 0, nil)
	defer entry.close()
	for _, v := range venues {
		direct := newCaller(f.owner[v].base, 0, nil)
		for _, q := range fullQueries(v) {
			got := entry.query(&q, time.Now())
			if ref != nil {
				want, err := ref.answer(q.q)
				r.rep.check(fmt.Sprintf("%s.%s.%s.equals_reference", stage, v, q.q.Kind), err == nil && bytes.Equal(got, want),
					fmt.Sprintf("wire answer (%d bytes) differs from in-process answer (%d bytes, error %v)", len(got), len(want), err))
			}
			if f.router != nil {
				own := direct.query(&q, time.Now())
				r.rep.check(fmt.Sprintf("%s.%s.%s.router_equals_owner", stage, v, q.q.Kind),
					got != nil && bytes.Equal(got, own), "answer through the router differs from the owner's")
			}
		}
		direct.close()
		r.rep.absorb(direct.t)
	}
	r.rep.absorb(entry.t)
}

// reconcile compares d, the servers' counter movement across the
// measured part, with what the clients sent and were told.
func (r *run) reconcile(d engineStats, t *tally, sentRecords int64) {
	r.rep.check("stats.fed_records", d.FedRecords == sentRecords && t.fedRecords == sentRecords,
		fmt.Sprintf("servers counted %d records, clients sent %d and were acknowledged %d", d.FedRecords, sentRecords, t.fedRecords))
	r.rep.check("stats.emitted_sequences", d.EmittedSequences == t.completed,
		fmt.Sprintf("servers emitted %d sequences, clients were told %d", d.EmittedSequences, t.completed))
	r.rep.check("stats.stored_sequences", d.StoredSequences == t.completed,
		fmt.Sprintf("stores grew by %d sequences, clients were told %d", d.StoredSequences, t.completed))
}

// referencePass annotates the workload's own sequences in process, one
// at a time, and reports what the library alone delivers on them: the
// per-sequence latency and the label accuracy against simulator
// truth. It returns, for the wire workloads' probes, which of the
// sequences the model gives at least one stay — only those move a
// popular-regions answer and so produce a watch frame.
func (r *run) referencePass(seqs []c2mn.LabeledSequence) (hasStay []bool, err error) {
	eng, err := c2mn.NewEngine(r.w.ann)
	if err != nil {
		return nil, err
	}
	var lat []float64
	var acc accuracy
	hasStay = make([]bool, len(seqs))
	ctx := context.Background()
	// One untimed annotation first: it pays for the pooled workspace.
	if _, _, err := eng.AnnotateCtx(ctx, &seqs[0].P); err != nil {
		return nil, err
	}
	for i := range seqs {
		began := time.Now()
		labels, ms, err := eng.AnnotateCtx(ctx, &seqs[i].P)
		lat = append(lat, millis(time.Since(began)))
		if err != nil {
			return nil, fmt.Errorf("annotating in process: %w", err)
		}
		acc.add(seqs[i].Labels, labels)
		for _, m := range ms.Semantics {
			if m.Event == c2mn.Stay {
				hasStay[i] = true
			}
		}
	}
	r.rep.set("seq_latency_p50_ms", median(lat), len(lat))
	r.rep.set("label_accuracy", acc.combined(), acc.records)
	r.rep.describe("annotate in process", lat)
	if !slices.Contains(hasStay, true) {
		return nil, fmt.Errorf("no reference sequence has a stay: nothing would move a watched answer")
	}
	r.hasStay = hasStay
	return hasStay, nil
}

// accuracy accumulates the paper's labelling accuracy (§V-A).
type accuracy struct {
	records, regionOK, eventOK int
}

func (a *accuracy) add(truth, pred c2mn.Labels) {
	for i := range truth.Regions {
		a.records++
		if truth.Regions[i] == pred.Regions[i] {
			a.regionOK++
		}
		if truth.Events[i] == pred.Events[i] {
			a.eventOK++
		}
	}
}

// combined is CA = λ·RA + (1−λ)·EA at the paper's λ = 0.7.
func (a *accuracy) combined() float64 {
	if a.records == 0 {
		return 0
	}
	const lambda = 0.7
	return (lambda*float64(a.regionOK) + (1-lambda)*float64(a.eventOK)) / float64(a.records)
}

// measure brackets a wire workload's measured part: the servers'
// counters and the CPU clocks of the benchmark and of the server
// processes, as they stood when it began.
type measure struct {
	r             *run
	f             *fleet
	venues        []string
	before        engineStats
	self0, procs0 time.Duration
}

// stage readies a wire workload for its measured part: it sets the
// fleet up, feeds an in-process reference the same preload, checks the
// servers' answers against it, and opens the measurement.
func (r *run) stage(layout [][]string, withRouter bool, plans []*venuePlan) (*fleet, *measure, error) {
	f, err := r.setUp(layout, withRouter, plans)
	if err != nil {
		return nil, nil, err
	}
	m := &measure{r: r, f: f}
	for _, p := range plans {
		m.venues = append(m.venues, p.name)
	}
	ref, err := r.newReference(m.venues)
	if err == nil {
		err = ref.feedAll(plans)
	}
	if err == nil {
		r.checkAnswers("setup", f, ref, m.venues)
		m.before, err = statsTotals(f.backends)
	}
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	m.self0, m.procs0 = selfCPU(), cpuOf(f.procs())
	return f, m, nil
}

// finish closes the measurement wall after it began. It reconciles the
// servers' counters with what the clients sent and were told, checks
// on a routed fleet that the router's answers equal the owners' now
// that the stores are quiet, and reports the latency metrics, how the
// CPU was shared and, in a traced run, the layer metrics that come
// from the measured part. feeds are the feed latencies of the clients
// that carry the workload's feed load.
func (m *measure) finish(wall time.Duration, all *tally, feeds []float64, ws watchStats, sentRecords int64) error {
	r := m.r
	self, servers := selfCPU()-m.self0, cpuOf(m.f.procs())-m.procs0
	after, err := statsTotals(m.f.backends)
	if err != nil {
		return err
	}
	d := after.minus(m.before)
	r.rep.absorb(all)
	r.reconcile(d, all, sentRecords)
	if m.f.router != nil {
		r.checkAnswers("end", m.f, nil, m.venues)
	}
	r.wireMetrics(feeds, all, ws)
	r.rep.describe("watch lag", ws.lags)
	share := self.Seconds() / max((self+servers).Seconds(), 1e-9)
	r.rep.note("CPU over the measured part: benchmark %.2f s, servers %.2f s, benchmark share %.3f",
		self.Seconds(), servers.Seconds(), share)
	r.handOver(r.w.visits, after.StoredSequences, wall)
	if r.opt.trace {
		r.fedRecords, r.serverCPU = all.fedRecords, servers
		r.rep.set("client.cpu_share", share, 1)
		r.cacheMetrics(d)
	}
	return nil
}

// cacheMetrics reports the layer metrics that are counter movement
// across the measured part.
func (r *run) cacheMetrics(d engineStats) {
	lookups := d.QueryCacheHits + d.QueryCacheMisses
	r.rep.set("c2mn.query_cache_hit_ratio", float64(d.QueryCacheHits)/float64(max(lookups, 1)), int(lookups))
	r.rep.set("c2mn.coalesced_batch_mean", float64(d.EmittedSequences)/float64(max(d.FeedBatches, 1)), int(d.FeedBatches))
}
