package main

import (
	"context"
	"fmt"
	"time"
)

// Rates the fixed-work parts are sized by: what the seed commit
// sustains on the 2-CPU reference machine, so that a part takes about
// -seconds there. They only size the work; every metric is measured.
const (
	feedWireFeedsPerSecond   = 260 // per writer, feed-wire
	fleetIterationsPerSecond = 45  // per client, fleet-router
)

// minPacedPeriod is the closest an open-loop writer's sends may come.
const minPacedPeriod = 40 * time.Millisecond

// pacedPlan deals an open-loop writer's venues their traffic. The
// writer sends the visits that have a stay — only those move a
// popular-regions answer, so only those make the server push a frame —
// once each over the run, evenly spaced: every run then feeds the same
// visits whatever the seed, in the seed's order. A run too short for
// that at 25 sends a second sends what fits: closer together, a frame
// could no longer be told from the next feed's. It returns the plans
// and the period between sends.
func (r *run) pacedPlan(hasStay []bool, preload int, venues ...string) ([]*venuePlan, time.Duration) {
	sends := len(r.w.deal(hasStay))
	period := max(minPacedPeriod, time.Duration(r.opt.seconds/float64(sends)*float64(time.Second)))
	perVenue := int(float64(sends)*stretch)/len(venues) + 2
	plans := make([]*venuePlan, len(venues))
	for i, v := range venues {
		plans[i] = r.planVenue(v, hasStay, i*sends/len(venues), preload, perVenue)
	}
	return plans, period
}

// feedWire: one msserve, venues a, b and probe. Two closed-loop
// writers, one per venue, saturate it with completing feeds — a fixed
// count, because the store grows with the work done. Beside them a
// probe pair runs open-loop on its own venue: completing feeds on a
// schedule and a /watch subscriber. When the writers are done, two
// closed-loop query clients run the seeded plan for a quarter of the
// time against the stores the writers have built, several times the
// size of query-wire's.
func (r *run) feedWire() error {
	hasStay, err := r.referencePass(r.w.visits)
	if err != nil {
		return err
	}
	count := int(r.opt.seconds * feedWireFeedsPerSecond)
	a := r.planVenue("a", nil, 0, 150, count)
	b := r.planVenue("b", nil, visitPool/2, 150, count)
	probes, period := r.pacedPlan(hasStay, 3*objectsPerVenue, "probe")
	plans := []*venuePlan{a, b, probes[0]}
	quiet := r.opt.seconds / 4
	queries := r.queryClients([]string{"a", "b"}, a.stream.horizon(), quiet)

	f, m, err := r.stage([][]string{{"a", "b", "probe"}}, false, plans)
	if err != nil {
		return err
	}
	defer f.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	pw, err := r.startPacedWriter(ctx, f.entry, f.entry, start, period, probes)
	if err != nil {
		return err
	}
	deadline := start.Add(time.Duration(r.opt.seconds * stretch * float64(time.Second)))
	writers := []*caller{newCaller(f.entry, 0, r.tr), newCaller(f.entry, 0, r.tr)}
	var sent [2]int64
	wall := closedLoop(2, func(lane int) {
		vp, c := plans[lane], writers[lane]
		defer c.close()
		for i := 0; i < len(vp.work) && time.Now().Before(deadline); i++ {
			sent[lane] += int64(len(vp.work[i].records))
			c.feed(vp.name, &vp.work[i], 1, time.Now())
		}
	})
	cancel()
	ws := pw.finish()
	qt, qwall := queries.run(r, f.entry, quiet)
	load := mergeTallies(writers[0].t, writers[1].t)
	all := mergeTallies(load, pw.c.t, qt)
	r.rep.set("records_per_s", float64(load.fedRecords)/wall.Seconds(), int(load.fedRecords))
	r.rep.set("queries_per_s", float64(qt.queries())/qwall.Seconds(), qt.queries())
	r.rep.describe("feed (writers)", load.lat[opFeed])
	r.rep.describe("feed (probe)", pw.c.t.lat[opFeed])
	r.describeQueries(qt)
	return m.finish(wall+qwall, all, load.lat[opFeed], ws, sent[0]+sent[1]+pw.sent)
}

// queryWire: one msserve, venues a and b, preloaded over the wire.
// Two closed-loop query clients run the seeded 60/30/10 plan for a
// fixed time. Beside them a trickle writer feeds a and b alternately
// on schedule regardless of query speed: every feed bumps a venue's
// generation and so invalidates its cached answers.
func (r *run) queryWire() error {
	hasStay, err := r.referencePass(r.w.visits)
	if err != nil {
		return err
	}
	plans, period := r.pacedPlan(hasStay, 400, "a", "b")
	horizon := max(plans[0].stream.horizon(), plans[1].stream.horizon())
	queries := r.queryClients([]string{"a", "b"}, horizon, r.opt.seconds)

	f, m, err := r.stage([][]string{{"a", "b"}}, false, plans)
	if err != nil {
		return err
	}
	defer f.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pw, err := r.startPacedWriter(ctx, f.entry, f.entry, time.Now(), period, plans)
	if err != nil {
		return err
	}
	load, wall := queries.run(r, f.entry, r.opt.seconds)
	cancel()
	ws := pw.finish()
	all := mergeTallies(load, pw.c.t)
	r.rep.set("records_per_s", float64(pw.c.t.fedRecords)/wall.Seconds(), int(pw.c.t.fedRecords))
	r.rep.set("queries_per_s", float64(load.queries())/wall.Seconds(), load.queries())
	r.describeQueries(load)
	r.rep.describe("feed (trickle)", pw.c.t.lat[opFeed])
	return m.finish(wall, all, pw.c.t.lat[opFeed], ws, pw.sent)
}

// queryClients are two closed-loop query clients with their plans
// drawn during preparation.
type queryClients struct {
	plans   [2]*queryPlan
	queries [2][]queryReq
}

// queryClients draws two clients' plans over the venues, long enough
// for the given time at a rate no tree reaches: the plan must not run
// out.
func (r *run) queryClients(venues []string, horizon, seconds float64) *queryClients {
	const queriesPerSecond = 8000
	qc := &queryClients{}
	for lane := range qc.plans {
		qc.plans[lane] = newQueryPlan(r.w.seed, lane, venues, horizon)
		qc.queries[lane] = qc.plans[lane].take(int(seconds*queriesPerSecond) + 1)
	}
	return qc
}

// run runs both clients for the given time and returns what they saw.
func (qc *queryClients) run(r *run, base string, seconds float64) (*tally, time.Duration) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	clients := [2]*caller{}
	for lane := range clients {
		clients[lane] = newCaller(base, qc.plans[lane].slots(), r.tr)
	}
	wall := closedLoop(2, func(lane int) {
		c, qs := clients[lane], qc.queries[lane]
		defer c.close()
		for i := 0; time.Now().Before(deadline); i++ {
			if i == len(qs) {
				c.t.fail(fmt.Errorf("query plan of %d queries ran out", len(qs)))
				return
			}
			c.query(&qs[i], time.Now())
		}
	})
	return mergeTallies(clients[0].t, clients[1].t), wall
}

func (r *run) describeQueries(t *tally) {
	for class := 0; class < numClasses; class++ {
		r.rep.describe("query ("+className[class]+")", t.lat[opQueryRepeat+class])
	}
}

// fleetRouter: msrouter in front of two msserve; backend 1 hosts v1
// and v2, backend 2 hosts v3, v4 and probe. Two closed-loop clients,
// each with two venues of its own, run a fixed number of iterations of
// one completing feed, two venue-scoped queries (one repeated, one
// never asked before) and two fleet-scoped queries. The probe pair of
// feed-wire runs beside them, fed and watched through the router.
func (r *run) fleetRouter() error {
	hasStay, err := r.referencePass(r.w.visits)
	if err != nil {
		return err
	}
	iters := int(r.opt.seconds * fleetIterationsPerSecond)
	names := []string{"v1", "v2", "v3", "v4"}
	var plans []*venuePlan
	for i, v := range names {
		plans = append(plans, r.planVenue(v, nil, i*visitPool/len(names), 80, (iters+1)/2))
	}
	probes, period := r.pacedPlan(hasStay, 3*objectsPerVenue, "probe")
	plans = append(plans, probes[0])
	horizon := plans[0].stream.horizon()
	// Each client draws its iterations' queries during preparation.
	var qplans [2]*queryPlan
	var queries [2][]queryReq
	for lane := range qplans {
		own := names[2*lane : 2*lane+2]
		qp := newQueryPlan(r.w.seed, lane, own, horizon)
		for it := 0; it < iters; it++ {
			queries[lane] = append(queries[lane], qp.repeat(it%2), qp.miss(it%2), qp.fleet(), qp.fleet())
		}
		qplans[lane] = qp
	}

	f, m, err := r.stage([][]string{{"v1", "v2"}, {"v3", "v4", "probe"}}, true, plans)
	if err != nil {
		return err
	}
	defer f.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	pw, err := r.startPacedWriter(ctx, f.entry, f.entry, start, period, probes)
	if err != nil {
		return err
	}
	deadline := start.Add(time.Duration(r.opt.seconds * stretch * float64(time.Second)))
	clients := []*caller{
		newCaller(f.entry, qplans[0].slots(), r.tr),
		newCaller(f.entry, qplans[1].slots(), r.tr),
	}
	var sent [2]int64
	wall := closedLoop(2, func(lane int) {
		c, qs := clients[lane], queries[lane]
		defer c.close()
		for it := 0; it < iters && time.Now().Before(deadline); it++ {
			vp := plans[2*lane+it%2]
			fd := &vp.work[it/2]
			sent[lane] += int64(len(fd.records))
			c.feed(vp.name, fd, 1, time.Now())
			for j := 0; j < 4; j++ {
				c.query(&qs[4*it+j], time.Now())
			}
		}
	})
	cancel()
	ws := pw.finish()
	load := mergeTallies(clients[0].t, clients[1].t)
	all := mergeTallies(load, pw.c.t)
	r.rep.set("records_per_s", float64(load.fedRecords)/wall.Seconds(), int(load.fedRecords))
	r.rep.set("queries_per_s", float64(load.queries())/wall.Seconds(), load.queries())
	r.rep.describe("feed (clients)", load.lat[opFeed])
	r.describeQueries(load)
	r.rep.describe("feed (probe)", pw.c.t.lat[opFeed])
	return m.finish(wall, all, load.lat[opFeed], ws, sent[0]+sent[1]+pw.sent)
}
