package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// stretch bounds a fixed-work part: a part sized to take -seconds on
// the seed commit is cut off after stretch × -seconds, so a slow tree
// or machine lengthens a run by a known factor at most.
const stretch = 1.25

// pacedWriter is an open-loop writer with its subscribers: every
// period it sends one completing feed to the next of its venues, on
// schedule whatever the system's speed, and one /watch subscription
// per venue timestamps the frames the feeds cause.
type pacedWriter struct {
	c        *caller
	plans    []*venuePlan
	watchers []*watcher
	due      [][]time.Time // per venue, the due time of each feed sent
	sent     int64         // records sent
	done     chan struct{}
}

// startPacedWriter subscribes to every venue of plans at watchBase and
// starts feeding them in rotation at feedBase from start on. It stops
// when ctx ends or the plans' work runs out.
func (r *run) startPacedWriter(ctx context.Context, feedBase, watchBase string, start time.Time, period time.Duration, plans []*venuePlan) (*pacedWriter, error) {
	p := &pacedWriter{
		c: newCaller(feedBase, 0, r.tr), plans: plans,
		due: make([][]time.Time, len(plans)), done: make(chan struct{}),
	}
	for _, vp := range plans {
		w, err := openWatch(watchBase + "/v1/venues/" + vp.name + "/watch?kind=popular-regions&k=" + fmt.Sprint(allCounts))
		if err != nil {
			p.closeWatchers()
			return nil, err
		}
		p.watchers = append(p.watchers, w)
	}
	n := 0
	for _, vp := range plans {
		n += len(vp.work)
	}
	go func() {
		defer close(p.done)
		defer p.c.close()
		p.c.t.lateness = openLoop(ctx, start, period, n, func(i int, due time.Time) {
			vi := i % len(plans)
			f := &plans[vi].work[i/len(plans)]
			p.due[vi] = append(p.due[vi], due)
			p.sent += int64(len(f.records))
			p.c.feed(plans[vi].name, f, 1, due)
		})
	}()
	return p, nil
}

func (p *pacedWriter) closeWatchers() {
	for _, w := range p.watchers {
		w.close()
	}
}

// watchStats are what the subscribers of a paced writer saw.
type watchStats struct {
	lags      []float64 // feed due → first frame naming its venue, ms
	feeds     int
	unmatched int
	frames    int // data-bearing frames after the initial snapshot
	resyncs   int
	err       error
}

// finish waits for the writer to stop, gives late frames a moment to
// arrive, closes the subscriptions and matches frames to feeds.
func (p *pacedWriter) finish() watchStats {
	<-p.done
	time.Sleep(50 * time.Millisecond)
	var ws watchStats
	for vi, w := range p.watchers {
		w.close()
		frames, err := w.snapshot()
		if err != nil && ws.err == nil {
			ws.err = err
		}
		frames = frames[1:] // the subscription's own snapshot
		lags, unmatched := watchLags(p.due[vi], frames, p.plans[vi].name)
		ws.lags = append(ws.lags, lags...)
		ws.unmatched += unmatched
		ws.feeds += len(p.due[vi])
		ws.frames += len(frames)
		for _, f := range frames {
			if f.event == "resync" {
				ws.resyncs++
			}
		}
	}
	return ws
}

// closedLoop runs one function per lane concurrently, each sending its
// next request only when the previous one has completed, and returns
// the wall time until the last lane ended.
func closedLoop(lanes int, fn func(lane int)) time.Duration {
	began := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			fn(lane)
		}(lane)
	}
	wg.Wait()
	return time.Since(began)
}

// wireMetrics turns the merged tallies of a wire workload's measured
// part into its latency metrics. feeds are the feed latencies of the
// clients that carry the workload's feed load — the paced writer's
// where it is the only writer. Each workload sets its own two
// throughput figures, which likewise count its load clients' work.
func (r *run) wireMetrics(feeds []float64, all *tally, ws watchStats) {
	rep := r.rep
	rep.set("feed_p50_ms", median(feeds), len(feeds))
	rep.set("watch_lag_p50_ms", median(ws.lags), len(ws.lags))
	q := all.allQueryLatencies()
	rep.set("query_p50_ms", median(q), len(q))
	rep.set("query_miss_p50_ms", median(all.lat[opQueryMiss]), len(all.lat[opQueryMiss]))
	// A watcher that misses most feeds is measuring something else.
	rep.check("watch.frames_follow_feeds", ws.err == nil && ws.unmatched*10 <= ws.feeds,
		fmt.Sprintf("%d of %d paced feeds had no frame before the next feed (stream error: %v)", ws.unmatched, ws.feeds, ws.err))
	r.clientLayerMetrics(all, ws)
}

// clientLayerMetrics reports, in a traced run, the figures that
// qualify the run rather than the system.
func (r *run) clientLayerMetrics(all *tally, ws watchStats) {
	if !r.opt.trace {
		return
	}
	rep := r.rep
	tail := func(xs []float64) (float64, int) { return percentile(sortedCopy(xs), 0.99), len(xs) }
	v, n := tail(all.lat[opFeed])
	rep.set("client.feed_p99_ms", v, n)
	v, n = tail(all.allQueryLatencies())
	rep.set("client.query_p99_ms", v, n)
	if len(all.lateness) > 0 {
		v, n = tail(all.lateness)
		rep.set("client.send_lateness_p99_ms", v, n)
	}
	rep.set("notify.watch_lag_p90_ms", percentile(sortedCopy(ws.lags), 0.9), len(ws.lags))
	rep.set("notify.frames_per_bump", float64(ws.frames)/float64(max(ws.feeds, 1)), ws.feeds)
	rep.set("notify.resyncs", float64(ws.resyncs), ws.frames)
	requests := float64(max(all.attempted, 1))
	rep.set("msserve.not_modified_share", float64(all.notModified)/float64(max(all.queries(), 1)), all.queries())
	rep.set("msserve.throttled_share", float64(all.throttled)/requests, int(all.attempted))
}
