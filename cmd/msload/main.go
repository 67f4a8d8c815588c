// Command msload replays simulated indoor mobility as live traffic
// against a running msserve or msrouter and reports what the serving
// tier actually delivered: p50/p99 latency and throughput per request
// class, client-side 304 and 429 counts, and the server's query-cache
// hit ratio measured as a /v1/stats delta across the run.
//
// The harness speaks the same wire protocol msgen-produced datasets
// flow through: feed requests POST one simulated visit to
// /v1/venues/{venue}/feed under an object id drawn from a small pool per
// venue, each visit starting η + 100 s after the object's previous one
// (η is the server's default split gap), so every feed after an
// object's first completes a fragment and the server annotates, stores
// and publishes it; query requests GET the top-k sugars with a
// bounded pool of distinct windows (so a steady-state mix re-asks
// questions, like real dashboards do) and carry If-None-Match when a
// previous response minted an ETag. -watch N holds N /v1/watch SSE
// subscriptions open for the run and reports push-lag percentiles;
// -max-runtime bounds the whole run's wall clock, fatally.
//
// Usage:
//
//	msload -base http://127.0.0.1:8080 -space mall.json -venues north,south \
//	       -requests 2000 -query-ratio 0.8 -concurrency 8 -seed 1 -md load.md
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c2mn"
	"c2mn/internal/sim"
)

type wireRecord struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int     `json:"floor"`
	T     float64 `json:"t"`
}

type sequenceRequest struct {
	ObjectID string       `json:"object_id"`
	Records  []wireRecord `json:"records"`
}

// objectsPerVenue is the size of the object-id pool each venue's visits
// are fed under: small, so a short run revisits every object.
const objectsPerVenue = 4

// visitGap separates an object's consecutive visits: past the server's
// default η, so the later visit closes the earlier one's fragment.
const visitGap = c2mn.DefaultEta + 100

// job is one pre-planned request. A feed carries one complete visit
// of its object; prev is closed when the object's previous visit has
// been answered and done when this one has, so concurrent workers keep
// each object's stream in order.
type job struct {
	query      bool
	url        string // query target, or feed endpoint
	body       []byte // feed payload, nil for queries
	prev, done chan struct{}
}

// classStats accumulates one request class's outcomes.
type classStats struct {
	mu        sync.Mutex
	latencies []time.Duration
	notMod    int // 304s (queries)
	throttled int // 429s (feeds)
	errors    int
}

func (c *classStats) record(d time.Duration, status int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latencies = append(c.latencies, d)
	switch {
	case status == http.StatusNotModified:
		c.notMod++
	case status == http.StatusTooManyRequests:
		c.throttled++
	case status < 200 || status > 299:
		c.errors++
	}
}

func (c *classStats) percentile(p float64) time.Duration {
	if len(c.latencies) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(c.latencies))
	copy(sorted, c.latencies)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// cacheTotals is the slice of /v1/stats totals the harness diffs; the
// shape matches both msserve and msrouter (EngineStats marshals its Go
// field names).
type cacheTotals struct {
	EmittedSequences        int64
	QueryCacheHits          int64
	QueryCacheMisses        int64
	QueryCacheRevalidations int64
}

func fetchTotals(client *http.Client, base string) (cacheTotals, error) {
	var resp struct {
		Totals cacheTotals `json:"totals"`
	}
	r, err := client.Get(base + "/v1/stats")
	if err != nil {
		return cacheTotals{}, err
	}
	defer r.Body.Close()
	buf, err := io.ReadAll(r.Body)
	if err != nil {
		return cacheTotals{}, err
	}
	if r.StatusCode != http.StatusOK {
		return cacheTotals{}, fmt.Errorf("GET /v1/stats: %s: %s", r.Status, buf)
	}
	if err := json.Unmarshal(buf, &resp); err != nil {
		return cacheTotals{}, err
	}
	return resp.Totals, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("msload: ")

	base := flag.String("base", "", "base URL of the msserve or msrouter under load (required)")
	spacePath := flag.String("space", "", "venue space JSON the mobility is generated over (required)")
	venuesFlag := flag.String("venues", "", "comma-separated venue IDs to target (required)")
	requests := flag.Int("requests", 1000, "total requests to issue")
	queryRatio := flag.Float64("query-ratio", 0.8, "fraction of requests that are queries (the rest feed)")
	concurrency := flag.Int("concurrency", 8, "concurrent workers")
	objects := flag.Int("objects", 20, "simulated visits in the replayed dataset")
	duration := flag.Float64("duration", 1800, "simulated object lifespan in seconds")
	seed := flag.Int64("seed", 1, "random seed for mobility and the request mix")
	windows := flag.Int("windows", 8, "distinct query windows in the rotation")
	k := flag.Int("k", 10, "top-k size the queries ask for")
	mdPath := flag.String("md", "", "write a markdown summary to this path")
	minHitRatio := flag.Float64("min-hit-ratio", 0, "fail when the server-side hit ratio lands below this")
	watch := flag.Int("watch", 0, "concurrent /v1/watch SSE subscribers held open for the run (0 = off)")
	maxRuntime := flag.Duration("max-runtime", 0, "hard wall-clock bound on the whole run; exceeding it is fatal (0 = unbounded)")
	flag.Parse()

	if *base == "" || *spacePath == "" || *venuesFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	venues := strings.Split(*venuesFlag, ",")
	for i := range venues {
		venues[i] = strings.TrimSpace(venues[i])
	}
	if *queryRatio < 0 || *queryRatio > 1 {
		log.Fatalf("query-ratio %v outside [0, 1]", *queryRatio)
	}

	sf, err := os.Open(*spacePath)
	if err != nil {
		log.Fatal(err)
	}
	space, err := c2mn.ReadSpace(sf)
	sf.Close()
	if err != nil {
		log.Fatalf("reading space: %v", err)
	}
	ds, err := c2mn.GenerateMobility(space, sim.DefaultMobility(*objects, *duration), *seed)
	if err != nil {
		log.Fatalf("generating mobility: %v", err)
	}
	visits := ds.Sequences[:0]
	for _, ls := range ds.Sequences {
		if len(ls.P.Records) > 0 {
			visits = append(visits, ls)
		}
	}
	if len(visits) == 0 {
		log.Fatal("simulator produced no sequences")
	}

	jobs, completing, horizon := planJobs(*base, venues, visits, *requests, *queryRatio, *windows, *k, *seed)

	// The wall-clock bound is a watchdog, not a cancellation: CI calls
	// msload against freshly-started processes, and a hang anywhere —
	// a wedged stream, a dead backend, a stuck drain — must turn into a
	// loud failure instead of a six-hour job timeout.
	ctx := context.Background()
	if *maxRuntime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *maxRuntime)
		defer cancel()
		watchdog := time.AfterFunc(*maxRuntime, func() {
			log.Fatalf("max runtime %v exceeded", *maxRuntime)
		})
		defer watchdog.Stop()
	}

	client := &http.Client{Timeout: 30 * time.Second}
	before, err := fetchTotals(client, *base)
	if err != nil {
		log.Fatalf("sampling pre-run stats: %v", err)
	}

	var queries, feeds classStats
	// etags remembers the freshest validator per query URL so repeat
	// queries revalidate instead of re-downloading.
	var etagMu sync.Mutex
	etags := map[string]string{}

	// lastFeedNano is the wall clock of the newest acknowledged feed
	// write; watchers measure push lag against it.
	var lastFeedNano atomic.Int64
	var ws *watchStats
	stopWatchers := func() {}
	if *watch > 0 {
		ws, stopWatchers = startWatchers(ctx, *base, *watch, *k, horizon, &lastFeedNano)
	}

	start := time.Now()
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range ch {
				runJob(ctx, client, jb, &queries, &feeds, &etagMu, etags, &lastFeedNano)
			}
		}()
	}
	for _, jb := range jobs {
		ch <- jb
	}
	close(ch)
	wg.Wait()
	// Leave the streams open briefly so pushes from the final feed
	// writes arrive and count, then tear them down.
	if *watch > 0 {
		select {
		case <-time.After(500 * time.Millisecond):
		case <-ctx.Done():
		}
	}
	stopWatchers()
	elapsed := time.Since(start)

	after, err := fetchTotals(client, *base)
	if err != nil {
		log.Fatalf("sampling post-run stats: %v", err)
	}
	emitted := after.EmittedSequences - before.EmittedSequences
	hits := after.QueryCacheHits - before.QueryCacheHits
	misses := after.QueryCacheMisses - before.QueryCacheMisses
	revals := after.QueryCacheRevalidations - before.QueryCacheRevalidations
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}

	qps := float64(len(jobs)) / elapsed.Seconds()
	fmt.Printf("%d requests in %v (%.1f req/s) against %s\n", len(jobs), elapsed.Round(time.Millisecond), qps, *base)
	fmt.Printf("queries: %-6d p50 %-10v p99 %-10v 304s %-5d errors %d\n",
		len(queries.latencies), queries.percentile(0.50), queries.percentile(0.99), queries.notMod, queries.errors)
	fmt.Printf("feeds:   %-6d p50 %-10v p99 %-10v 429s %-5d errors %d\n",
		len(feeds.latencies), feeds.percentile(0.50), feeds.percentile(0.99), feeds.throttled, feeds.errors)
	fmt.Printf("server: %d sequence(s) emitted by %d completing feed(s)\n", emitted, completing)
	fmt.Printf("server query cache: hits %d, misses %d, revalidations %d, hit ratio %.3f\n",
		hits, misses, revals, hitRatio)
	if ws != nil {
		fmt.Printf("watch:   %d subscriber(s), %d event(s), lag p50 %-10v p99 %-10v resyncs %d reconnects %d goodbyes %d\n",
			*watch, ws.events, ws.percentile(0.50), ws.percentile(0.99), ws.resyncs, ws.reconnects, ws.goodbyes)
	}

	if *mdPath != "" {
		md := markdownSummary(len(jobs), elapsed, qps, &queries, &feeds, hits, misses, revals, hitRatio)
		md += fmt.Sprintf("\n| inference | value |\n|---|---|\n| completing feeds | %d |\n| emitted sequences | %d |\n", completing, emitted)
		if ws != nil {
			md += watchMarkdown(*watch, ws)
		}
		if err := os.WriteFile(*mdPath, []byte(md), 0o644); err != nil {
			log.Fatalf("writing markdown summary: %v", err)
		}
	}
	if queries.errors+feeds.errors > 0 {
		log.Fatalf("%d request(s) failed", queries.errors+feeds.errors)
	}
	if completing > 0 && emitted == 0 {
		log.Fatalf("%d feed(s) crossed η but the server emitted no sequence: the run measured no inference", completing)
	}
	if *minHitRatio > 0 && hitRatio < *minHitRatio {
		log.Fatalf("server hit ratio %.3f below the %.3f floor", hitRatio, *minHitRatio)
	}
}

// planJobs lays out the deterministic request mix: feeds hand each
// venue the simulated visits round-robin, queries rotate venue/fleet
// scopes, both kinds, and a bounded pool of windows so the mix
// revisits warm keys. completing counts the feeds that follow an
// earlier visit of their object and so complete a fragment; horizon is
// the latest record time fed (the dataset's, when the mix has no feed).
// seqs holds no empty visit.
func planJobs(base string, venues []string, seqs []c2mn.LabeledSequence, requests int, queryRatio float64, windows, k int, seed int64) (jobs []job, completing int, horizon float64) {
	rng := rand.New(rand.NewSource(seed))
	// Each venue feeds its visits under a pool of object ids. An object's
	// clock only moves forward: its next visit is shifted to start
	// η + 100 s after its last record, which closes the previous visit's
	// fragment on arrival.
	type object struct {
		id   string
		next float64       // earliest start of the next visit
		done chan struct{} // the previous visit's job
	}
	objs := map[string][]*object{}
	for _, v := range venues {
		for o := 0; o < objectsPerVenue; o++ {
			objs[v] = append(objs[v], &object{id: fmt.Sprintf("load-%s-%d", v, o)})
		}
	}

	// Feeds first: the span of time they cover is the horizon the query
	// windows are drawn over.
	jobs = make([]job, requests)
	fed := 0
	for i := range jobs {
		if rng.Float64() < queryRatio {
			jobs[i].query = true
			continue
		}
		visit := seqs[fed%len(seqs)].P.Records
		venue := venues[fed%len(venues)]
		obj := objs[venue][fed/len(venues)%objectsPerVenue]
		fed++
		shift := obj.next - visit[0].T
		records := make([]wireRecord, len(visit))
		for j, r := range visit {
			records[j] = wireRecord{X: r.Loc.X, Y: r.Loc.Y, Floor: r.Loc.Floor, T: r.T + shift}
		}
		body, err := json.Marshal(sequenceRequest{ObjectID: obj.id, Records: records})
		if err != nil {
			log.Fatal(err)
		}
		jobs[i] = job{url: base + "/v1/venues/" + venue + "/feed", body: body, prev: obj.done, done: make(chan struct{})}
		if obj.done != nil {
			completing++
		}
		horizon = math.Max(horizon, records[len(records)-1].T)
		obj.next, obj.done = records[len(records)-1].T+visitGap, jobs[i].done
	}

	// A mix without feeds still needs a time range to ask about.
	if fed == 0 {
		for _, ls := range seqs {
			horizon = math.Max(horizon, ls.P.Records[len(ls.P.Records)-1].T)
		}
	}

	// The window pool: distinct half-open slices of the fed time range.
	// Small enough that a steady query stream re-asks them.
	type span struct{ start, end float64 }
	spans := make([]span, windows)
	for i := range spans {
		lo := rng.Float64() * horizon / 2
		spans[i] = span{start: lo, end: lo + horizon/2}
	}
	for i := range jobs {
		if !jobs[i].query {
			continue
		}
		sp := spans[rng.Intn(len(spans))]
		kind := "popular-regions"
		if rng.Intn(2) == 1 {
			kind = "frequent-pairs"
		}
		scope := fmt.Sprintf("/v1/venues/%s/query/%s", venues[rng.Intn(len(venues))], kind)
		if rng.Intn(4) == 0 {
			scope = fmt.Sprintf("/v1/query/%s?scope=fleet&", kind)
		} else {
			scope += "?"
		}
		jobs[i].url = fmt.Sprintf("%s%sk=%d&start=%g&end=%g", base, scope, k, sp.start, sp.end)
	}
	return jobs, completing, horizon
}

// runJob issues one request, timing it and folding the outcome into
// the class stats. Query responses feed the ETag table; acknowledged
// feeds stamp the shared last-feed clock the watchers lag against.
func runJob(ctx context.Context, client *http.Client, jb job, queries, feeds *classStats, etagMu *sync.Mutex, etags map[string]string, lastFeedNano *atomic.Int64) {
	var req *http.Request
	var err error
	if jb.query {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, jb.url, nil)
		if err == nil {
			etagMu.Lock()
			if etag := etags[jb.url]; etag != "" {
				req.Header.Set("If-None-Match", etag)
			}
			etagMu.Unlock()
		}
	} else {
		defer close(jb.done)
		if jb.prev != nil {
			<-jb.prev
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, jb.url, bytes.NewReader(jb.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	resp, err := client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		// A transport failure counts as an error with the elapsed time
		// it burned; the run keeps going so one blip doesn't void it.
		cs := feeds
		if jb.query {
			cs = queries
		}
		cs.record(elapsed, 0)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if jb.query {
		if etag := resp.Header.Get("ETag"); etag != "" {
			etagMu.Lock()
			etags[jb.url] = etag
			etagMu.Unlock()
		}
		queries.record(elapsed, resp.StatusCode)
		return
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		lastFeedNano.Store(time.Now().UnixNano())
	}
	feeds.record(elapsed, resp.StatusCode)
}

// watchMarkdown renders the subscriber class for the CI job summary.
func watchMarkdown(n int, ws *watchStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n| watch (%d subscribers) | value |\n|---|---|\n", n)
	fmt.Fprintf(&b, "| events | %d |\n| lag p50 | %v |\n| lag p99 | %v |\n| resyncs | %d |\n| reconnects | %d |\n| goodbyes | %d |\n",
		ws.events, ws.percentile(0.50), ws.percentile(0.99), ws.resyncs, ws.reconnects, ws.goodbyes)
	return b.String()
}

// markdownSummary renders the run for a CI job summary.
func markdownSummary(total int, elapsed time.Duration, qps float64, queries, feeds *classStats, hits, misses, revals int64, hitRatio float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### msload\n\n")
	fmt.Fprintf(&b, "%d requests in %v (%.1f req/s)\n\n", total, elapsed.Round(time.Millisecond), qps)
	fmt.Fprintf(&b, "| class | requests | p50 | p99 | 304s | 429s | errors |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	fmt.Fprintf(&b, "| queries | %d | %v | %v | %d | %d | %d |\n",
		len(queries.latencies), queries.percentile(0.50), queries.percentile(0.99), queries.notMod, queries.throttled, queries.errors)
	fmt.Fprintf(&b, "| feeds | %d | %v | %v | %d | %d | %d |\n",
		len(feeds.latencies), feeds.percentile(0.50), feeds.percentile(0.99), feeds.notMod, feeds.throttled, feeds.errors)
	fmt.Fprintf(&b, "\n| server query cache | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| hits | %d |\n| misses | %d |\n| revalidations | %d |\n| hit ratio | %.3f |\n",
		hits, misses, revals, hitRatio)
	return b.String()
}
