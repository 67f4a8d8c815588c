package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"c2mn"
)

// The venue, the model and the population of visitors are the
// program's configuration, not its input: they are the same for every
// seed. What -seed draws is the schedule — which visitor comes when, to
// which venue, as which object — and the query plan. The cost of
// annotating a sequence varies between sequences by more than half its
// mean, so a population drawn anew per seed would move every timing by
// 5–30 % between seeds and hide any change smaller than that; with the
// population fixed, two seeds differ by their schedules and by
// measurement noise only.
const (
	venueSeed      = 1
	trainSeed      = 5
	populationSeed = 7

	// visitGap is the stream-time distance between one object's visits:
	// η + 100 s at the servers' default η = 300 s, so the first record
	// of a visit always closes — and so annotates — the previous one.
	visitGap = c2mn.DefaultEta + 100

	// objectsPerVenue objects take turns on each venue.
	objectsPerVenue = 16

	// allCounts asks for an untruncated answer: more than any venue's
	// region or region-pair count.
	allCounts = 1 << 20
)

// visitDurations are the three visit lengths, in equal shares
// (≈ 40, 100 and 200 records at T = 5 s).
var visitDurations = [...]float64{120, 300, 600}

// mallSpec is sim.MallBuilding(): the paper's venue profile, seven
// floors and 202 regions. It is spelled out because the end-to-end
// harness imports nothing below the root package.
func mallSpec() c2mn.BuildingSpec {
	return c2mn.BuildingSpec{
		Floors: 7, Columns: 15, RoomW: 10, RoomD: 12, HallW: 6,
		Stairs: 4, TargetRegions: 202, MultiFrac: 0.05,
	}
}

// mobility is the positioning noise of the repo's own annotation
// benchmarks (bench_test.go benchMobility): T 5 s, μ 3 m, 3 % false
// floors, 3 % outliers.
func mobility(objects int, duration float64) c2mn.MobilitySpec {
	return c2mn.MobilitySpec{
		Objects: objects, Duration: duration, MaxSpeed: 1.7,
		StayMin: 1, StayMax: 300, T: 5, Mu: 3,
		FalseFloorProb: 0.03, OutlierProb: 0.03,
	}
}

// world is everything a workload's preparation makes before any timer
// starts: venue, trained model, their serialised forms for the server
// binaries, and the seed's visits.
type world struct {
	seed      int64
	space     *c2mn.Space
	ann       *c2mn.Annotator
	spaceJSON []byte
	modelJSON []byte
	visits    []c2mn.LabeledSequence // the visit population; the same for every seed
	class     []int                  // each visit's length class, an index into visitDurations
	prepare   time.Duration
}

// newWorld pairs the fixed venue, model and population — built once
// per process, since nothing in them depends on the seed — with a
// seed.
func newWorld(seed int64) (*world, error) {
	base, err := baseWorld()
	if err != nil {
		return nil, err
	}
	w := *base
	w.seed = seed
	return &w, nil
}

var baseWorld = sync.OnceValues(buildWorld)

// buildWorld generates the venue, trains the model and generates the
// visit population.
func buildWorld() (*world, error) {
	start := time.Now()
	space, err := c2mn.GenerateBuilding(mallSpec(), venueSeed)
	if err != nil {
		return nil, fmt.Errorf("generating venue: %w", err)
	}
	train, err := c2mn.GenerateMobility(space, mobility(8, 1500), trainSeed)
	if err != nil {
		return nil, fmt.Errorf("generating training data: %w", err)
	}
	ann, err := c2mn.Train(space, train.Sequences, c2mn.TrainOptions{
		V: 10, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	w := &world{space: space, ann: ann}
	var buf bytes.Buffer
	if err := space.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encoding venue: %w", err)
	}
	w.spaceJSON = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := ann.Save(&buf); err != nil {
		return nil, fmt.Errorf("encoding model: %w", err)
	}
	w.modelJSON = append([]byte(nil), buf.Bytes()...)
	// Everything in process runs on the venue and model as the servers
	// will load them — decoded from the same bytes — so that in-process
	// answers and wire answers can be compared byte for byte.
	if w.space, err = c2mn.ReadSpace(bytes.NewReader(w.spaceJSON)); err != nil {
		return nil, fmt.Errorf("decoding venue: %w", err)
	}
	if w.ann, err = c2mn.Load(w.space, bytes.NewReader(w.modelJSON)); err != nil {
		return nil, fmt.Errorf("decoding model: %w", err)
	}

	per := (visitPool + len(visitDurations) - 1) / len(visitDurations)
	for i, d := range visitDurations {
		ds, err := c2mn.GenerateMobility(space, mobility(per, d), populationSeed*7919+int64(i))
		if err != nil {
			return nil, fmt.Errorf("generating visits: %w", err)
		}
		for _, ls := range ds.Sequences {
			// A visit shorter than ψ would be dropped by the server
			// and break the one-feed-one-sequence accounting.
			if ls.P.Duration() > c2mn.DefaultPsi {
				w.visits = append(w.visits, roundSequence(ls))
				w.class = append(w.class, i)
			}
		}
	}
	if len(w.visits) == 0 {
		return nil, fmt.Errorf("no visits generated")
	}
	w.prepare = time.Since(start)
	return w, nil
}

// longSequences generates the population of n test sequences of
// 1500 s lives (≈ 500 records), the paper's long-sequence case, in the
// seed's order.
func (w *world) longSequences(n int) ([]c2mn.LabeledSequence, error) {
	ds, err := c2mn.GenerateMobility(w.space, mobility(n, 1500), populationSeed*7919+100)
	if err != nil {
		return nil, fmt.Errorf("generating test sequences: %w", err)
	}
	seqs := ds.Sequences
	rand.New(rand.NewSource(w.seed)).Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	return seqs, nil
}

// roundSequence rounds coordinates and times to millimetres and
// milliseconds, so that the JSON a server parses and the records an
// in-process reference is fed hold exactly the same floats.
func roundSequence(ls c2mn.LabeledSequence) c2mn.LabeledSequence {
	recs := make([]c2mn.Record, len(ls.P.Records))
	for i, r := range ls.P.Records {
		r.Loc.X = round3(r.Loc.X)
		r.Loc.Y = round3(r.Loc.Y)
		r.T = round3(r.T)
		recs[i] = r
	}
	ls.P.Records = recs
	return ls
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// feed is one pre-encoded completing feed: object o's next visit,
// shifted visitGap past its previous one.
type feed struct {
	object    string
	records   []c2mn.Record
	body      []byte
	visit     int // index into world.visits
	completes int // sequences it closes: 0 for an object's first visit, else 1
}

// deal puts the population — or, with only, the visits v that have
// only[v] — in the seed's order: each length class shuffled by the
// seed, then the classes interleaved. Any run of consecutive visits
// therefore holds the three lengths in equal shares whatever the seed;
// a plain shuffle would let short runs, such as a probe's hundred
// feeds, lean towards one length and move every median with it.
func (w *world) deal(only []bool) []int {
	classes := make([][]int, len(visitDurations))
	for v, c := range w.class {
		if only == nil || only[v] {
			classes[c] = append(classes[c], v)
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	longest := 0
	for _, c := range classes {
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		longest = max(longest, len(c))
	}
	var order []int
	for i := 0; i < longest; i++ {
		for _, c := range classes {
			if len(c) > 0 {
				order = append(order, c[i%len(c)])
			}
		}
	}
	return order
}

// feedStream deals a venue's visits to its objects in rotation. Each
// stream starts at its own offset into the order so that two venues do
// not replay the same visits in step.
type feedStream struct {
	w      *world
	order  []int                    // visits in dealing order, cycled through
	next   int                      // position in order
	turn   int                      // next object
	dealt  int                      // feeds dealt so far
	clock  [objectsPerVenue]float64 // stream time each object has reached
	prefix string
}

func (w *world) newFeedStream(prefix string, order []int, offset int) *feedStream {
	return &feedStream{w: w, order: order, next: offset % len(order), prefix: prefix}
}

// take returns the stream's next n feeds.
func (fs *feedStream) take(n int) []feed {
	out := make([]feed, n)
	for i := range out {
		v := fs.order[fs.next]
		fs.next = (fs.next + 1) % len(fs.order)
		o := fs.turn
		fs.turn = (fs.turn + 1) % objectsPerVenue
		src := fs.w.visits[v].P.Records
		recs := make([]c2mn.Record, len(src))
		shift := fs.clock[o]
		for j, r := range src {
			r.T = round3(r.T + shift)
			recs[j] = r
		}
		fs.clock[o] = round3(recs[len(recs)-1].T + visitGap)
		f := feed{object: fs.prefix + strconv.Itoa(o), records: recs, visit: v}
		if fs.dealt >= objectsPerVenue {
			f.completes = 1
		}
		fs.dealt++
		f.body = encodeFeed(f.object, recs)
		out[i] = f
	}
	return out
}

// horizon is the stream time the stream has reached: queries window
// over [0, horizon].
func (fs *feedStream) horizon() float64 {
	h := 0.0
	for _, c := range fs.clock {
		h = math.Max(h, c)
	}
	return h
}

// encodeFeed writes the /feed request body by hand: preparation
// encodes tens of thousands of these and encoding/json would dominate
// it.
func encodeFeed(object string, recs []c2mn.Record) []byte {
	b := make([]byte, 0, 40+52*len(recs))
	b = append(b, `{"object_id":`...)
	b = strconv.AppendQuote(b, object)
	b = append(b, `,"records":[`...)
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		b = strconv.AppendFloat(b, r.Loc.X, 'f', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, r.Loc.Y, 'f', -1, 64)
		b = append(b, `,"floor":`...)
		b = strconv.AppendInt(b, int64(r.Loc.Floor), 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendFloat(b, r.T, 'f', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// Query classes of the seeded plan.
const (
	classRepeat = iota // R: one of a small pool of windows, ETag replayed
	classMiss          // M: a window never asked before
	classFleet         // F: POST /v1/query, fleet scope
	numClasses
)

var className = [numClasses]string{"repeat", "miss", "fleet"}

// queryReq is one planned query. slot indexes the client's ETag memory
// and is -1 for a query that is never repeated.
type queryReq struct {
	class  int
	method string
	path   string // with query string
	body   []byte // POST only
	slot   int
	q      c2mn.Query // the same query for the in-process twin
}

// queryPlan builds the seeded query mix. Windows cover [0, horizon]:
// the repeat pool holds 8 windows × 2 kinds per venue, every miss gets
// a start no other query has, fleet queries come from a pool of 8.
// The seed chooses venues and windows.
type queryPlan struct {
	rng     *rand.Rand
	venues  []string
	horizon float64
	lane    int
	misses  int
	drawn   int             // queries drawn by next
	kinds   [numClasses]int // queries drawn per class, for the kind rotation
}

// newQueryPlan makes the plan of one query client. lane tells the
// clients of a run apart: it varies their draws and keeps their class M
// windows distinct from each other's.
func newQueryPlan(seed int64, lane int, venues []string, horizon float64) *queryPlan {
	return &queryPlan{
		rng:    rand.New(rand.NewSource(seed*31 + int64(lane))),
		lane:   lane,
		venues: venues, horizon: horizon,
	}
}

// take pre-generates the plan's next n queries.
func (qp *queryPlan) take(n int) []queryReq {
	out := make([]queryReq, n)
	for i := range out {
		out[i] = qp.next()
	}
	return out
}

const (
	repeatPool = 8
	fleetPool  = 8
	maxLanes   = 4 // query clients per run, at most
)

var queryKinds = [...]c2mn.QueryKind{c2mn.QueryPopularRegions, c2mn.QueryFrequentPairs}

// slots is the size of the ETag memory a client of this plan needs.
func (qp *queryPlan) slots() int {
	return len(qp.venues)*repeatPool*len(queryKinds) + fleetPool*len(queryKinds)
}

func (qp *queryPlan) poolWindow(j, pool int) c2mn.Window {
	span := qp.horizon / 2
	start := round3(float64(j) * (qp.horizon - span) / float64(pool-1))
	return c2mn.Window{Start: start, End: round3(start + span)}
}

// classCycle is the plan's class mix, 60 % R, 30 % M and 10 % F, as a
// fixed rotation: the shares are then exact in any run of ten queries
// rather than binomial draws that move a throughput figure by a
// percent or two between seeds.
var classCycle = [...]int{classRepeat, classRepeat, classMiss, classRepeat, classRepeat, classMiss, classRepeat, classRepeat, classMiss, classFleet}

// kindCycle asks for popular regions twice as often as for frequent
// pairs. A pairs scan costs several times a regions scan; at equal
// shares a class's median would sit on the edge between the two and
// jump from one to the other between runs.
var kindCycle = [...]c2mn.QueryKind{c2mn.QueryPopularRegions, c2mn.QueryPopularRegions, c2mn.QueryFrequentPairs}

// next draws the plan's next query. Class and kind follow their
// rotations; venue and window are the seed's.
func (qp *queryPlan) next() queryReq {
	class := classCycle[qp.drawn%len(classCycle)]
	qp.drawn++
	switch class {
	case classRepeat:
		return qp.repeat(qp.rng.Intn(len(qp.venues)))
	case classMiss:
		return qp.miss(qp.rng.Intn(len(qp.venues)))
	default:
		return qp.fleet()
	}
}

// kind is the next kind of the given class's rotation.
func (qp *queryPlan) kind(class int) c2mn.QueryKind {
	k := kindCycle[qp.kinds[class]%len(kindCycle)]
	qp.kinds[class]++
	return k
}

// repeat draws a class R query on the plan's vi-th venue.
func (qp *queryPlan) repeat(vi int) queryReq {
	kind, j := qp.kind(classRepeat), qp.rng.Intn(repeatPool)
	slot := (vi*repeatPool+j)*len(queryKinds) + kindIndex(kind)
	return venueQuery(classRepeat, qp.venues[vi], kind, qp.poolWindow(j, repeatPool), slot)
}

// fleet draws a class F query.
func (qp *queryPlan) fleet() queryReq {
	kind, j := qp.kind(classFleet), qp.rng.Intn(fleetPool)
	slot := len(qp.venues)*repeatPool*len(queryKinds) + j*len(queryKinds) + kindIndex(kind)
	return fleetQuery(kind, qp.poolWindow(j, fleetPool), slot)
}

// miss builds a class M query on the plan's vi-th venue: its window
// start is one no earlier query had, so the engine's result cache
// cannot hold it and the index is scanned.
func (qp *queryPlan) miss(vi int) queryReq {
	venue, kind := qp.venues[vi], qp.kind(classMiss)
	qp.misses++
	span := qp.horizon / 2
	start := round3(qp.rng.Float64()*(qp.horizon-span)) + float64(qp.misses*maxLanes+qp.lane)*1e-6
	return venueQuery(classMiss, venue, kind, c2mn.Window{Start: start, End: round3(start + span)}, -1)
}

func kindIndex(k c2mn.QueryKind) int {
	if k == c2mn.QueryFrequentPairs {
		return 1
	}
	return 0
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// venueQuery is a venue-scoped GET on the canonical sugar route.
func venueQuery(class int, venue string, kind c2mn.QueryKind, w c2mn.Window, slot int) queryReq {
	win := w
	return queryReq{
		class: class, method: "GET", slot: slot,
		path: "/v1/venues/" + venue + "/query/" + string(kind) +
			"?k=10&start=" + fmtFloat(w.Start) + "&end=" + fmtFloat(w.End),
		q: c2mn.Query{Kind: kind, Scope: c2mn.ScopeVenue, Venues: []string{venue}, Window: &win, K: 10},
	}
}

// fleetQuery is a fleet-scoped POST /v1/query.
func fleetQuery(kind c2mn.QueryKind, w c2mn.Window, slot int) queryReq {
	win := w
	body := `{"kind":"` + string(kind) + `","scope":"fleet","k":10,"window":{"start":` +
		fmtFloat(w.Start) + `,"end":` + fmtFloat(w.End) + `}}`
	return queryReq{
		class: classFleet, method: "POST", path: "/v1/query", body: []byte(body), slot: slot,
		q: c2mn.Query{Kind: kind, Scope: c2mn.ScopeFleet, Window: &win, K: 10},
	}
}

// fullQueries are the untruncated venue answers the output checks
// compare byte for byte.
func fullQueries(venue string) []queryReq {
	var out []queryReq
	for _, kind := range queryKinds {
		body := `{"kind":"` + string(kind) + `","scope":"venue","venues":["` + venue + `"],"k":` +
			strconv.Itoa(allCounts) + `}`
		out = append(out, queryReq{
			class: classMiss, method: "POST", path: "/v1/query", body: []byte(body), slot: -1,
			q: c2mn.Query{Kind: kind, Scope: c2mn.ScopeVenue, Venues: []string{venue}, K: allCounts},
		})
	}
	return out
}

// planDigest hashes every request body and path of a plan, in order:
// the same seed must give the same digest.
func digestPlan(feeds [][]feed, queries []queryReq) string {
	h := sha256.New()
	for _, fs := range feeds {
		for _, f := range fs {
			h.Write(f.body)
		}
	}
	for _, q := range queries {
		h.Write([]byte(q.method))
		h.Write([]byte(q.path))
		h.Write(q.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
