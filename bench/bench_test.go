package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"c2mn/internal/eval"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, // p90 would leave 9.9 samples beyond it
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("median reordered its input")
	}
	if got := percentile([]float64{0, 10}, 0.9); math.Abs(got-9) > 1e-12 {
		t.Errorf("percentile interpolation = %v, want 9", got)
	}
}

// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 2], n=4) is [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", StartNs: 90, EndNs: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "leaf", StartNs: 25, EndNs: 35},
		{ID: 6, Name: "root", StartNs: 200, EndNs: 210}, // childless
	}
	self := selfTimes(spans)
	// root: 100 − (10..50 ∪ 90..100) = 50, plus the childless 10.
	want := map[string]int64{"root": 60, "a": 20, "b": 20 + 30, "leaf": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin(0, tr.request(), "x"))
	tr.count("y", 1)
	on := newTracer()
	id := on.begin(0, on.request(), "x")
	on.end(id)
	if len(on.spans) != 1 || on.spans[0].EndNs < on.spans[0].StartNs || on.spans[0].Request != 1 {
		t.Errorf("span not recorded: %+v", on.spans)
	}
}

// A slow call in an open loop makes the calls after it late, and none
// is skipped: lateness is measured from the due time.
func TestOpenLoopLateness(t *testing.T) {
	const period = 20 * time.Millisecond
	var calls []int
	late := openLoop(context.Background(), time.Now(), period, 5, func(i int, due time.Time) {
		calls = append(calls, i)
		if i == 0 {
			time.Sleep(50 * time.Millisecond) // past the second and third due times
		}
	})
	if !reflect.DeepEqual(calls, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("calls = %v", calls)
	}
	if late[1] < 25 || late[2] < 5 {
		t.Errorf("calls behind a 50 ms stall were %.1f and %.1f ms late, want ≥ 25 and ≥ 5", late[1], late[2])
	}
	if late[4] > 15 {
		t.Errorf("the loop did not catch up: last call %.1f ms late", late[4])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := openLoop(ctx, time.Now().Add(time.Hour), period, 3, func(int, time.Time) { t.Error("called after cancel") }); len(got) != 0 {
		t.Errorf("cancelled loop reported %d sends", len(got))
	}
}

func TestWatchLagAttribution(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	due := []time.Time{at(0), at(100), at(200), at(300)}
	frames := []frame{
		{at: at(7), event: "delta", id: "probe:5"},
		{at: at(9), event: "delta", id: "probe:6"},        // a second frame for the same feed
		{at: at(150), event: "delta", id: "other:9"},      // names another venue
		{at: at(260), event: "resync", id: "a:1;probe:7"}, // composite id
		{at: at(305), event: "goodbye", id: "probe:7"},    // carries no data
	}
	lags, unmatched := watchLags(due, frames, "probe")
	if !reflect.DeepEqual(lags, []float64{7, 60}) || unmatched != 2 {
		t.Errorf("lags = %v, unmatched = %d; want [7 60], 2", lags, unmatched)
	}
}

func TestReadFrames(t *testing.T) {
	stream := "event: snapshot\nid: probe:3\ndata: {}\n\n: hb\n\nevent: delta\nid: probe:4\ndata: {\"x\":1}\n\n"
	var got []frame
	if err := readFrames(strings.NewReader(stream), func(f frame) { got = append(got, f) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].event != "snapshot" || got[1].id != "probe:4" {
		t.Errorf("frames = %+v", got)
	}
}

func TestSplitTraceFlag(t *testing.T) {
	cases := map[string][]string{
		"--workload x --trace 0 --seed 2": {"--workload", "x", "-trace=0", "--seed", "2"},
		"-trace 1":                        {"-trace=1"},
		"-trace -seed 3":                  {"-trace=1", "-seed", "3"},
		"-seed 3 -trace":                  {"-seed", "3", "-trace=1"},
		"-trace=0":                        {"-trace=0"},
	}
	for in, want := range cases {
		if got := splitTraceFlag(strings.Fields(in)); !reflect.DeepEqual(got, want) {
			t.Errorf("splitTraceFlag(%q) = %v, want %v", in, got, want)
		}
	}
}

func worldOf(t *testing.T, seed int64) *world {
	t.Helper()
	w, err := newWorld(seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// planOf builds a small plan of every request kind from a world.
func planOf(w *world) string {
	a := w.newFeedStream("a-", w.deal(nil), 0)
	b := w.newFeedStream("b-", w.deal(nil), visitPool/2)
	feeds := [][]feed{a.take(40), b.take(40)}
	qp := newQueryPlan(w.seed, 0, []string{"a", "b"}, a.horizon())
	return digestPlan(feeds, qp.take(200))
}

// The same seed gives the same request bodies, byte for byte; another
// seed gives others.
func TestSeededPlanDeterminism(t *testing.T) {
	d1, d1b, d2 := planOf(worldOf(t, 1)), planOf(worldOf(t, 1)), planOf(worldOf(t, 2))
	if d1 != d1b {
		t.Errorf("seed 1 gave two plans: %s and %s", d1, d1b)
	}
	if d1 == d2 {
		t.Errorf("seeds 1 and 2 gave the same plan %s", d1)
	}
}

func TestFeedStreamCompletesAndOrders(t *testing.T) {
	w := worldOf(t, 1)
	fs := w.newFeedStream("x-", w.deal(nil), 3)
	feeds := fs.take(3 * objectsPerVenue)
	last := map[string]float64{}
	for i, f := range feeds {
		want := 1
		if i < objectsPerVenue {
			want = 0
		}
		if f.completes != want {
			t.Fatalf("feed %d completes %d, want %d", i, f.completes, want)
		}
		if prev, ok := last[f.object]; ok && f.records[0].T-prev <= 300 {
			t.Fatalf("feed %d starts %.1f s after the object's last record: does not cross η", i, f.records[0].T-prev)
		}
		last[f.object] = f.records[len(f.records)-1].T
		var decoded struct {
			ObjectID string `json:"object_id"`
			Records  []struct {
				X, Y  float64
				Floor int
				T     float64
			} `json:"records"`
		}
		if err := json.Unmarshal(f.body, &decoded); err != nil {
			t.Fatalf("feed %d body: %v", i, err)
		}
		if decoded.ObjectID != f.object || len(decoded.Records) != len(f.records) {
			t.Fatalf("feed %d body does not match its records", i)
		}
		for j, r := range decoded.Records {
			if r.X != f.records[j].Loc.X || r.Y != f.records[j].Loc.Y || r.Floor != f.records[j].Loc.Floor || r.T != f.records[j].T {
				t.Fatalf("feed %d record %d: body and in-process record differ", i, j)
			}
		}
	}
}

// The harness computes the paper's combined accuracy itself, because
// its end-to-end part imports nothing below the root package; it must
// agree with internal/eval.
func TestAccuracyMatchesEval(t *testing.T) {
	w := worldOf(t, 1)
	var mine accuracy
	var theirs eval.Counter
	for i := 0; i < 10; i++ {
		labels, _, err := w.ann.Annotate(&w.visits[i].P)
		if err != nil {
			t.Fatal(err)
		}
		mine.add(w.visits[i].Labels, labels)
		if err := theirs.Add(w.visits[i].Labels, labels); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := mine.combined(), theirs.Result(eval.DefaultLambda).CA; math.Abs(got-want) > 1e-12 {
		t.Errorf("combined accuracy %v, eval says %v", got, want)
	}
}

// BENCHMARK.json and the catalogue must name the same workloads and
// metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, catalogue has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, wl := range doc.Workloads {
		if wl.Name != workloadNames[i] || wl.Why != workloadWhy[wl.Name] || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %d: %q does not match the catalogue", i, wl.Name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, catalogue has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v does not match catalogue %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound does not match the catalogue's %v", kind, m.Name, d.bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if strings.Join(doc.Command, " ") != "go run ./bench" || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
}

// A short annotate-batch run end to end: every end-to-end metric is
// measured, non-zero, and every output check holds.
func TestAnnotateBatchSmoke(t *testing.T) {
	s, err := newSite()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rep, err := runWorkload(s, options{workload: "annotate-batch", seed: 1, seconds: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Errorf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.problems)
	}
	for _, d := range endToEnd {
		if m, ok := rep.values[d.name]; !ok || !(m.Value > 0) || m.N == 0 {
			t.Errorf("%s = %+v, want a positive measurement", d.name, m)
		}
	}
}
