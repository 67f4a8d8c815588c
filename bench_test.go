package c2mn

// One benchmark per table and figure of the paper's evaluation
// (§V; see DESIGN.md §5 for the experiment index). Each benchmark
// regenerates its table/figure through the internal/experiments driver
// and prints the same rows/series the paper reports, plus key cells as
// benchmark metrics.
//
// The workload scale defaults to "small" (the paper's venue profiles
// at container-sized workloads); set C2MN_BENCH_SCALE=tiny for smoke
// runs or =paper for the full-parameter configuration.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"c2mn/internal/core"
	"c2mn/internal/experiments"
	"c2mn/internal/notify"
	"c2mn/internal/query"
	"c2mn/internal/snapshot"
)

func benchScale(b *testing.B) experiments.Scale {
	name := os.Getenv("C2MN_BENCH_SCALE")
	if name == "" {
		name = "small"
	}
	sc, ok := experiments.ScaleByName(name)
	if !ok {
		b.Fatalf("unknown C2MN_BENCH_SCALE %q", name)
	}
	return sc
}

// Several figures share one combined driver (e.g. Figs. 14–16 all come
// from TSweep). The first benchmark of a group pays the full cost; the
// others reuse the cached tables, so their ns/op reflects only the
// slicing. The printed series are identical either way.
var (
	sweepMu    sync.Mutex
	sweepCache = map[string][]*experiments.Table{}
)

func cachedSweep(b *testing.B, key string, run func() ([]*experiments.Table, error)) []*experiments.Table {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if t, ok := sweepCache[key]; ok {
		return t
	}
	t, err := run()
	if err != nil {
		b.Fatal(err)
	}
	sweepCache[key] = t
	return t
}

// printOnce renders the tables on the first iteration only.
func printOnce(i int, tables ...*experiments.Table) {
	if i != 0 {
		return
	}
	for _, t := range tables {
		if t != nil {
			t.Fprint(os.Stdout)
		}
	}
}

func BenchmarkTable3DatasetStatistics(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table3(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		b.ReportMetric(t.Cell("mall", "records"), "records")
	}
}

func BenchmarkTable4LabelingAccuracy(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table4(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		b.ReportMetric(t.Cell("C2MN", "CA"), "C2MN-CA")
		b.ReportMetric(t.Cell("C2MN", "PA"), "C2MN-PA")
		b.ReportMetric(t.Cell("CMN", "CA"), "CMN-CA")
		b.ReportMetric(t.Cell("SMoT", "CA"), "SMoT-CA")
	}
}

func BenchmarkTable5SyntheticDatasets(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table5(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		b.ReportMetric(t.Cell("T5u7", "records"), "T5u7-records")
	}
}

func BenchmarkFig5CombinedAccuracyVsTrainingFraction(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/frac", func() ([]*experiments.Table, error) {
			ca, pa, err := experiments.TrainingFractionSweep(sc)
			return []*experiments.Table{ca, pa}, err
		})
		ca, pa := ts[0], ts[1]
		printOnce(i, ca, pa)
		b.ReportMetric(ca.Cell("C2MN", "40%"), "C2MN-CA-40")
		b.ReportMetric(ca.Cell("C2MN", "80%"), "C2MN-CA-80")
	}
}

func BenchmarkFig6PerfectAccuracyVsTrainingFraction(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/frac", func() ([]*experiments.Table, error) {
			ca, pa, err := experiments.TrainingFractionSweep(sc)
			return []*experiments.Table{ca, pa}, err
		})
		pa := ts[1]
		printOnce(i, pa)
		b.ReportMetric(pa.Cell("C2MN", "70%"), "C2MN-PA-70")
	}
}

func BenchmarkFig7RegionAccuracyVsM(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/msweep", func() ([]*experiments.Table, error) {
			ra, ea, err := experiments.MSweep(sc)
			return []*experiments.Table{ra, ea}, err
		})
		ra, ea := ts[0], ts[1]
		printOnce(i, ra, ea)
		b.ReportMetric(ra.Cell("C2MN", ra.ColNames[len(ra.ColNames)-1]), "C2MN-RA-maxM")
	}
}

func BenchmarkFig8EventAccuracyVsM(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/msweep", func() ([]*experiments.Table, error) {
			ra, ea, err := experiments.MSweep(sc)
			return []*experiments.Table{ra, ea}, err
		})
		ea := ts[1]
		printOnce(i, ea)
		b.ReportMetric(ea.Cell("C2MN", ea.ColNames[0]), "C2MN-EA-minM")
	}
}

func BenchmarkFig9TrainingTimeVsMaxIter(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.MaxIterSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		last := t.ColNames[len(t.ColNames)-1]
		b.ReportMetric(t.Cell("C2MN", last), "C2MN-secs")
		b.ReportMetric(t.Cell("CMN", last), "CMN-secs")
	}
}

func BenchmarkFig10TrainingTimeVsTrainingFraction(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.TrainingTimeVsFraction(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		b.ReportMetric(t.Cell("C2MN", "80%"), "C2MN-secs-80")
	}
}

func BenchmarkFig11FirstConfiguredVariable(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.FirstConfiguredVariable(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		last := t.ColNames[len(t.ColNames)-1]
		b.ReportMetric(t.Cell("C2MN", last), "E-first-secs")
		b.ReportMetric(t.Cell("C2MN@R", last), "R-first-secs")
	}
}

func BenchmarkFig12TkPRQPrecision(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/query", func() ([]*experiments.Table, error) {
			a, bq, err := experiments.QueryPrecision(sc)
			return []*experiments.Table{a, bq}, err
		})
		tkprq, tkfrpq := ts[0], ts[1]
		printOnce(i, tkprq, tkfrpq)
		b.ReportMetric(tkprq.Cell("C2MN", tkprq.ColNames[len(tkprq.ColNames)-1]), "C2MN-prec-maxQT")
	}
}

func BenchmarkFig13TkFRPQPrecision(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/query", func() ([]*experiments.Table, error) {
			a, bq, err := experiments.QueryPrecision(sc)
			return []*experiments.Table{a, bq}, err
		})
		tkfrpq := ts[1]
		printOnce(i, tkfrpq)
		b.ReportMetric(tkfrpq.Cell("C2MN", tkfrpq.ColNames[0]), "C2MN-prec-minQT")
	}
}

func BenchmarkFig14PerfectAccuracyVsT(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/tsweep", func() ([]*experiments.Table, error) {
			a, bq, c, err := experiments.TSweep(sc)
			return []*experiments.Table{a, bq, c}, err
		})
		pa := ts[0]
		printOnce(i, ts...)
		b.ReportMetric(pa.Cell("C2MN", "T=5s"), "C2MN-PA-T5")
		b.ReportMetric(pa.Cell("C2MN", "T=15s"), "C2MN-PA-T15")
	}
}

func BenchmarkFig15TkPRQPrecisionVsT(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/tsweep", func() ([]*experiments.Table, error) {
			a, bq, c, err := experiments.TSweep(sc)
			return []*experiments.Table{a, bq, c}, err
		})
		tkprq := ts[1]
		printOnce(i, tkprq)
		b.ReportMetric(tkprq.Cell("C2MN", "T=15s"), "C2MN-prec-T15")
	}
}

func BenchmarkFig16TkFRPQPrecisionVsT(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/tsweep", func() ([]*experiments.Table, error) {
			a, bq, c, err := experiments.TSweep(sc)
			return []*experiments.Table{a, bq, c}, err
		})
		tkfrpq := ts[2]
		printOnce(i, tkfrpq)
		b.ReportMetric(tkfrpq.Cell("C2MN", "T=15s"), "C2MN-prec-T15")
	}
}

func BenchmarkFig17PerfectAccuracyVsMu(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/musweep", func() ([]*experiments.Table, error) {
			a, bq, c, err := experiments.MuSweep(sc)
			return []*experiments.Table{a, bq, c}, err
		})
		pa := ts[0]
		printOnce(i, ts...)
		b.ReportMetric(pa.Cell("C2MN", "mu=3m"), "C2MN-PA-mu3")
		b.ReportMetric(pa.Cell("C2MN", "mu=7m"), "C2MN-PA-mu7")
	}
}

func BenchmarkFig18TkPRQPrecisionVsMu(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/musweep", func() ([]*experiments.Table, error) {
			a, bq, c, err := experiments.MuSweep(sc)
			return []*experiments.Table{a, bq, c}, err
		})
		tkprq := ts[1]
		printOnce(i, tkprq)
		b.ReportMetric(tkprq.Cell("C2MN", "mu=7m"), "C2MN-prec-mu7")
	}
}

func BenchmarkFig19TkFRPQPrecisionVsMu(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		ts := cachedSweep(b, sc.Name+"/musweep", func() ([]*experiments.Table, error) {
			a, bq, c, err := experiments.MuSweep(sc)
			return []*experiments.Table{a, bq, c}, err
		})
		tkfrpq := ts[2]
		printOnce(i, tkfrpq)
		b.ReportMetric(tkfrpq.Cell("C2MN", "mu=7m"), "C2MN-prec-mu7")
	}
}

func BenchmarkAblationExactVsMCMCGradient(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationExactVsMCMC(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		b.ReportMetric(t.Cell("Algorithm1", "RA"), "alg1-RA")
		b.ReportMetric(t.Cell("ExactPL", "RA"), "exact-RA")
	}
}

func BenchmarkAblationCandidateRadius(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationCandidateRadius(sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		b.ReportMetric(t.Cells[len(t.RowNames)-1][3], "avg-cands-maxV")
	}
}

// BenchmarkAnnotationLatency measures the per-sequence annotation cost
// of a trained model — the paper reports <600 ms for a ~100-record
// sequence (§V-B1).
func BenchmarkAnnotationLatency(b *testing.B) {
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	test := data[len(data)/2:]
	records := 0
	for i := range test {
		records += test[i].P.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range test {
			if _, _, err := ann.Annotate(&test[j].P); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(records)/float64(len(test)), "records/seq")
}

func benchAnnotationWorld(b testing.TB) (*Space, []LabeledSequence) {
	b.Helper()
	sc := experiments.Tiny()
	space, err := GenerateBuilding(sc.MallSpec, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := benchMobility()
	ds, err := GenerateMobility(space, spec, 5)
	if err != nil {
		b.Fatal(err)
	}
	return space, ds.Sequences
}

func benchMobility() MobilitySpec {
	return MobilitySpec{
		Objects:        10,
		Duration:       1500,
		MaxSpeed:       1.7,
		StayMin:        1,
		StayMax:        300,
		T:              5,
		Mu:             3,
		FalseFloorProb: 0.03,
		OutlierProb:    0.03,
	}
}

// BenchmarkAnnotateSingleSequence measures the steady-state cost of
// annotating one sequence through the pooled-workspace path — the
// per-request hot path of cmd/msserve. allocs/op covers only the
// returned labels and m-semantics once the pool is warm.
func BenchmarkAnnotateSingleSequence(b *testing.B) {
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := &data[len(data)/2].P
	if _, _, err := ann.Annotate(p); err != nil { // warm the pool
		b.Fatal(err)
	}
	b.ReportMetric(float64(p.Len()), "records/seq")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ann.Annotate(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := annotateStats(b, ann, p)
	b.ReportMetric(float64(st.RegionEvals+st.EventEvals)/float64(p.Len()), "evals/record")
}

// annotateStats annotates p on a pooled inference state and returns
// the workspace's work counters for that run.
func annotateStats(tb testing.TB, ann *Annotator, p *PSequence) core.SweepStats {
	tb.Helper()
	st := ann.pool.Get().(*inferState)
	defer ann.pool.Put(st)
	if _, _, err := ann.annotateWith(st, p, 0, 0, AnnotateOptions{}); err != nil {
		tb.Fatal(err)
	}
	return st.ws.Stats()
}

// TestAnnotateWorkCountsPinned pins the inference work on the
// BenchmarkAnnotateSingleSequence world: node evaluations, run pricings
// and accepted moves per chain over its five test sequences. The scoring
// kernels may get cheaper, but an optimisation that keeps these counts
// made the same move sequence — a stronger statement than identical
// final labels — and one that changes them changed the search.
func TestAnnotateWorkCountsPinned(t *testing.T) {
	space, data := benchAnnotationWorld(t)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got core.SweepStats
	for _, ls := range data[len(data)/2:] {
		st := annotateStats(t, ann, &ls.P)
		got.Sweeps += st.Sweeps
		got.BlockSweeps += st.BlockSweeps
		got.RegionEvals += st.RegionEvals
		got.EventEvals += st.EventEvals
		got.RunPricings += st.RunPricings
		got.RegionMoves += st.RegionMoves
		got.EventMoves += st.EventMoves
		got.BlockMoves += st.BlockMoves
	}
	want := core.SweepStats{
		Sweeps: 395, BlockSweeps: 100,
		RegionEvals: 34147, EventEvals: 28559, RunPricings: 4955,
		RegionMoves: 912, EventMoves: 115, BlockMoves: 260,
	}
	if got != want {
		t.Fatalf("work counts over the 5 test sequences:\n got %+v\nwant %+v", got, want)
	}
}

// BenchmarkAnnotateStayLength annotates one synthetic stay — an object
// dwelling around a region's centroid for `stay` records — and reports
// ns/record. The inference kernels look label runs up in the maintained
// run index instead of rescanning them, so the per-record cost must not
// grow with the length of the stay: the benchmark fails when stay=800
// costs more than 1.5× stay=50 per record (rescanning costs ~7×). CI
// also gates the stay=800 row against ci/BENCH_baseline.json at 2×.
func BenchmarkAnnotateStayLength(b *testing.B) {
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	c := space.RegionCentroid(0)
	perRecord := map[int]float64{}
	for _, stay := range []int{50, 200, 800} {
		rng := rand.New(rand.NewSource(7))
		p := &PSequence{ObjectID: "stay"}
		for i := 0; i < stay; i++ {
			l := Loc(c.X+1.5*rng.NormFloat64(), c.Y+1.5*rng.NormFloat64(), c.Floor)
			p.Records = append(p.Records, Record{Loc: l, T: 5 * float64(i)})
		}
		b.Run(fmt.Sprintf("stay=%d", stay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ann.Annotate(p); err != nil {
					b.Fatal(err)
				}
			}
			perRecord[stay] = float64(b.Elapsed().Nanoseconds()) / float64(b.N*stay)
			b.ReportMetric(perRecord[stay], "ns/record")
		})
	}
	if short, long := perRecord[50], perRecord[800]; short > 0 && long > 1.5*short {
		b.Errorf("ns/record grows with stay length: %.0f at stay=800 vs %.0f at stay=50 (%.2f×, limit 1.5×)", long, short, long/short)
	}
}

// BenchmarkAnnotateThroughput measures sustained annotation throughput
// — sequences per second at fixed concurrency (GOMAXPROCS workers
// sharing the workspace pool) — the serving SLO a fleet's capacity
// planning divides by. The seqs/s custom metric is gated in CI (see
// ci/BENCH_baseline.json): cmd/benchjson fails the job when it drops
// below half the committed baseline, the higher-is-better analogue of
// the ns/op ratchet.
func BenchmarkAnnotateThroughput(b *testing.B) {
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	test := data[len(data)/2:]
	if _, _, err := ann.Annotate(&test[0].P); err != nil { // warm the pool
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := &test[int(next.Add(1))%len(test)].P
			if _, _, err := ann.Annotate(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
}

// BenchmarkAnnotateThroughputWatch is BenchmarkAnnotateThroughput with
// the push plane live: the engine publishes every store generation
// move into a notify hub carrying four standing subscribers, each
// re-executing its top-k on every signal, while a background feeder
// keeps the store moving for the whole measured window. Its seqs/s is
// deliberately NOT gated — the gated baseline stays the
// subscriber-free benchmark above — but both land in BENCH_infer.json,
// so a push plane that taxes the annotate path shows up as a widening
// gap between the two.
func BenchmarkAnnotateThroughputWatch(b *testing.B) {
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	test := data[len(data)/2:]

	hub := notify.NewHub()
	eng, err := NewEngine(ann, WithVenueID("bench"), WithChangeNotifier(hub.Publish))
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sub := hub.Subscribe(nil, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			for {
				select {
				case <-stop:
					return
				case <-sub.Ready():
					sub.Take()
					eng.TopKPopularRegions(nil, Window{Start: 0, End: 1e18}, 10)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ls := test[i%len(test)]
			if _, err := eng.FeedAll(fmt.Sprintf("watch-%d", i), ls.P.Records); err != nil {
				return
			}
			if err := eng.Flush(); err != nil {
				return
			}
		}
	}()

	if _, _, err := eng.AnnotateCtx(context.Background(), &test[0].P); err != nil { // warm the pool
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := &test[int(next.Add(1))%len(test)].P
			if _, _, err := eng.AnnotateCtx(context.Background(), p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkAnnotateAllParallel compares batch annotation throughput of
// a 1-worker pool against a GOMAXPROCS-sized pool on a generated mall
// workload — the Engine's AnnotateAllCtx scaling across cores.
func BenchmarkAnnotateAllParallel(b *testing.B) {
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	test := data[len(data)/2:]
	ps := make([]PSequence, 0, 32)
	for len(ps) < 32 {
		ps = append(ps, test[len(ps)%len(test)].P)
	}
	pools := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pools = append(pools, n)
	}
	for _, workers := range pools {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := NewEngine(ann, WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.AnnotateAllCtx(context.Background(), ps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(ps))*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
		})
	}
}

// BenchmarkTopKPopularRegions measures live-store top-k query latency
// against the number of retained sequences. The bucketed aggregate
// index answers from per-bucket region counts plus two boundary-bucket
// scans, so the cost across the sub-benchmarks should stay roughly
// flat while the store grows 16× — the sub-linear scaling CI tracks in
// BENCH_infer.json. The fixed-width recent window mirrors the common
// serving query ("the last ~15 minutes"); `stored-seqs` reports the
// store size per sub-benchmark.
func BenchmarkTopKPopularRegions(b *testing.B) {
	const (
		regions     = 32
		staysPerSeq = 3
		windowSecs  = 900
	)
	queryRegions := make([]RegionID, regions)
	for i := range queryRegions {
		queryRegions[i] = RegionID(i)
	}
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("stored=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			st := query.NewStore(0)
			t := 0.0
			for i := 0; i < n; i++ {
				ms := MSSequence{ObjectID: fmt.Sprintf("o%d", i)}
				for j := 0; j < staysPerSeq; j++ {
					d := 30 + rng.Float64()*120
					ms.Semantics = append(ms.Semantics, MSemantics{
						Region: RegionID(rng.Intn(regions)),
						Start:  t,
						End:    t + d,
						Event:  Stay,
					})
					t += d * 0.4 // overlapping, steadily advancing stream time
				}
				st.Add(ms)
			}
			w := Window{Start: t - windowSecs, End: t}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if top := st.TopKPopularRegions(queryRegions, w, 5); len(top) == 0 {
					b.Fatal("empty top-k over a populated window")
				}
			}
			b.ReportMetric(float64(n), "stored-seqs")
		})
	}
}

// BenchmarkTopKFrequentPairs measures the pair query's miss path in the
// shape the registry asks for it: every region of a venue as large as
// the simulated mall (202 regions), a window over the later half of the
// retained horizon, and query.AllCounts — the untruncated list a
// cross-venue merge needs, so the whole ranking is paid for, not a
// top-10. The cost follows the (sequence, pair) incidences inside the
// window, so unlike BenchmarkTopKPopularRegions it grows with the
// store; `pairs` reports the length of the answer.
func BenchmarkTopKFrequentPairs(b *testing.B) {
	const regions = 202
	queryRegions := make([]RegionID, regions)
	for i := range queryRegions {
		queryRegions[i] = RegionID(i)
	}
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("stored=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			st := query.NewStore(0)
			t := 0.0
			for i := 0; i < n; i++ {
				ms := MSSequence{ObjectID: fmt.Sprintf("o%d", i)}
				at := t
				for j, stays := 0, 4+rng.Intn(8); j < stays; j++ {
					d := 30 + rng.Float64()*120
					ms.Semantics = append(ms.Semantics, MSemantics{
						Region: RegionID(rng.Intn(regions)),
						Start:  at,
						End:    at + d,
						Event:  Stay,
					})
					at += d
				}
				st.Add(ms)
				t += 40 // visitors arrive steadily and overlap
			}
			w := Window{Start: t / 2, End: t}
			pairs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pairs = len(st.TopKFrequentPairs(queryRegions, w, query.AllCounts)); pairs == 0 {
					b.Fatal("no pairs over a populated window")
				}
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkQueryCached measures the engine's generation-keyed result
// cache on its hot path: the same top-k query re-asked while the store
// generation holds still. A warm-up query populates the per-venue LRU,
// so every timed iteration must come back from the cache without
// touching the index — the cacheless cost of the identical workload is
// BenchmarkTopKPopularRegions at the same store size. `hit-ratio`
// reports hits/(hits+misses) over the timed loop; CI gates it, so
// losing the cache (ratio → 0, ns/op → the uncached cost) fails the
// build.
func BenchmarkQueryCached(b *testing.B) {
	const (
		regions     = 32
		staysPerSeq = 3
		windowSecs  = 900
	)
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	queryRegions := make([]RegionID, regions)
	for i := range queryRegions {
		queryRegions[i] = RegionID(i)
	}
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("stored=%d", n), func(b *testing.B) {
			vr, err := NewVenueRegistry()
			if err != nil {
				b.Fatal(err)
			}
			e, err := vr.Register("bench", ann)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			t := 0.0
			for i := 0; i < n; i++ {
				ms := MSSequence{ObjectID: fmt.Sprintf("o%d", i)}
				for j := 0; j < staysPerSeq; j++ {
					d := 30 + rng.Float64()*120
					ms.Semantics = append(ms.Semantics, MSemantics{
						Region: RegionID(rng.Intn(regions)),
						Start:  t,
						End:    t + d,
						Event:  Stay,
					})
					t += d * 0.4
				}
				e.store.Add(ms)
			}
			q := Query{
				Kind:    QueryPopularRegions,
				Scope:   ScopeVenue,
				Venues:  []string{"bench"},
				Regions: queryRegions,
				Window:  &Window{Start: t - windowSecs, End: t},
				K:       5,
			}
			ctx := context.Background()
			if _, err := vr.Query(ctx, q); err != nil {
				b.Fatal(err)
			}
			before := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := vr.Query(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Regions) == 0 {
					b.Fatal("empty cached top-k over a populated window")
				}
			}
			b.StopTimer()
			st := e.Stats()
			hits := st.QueryCacheHits - before.QueryCacheHits
			misses := st.QueryCacheMisses - before.QueryCacheMisses
			ratio := 0.0
			if hits+misses > 0 {
				ratio = float64(hits) / float64(hits+misses)
			}
			b.ReportMetric(ratio, "hit-ratio")
			b.ReportMetric(float64(n), "stored-seqs")
		})
	}
}

// BenchmarkSnapshotRestore measures the warm-restart hot path — the
// boot-time cost of bringing one venue's query index back from a
// serialized snapshot: read + checksum the c2mn-snapshot bytes, decode
// the index section, and rebuild the bucketed aggregates from the
// retained sequences. Tracked in BENCH_infer.json against the store
// size; `snapshot-bytes` reports the serialized size per sub-benchmark.
func BenchmarkSnapshotRestore(b *testing.B) {
	const (
		regions     = 32
		staysPerSeq = 3
	)
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("stored=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			st := query.NewStore(0)
			t := 0.0
			for i := 0; i < n; i++ {
				ms := MSSequence{ObjectID: fmt.Sprintf("o%d", i)}
				for j := 0; j < staysPerSeq; j++ {
					d := 30 + rng.Float64()*120
					ms.Semantics = append(ms.Semantics, MSemantics{
						Region: RegionID(rng.Intn(regions)),
						Start:  t,
						End:    t + d,
						Event:  Stay,
					})
					t += d * 0.4
				}
				st.Add(ms)
			}
			var buf bytes.Buffer
			if err := snapshot.Write(&buf, &snapshot.File{
				Header: snapshot.Header{Venue: "bench"},
				Index:  snapshot.EncodeIndex(st.SnapshotState()),
			}); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.ReportMetric(float64(len(data)), "snapshot-bytes")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := snapshot.Read(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				ix, err := query.RestoreIndex(snapshot.DecodeIndex(f.Index))
				if err != nil {
					b.Fatal(err)
				}
				if seqs, _ := ix.Len(); seqs != n {
					b.Fatalf("restored %d sequences, want %d", seqs, n)
				}
			}
		})
	}
}

// BenchmarkAblationDistanceMatrix compares MIWD backed by the
// precomputed door-to-door matrix against on-demand Dijkstra (the
// paper pays ~991 MB of memory for its venue's matrix to make MIWD
// cheap; DESIGN.md §6).
func BenchmarkAblationDistanceMatrix(b *testing.B) {
	sc := benchScale(b)
	space, err := GenerateBuilding(sc.MallSpec, 1)
	if err != nil {
		b.Fatal(err)
	}
	bounds := space.Bounds()
	rng := rand.New(rand.NewSource(9))
	type pair struct{ a, c Location }
	pairs := make([]pair, 256)
	for i := range pairs {
		pairs[i] = pair{
			a: Loc(bounds.Min.X+rng.Float64()*(bounds.Max.X-bounds.Min.X),
				bounds.Min.Y+rng.Float64()*(bounds.Max.Y-bounds.Min.Y), rng.Intn(len(space.Floors()))),
			c: Loc(bounds.Min.X+rng.Float64()*(bounds.Max.X-bounds.Min.X),
				bounds.Min.Y+rng.Float64()*(bounds.Max.Y-bounds.Min.Y), rng.Intn(len(space.Floors()))),
		}
	}
	b.ReportMetric(float64(space.DistanceMatrixBytes())/(1<<20), "matrix-MB")
	b.Run("matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = space.MIWD(p.a, p.c)
		}
	})
	b.Run("ondemand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = space.MIWDOnDemand(p.a, p.c)
		}
	})
}

// BenchmarkFleetTopK measures the fleet-scoped query path — the
// parallel per-shard scans plus the exact cross-venue merge behind
// VenueRegistry.Query — against the number of venues at a fixed total
// number of retained sequences. The per-shard indexes answer in
// near-constant time, so the fleet query cost tracked in
// BENCH_infer.json should grow with the merge width, not with the
// fleet's total retained history.
func BenchmarkFleetTopK(b *testing.B) {
	const (
		totalSeqs   = 8192
		regions     = 32
		staysPerSeq = 3
		windowSecs  = 900
	)
	space, data := benchAnnotationWorld(b)
	ann, err := Train(space, data[:len(data)/2], TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	queryRegions := make([]RegionID, regions)
	for i := range queryRegions {
		queryRegions[i] = RegionID(i)
	}
	for _, venues := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("venues=%d", venues), func(b *testing.B) {
			vr, err := NewVenueRegistry()
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			maxT := 0.0
			for v := 0; v < venues; v++ {
				e, err := vr.Register(fmt.Sprintf("v%02d", v), ann)
				if err != nil {
					b.Fatal(err)
				}
				// The stores are loaded directly with synthetic
				// m-semantics: the benchmark isolates query fan-out and
				// merge cost from annotation cost.
				t := 0.0
				for i := 0; i < totalSeqs/venues; i++ {
					ms := MSSequence{ObjectID: fmt.Sprintf("v%d-o%d", v, i)}
					for j := 0; j < staysPerSeq; j++ {
						d := 30 + rng.Float64()*120
						ms.Semantics = append(ms.Semantics, MSemantics{
							Region: RegionID(rng.Intn(regions)),
							Start:  t,
							End:    t + d,
							Event:  Stay,
						})
						t += d * 0.4
					}
					e.store.Add(ms)
				}
				if t > maxT {
					maxT = t
				}
			}
			q := Query{
				Kind:    QueryPopularRegions,
				Scope:   ScopeFleet,
				Regions: queryRegions,
				Window:  &Window{Start: maxT - windowSecs, End: maxT},
				K:       5,
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := vr.Query(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Regions) == 0 {
					b.Fatal("empty fleet top-k over a populated window")
				}
			}
			b.ReportMetric(float64(venues), "venues")
		})
	}
}
