// Command bench is the repo benchmark: four workloads that measure a
// positioning record's whole trip — in-process, over the wire into
// msserve, and again through msrouter — with end-to-end metrics a
// later change is held to and, in a traced run, a per-layer budget.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds <s>] [-trace]
//	go run ./bench -aa <n>
//
// See bench/README.md for every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"c2mn"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// report collects what one run of one workload measured and checked.
type report struct {
	opt       options
	values    map[string]metric
	attempted int64
	failed    int64
	problems  []string // failed checks and first errors, for the reader
	passed    int      // output checks that held
	notes     []string // timings with their tail percentile, CPU shares
}

func newReport(opt options) *report {
	return &report{opt: opt, values: map[string]metric{}}
}

// set records a metric; its unit comes from the catalogue.
func (r *report) set(name string, value float64, n int) {
	r.values[name] = metric{Value: value, Unit: unitOf(name), N: n}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// check records one output check. A failed check counts as a failed
// operation, so it shows in the run's error share.
func (r *report) check(name string, ok bool, detail string) {
	r.attempted++
	if ok {
		r.passed++
		return
	}
	r.failed++
	r.problems = append(r.problems, "check "+name+": "+detail)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// describe notes a timing by the percentile rule: the median, the
// highest percentile with at least ten samples beyond it, and the
// sample count.
func (r *report) describe(name string, samples []float64) {
	s := sortedCopy(samples)
	if p, ok := tailPercentile(len(s)); ok {
		r.note("%s: p50 %.4g ms, p%g %.4g ms, n=%d", name, percentile(s, 0.5), p*100, percentile(s, p), len(s))
		return
	}
	r.note("%s: p50 %.4g ms, n=%d (too few samples for a tail percentile)", name, percentile(s, 0.5), len(s))
}

// absorb adds a tally's attempts and failures.
func (r *report) absorb(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	if t.firstErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("%d failed operations, first: %v", t.failed, t.firstErr))
	}
}

// wanted lists the metrics this kind of run must report.
func (r *report) wanted() []metricDef {
	if r.opt.trace {
		return perLayer
	}
	return endToEnd
}

// finish verifies that every wanted metric was measured and is a
// finite number.
func (r *report) finish() {
	for _, d := range r.wanted() {
		m, ok := r.values[d.name]
		switch {
		case !ok:
			r.check("metric."+d.name, false, "not measured")
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.check("metric."+d.name, false, "not a finite number")
			delete(r.values, d.name)
		}
	}
}

// print writes the human-readable table and, as the last line, the
// JSON object the benchmark contract asks for.
func (r *report) print() {
	mode := "end-to-end"
	if r.opt.trace {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %.0f s  %s\n", r.opt.workload, r.opt.seed, r.opt.seconds, mode)
	out := map[string]map[string]any{}
	for _, d := range r.wanted() {
		m, ok := r.values[d.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-34s %14.6g %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
		out[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, n := range r.notes {
		fmt.Printf("  · %s\n", n)
	}
	fmt.Printf("  output checks passed: %d\n", r.passed)
	for _, p := range r.problems {
		fmt.Printf("  FAILED %s\n", p)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  attempted %d  failed %d  error_share %g\n", r.attempted, r.failed, share)
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run is the state one workload run shares between its stages.
type run struct {
	opt  options
	site *site
	w    *world
	tr   *tracer // nil unless tracing
	rep  *report

	nproc     int
	firstProc int // index in site.procs of the first process this run started

	// What the measured part leaves for the layer suite of a traced run.
	hasStay       []bool                 // per visit: the model gives it a stay (reference pass)
	layerSeqs     []c2mn.LabeledSequence // the workload's own sequences
	storedSeqs    int                    // sequences its stores held at the end
	workloadSpans int                    // spans its clients recorded
	workloadBusy  time.Duration          // how long one client was busy recording them
	fedRecords    int64                  // records it fed, all writers
	serverCPU     time.Duration          // CPU its server processes used (wire workloads)
}

// handOver records, at the end of a workload's measured part, what the
// layer suite needs from it.
func (r *run) handOver(seqs []c2mn.LabeledSequence, stored int64, busy time.Duration) {
	r.layerSeqs, r.storedSeqs, r.workloadBusy = seqs, int(stored), busy
	if r.tr != nil {
		r.workloadSpans = len(r.tr.spans)
	}
}

// runWorkload prepares the inputs, runs one workload and returns its
// report. An error means the run could not be carried out at all.
func runWorkload(s *site, opt options) (*report, error) {
	r := &run{opt: opt, site: s, rep: newReport(opt), nproc: runtime.GOMAXPROCS(0)}
	s.mu.Lock()
	r.firstProc = len(s.procs)
	s.mu.Unlock()
	if opt.trace {
		r.tr = newTracer()
	}
	w, err := newWorld(opt.seed)
	if err != nil {
		return nil, err
	}
	r.w = w
	var body func() error
	switch opt.workload {
	case "annotate-batch":
		body = r.annotateBatch
	case "feed-wire":
		body = r.feedWire
	case "query-wire":
		body = r.queryWire
	case "fleet-router":
		body = r.fleetRouter
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", opt.workload, strings.Join(workloadNames, ", "))
	}
	if err := body(); err != nil {
		return nil, err
	}
	if opt.trace {
		if err := r.layers(); err != nil {
			return nil, err
		}
		path := filepath.Join(s.out, opt.workload+".trace.json")
		if err := r.tr.write(path, opt.workload, opt.seed); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	r.rep.finish()
	return r.rep, nil
}

// visitPool is the size of the visit population; streams cycle
// through it with fresh timestamps.
const visitPool = 300

// splitTraceFlag lets "-trace" be given bare, as a switch, or with the
// 0/1 value the benchmark contract passes as a separate argument.
func splitTraceFlag(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "seconds the measured part of a workload takes")
	trace := fs.Int("trace", 0, "1: traced run that reports the per-layer metrics")
	aa := fs.Int("aa", 0, "run n alternating pairs of sets of all workloads and compare them")
	fs.Parse(splitTraceFlag(os.Args[1:]))
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments")
		os.Exit(2)
	}
	os.Exit(mainExit(*workload, *seed, *seconds, *trace != 0, *aa))
}

func mainExit(workload string, seed int64, seconds float64, trace bool, aa int) int {
	s, err := newSite()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer s.close()
	// An interrupted run still stops its servers and removes its files.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		s.close()
		os.Exit(130)
	}()
	if err := s.build(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if aa > 0 {
		return runAA(s, aa, seed, seconds)
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		rep, err := runWorkload(s, options{workload: name, seed: seed, seconds: seconds, trace: trace})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		rep.print()
		if rep.failed > 0 {
			code = 1
		}
	}
	return code
}
