package features

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// RegionCandScores and EventCandScores give the property tests the
// label-slice form of the node kernels: index the labelling from
// scratch, then evaluate through the production path.
func (c *SeqContext) RegionCandScores(w []float64, R []indoor.RegionID, E []seq.Event, i int, scores []float64) {
	var ix RunIndex
	ix.Reset(c, R, E)
	ix.RegionCandScores(w, i, scores)
}

func (c *SeqContext) EventCandScores(w []float64, R []indoor.RegionID, E []seq.Event, i int, scores []float64) {
	var ix RunIndex
	ix.Reset(c, R, E)
	ix.EventCandScores(w, i, scores)
}

// wanderSequence fabricates n records that alternate dwelling near a
// spot with jumps across the venue, so stays, passes and candidate sets
// of every size occur.
func wanderSequence(rng *rand.Rand, n int) *seq.PSequence {
	p := &seq.PSequence{ObjectID: "wander"}
	x, y, t := 30*rng.Float64(), 14*rng.Float64(), 0.0
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			x, y = 30*rng.Float64(), 14*rng.Float64()
		} else {
			x = math.Min(30, math.Max(0, x+rng.NormFloat64()))
			y = math.Min(14, math.Max(0, y+rng.NormFloat64()))
		}
		t += 1 + 9*rng.Float64()
		p.Records = append(p.Records, seq.Record{Loc: indoor.Loc(x, y, 0), T: t})
	}
	return p
}

// randomMove applies one random single-region, event or block move
// through the index setters. Block moves relabel a whole run, or its
// right-maximal tail, to an arbitrary region — so labels leave their
// records' candidate sets, and runs merge and split.
func randomMove(rng *rand.Rand, ix *RunIndex, numRegions int) {
	n := len(ix.R)
	i := rng.Intn(n)
	label := indoor.RegionID(rng.Intn(numRegions+1) - 1) // NoRegion included
	switch rng.Intn(3) {
	case 0:
		ix.SetRegion(i, label)
	case 1:
		ix.SetEvent(i, seq.Event(rng.Intn(seq.NumEvents)))
	default:
		a, b := ix.RegionRun(i)
		if rng.Intn(2) == 0 {
			a = i
		}
		ix.SetRegionRun(a, b, label)
	}
}

// TestRunIndexMatchesRebuild: after any sequence of moves the
// maintained index equals one rebuilt from the labels.
func TestRunIndexMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 3, 7, 40} {
		for trial := 0; trial < 30; trial++ {
			R := make([]indoor.RegionID, n)
			E := make([]seq.Event, n)
			for i := range R {
				R[i] = indoor.RegionID(rng.Intn(3))
				E[i] = seq.Event(rng.Intn(seq.NumEvents))
			}
			var ix, fresh RunIndex
			ix.Reset(nil, R, E)
			for step := 0; step < 60; step++ {
				randomMove(rng, &ix, 3)
				fresh.Reset(nil, R, E)
				if !reflect.DeepEqual(ix, fresh) {
					t.Fatalf("n=%d trial %d step %d: maintained index\n%+v\nrebuilt\n%+v", n, trial, step, ix, fresh)
				}
				for x := 0; x < n; x++ {
					for y := x; y < n; y++ {
						changes := 0
						var seen []indoor.RegionID
						for z := x; z <= y; z++ {
							if z < y && E[z] != E[z+1] {
								changes++
							}
							if !containsRegion(seen, R[z]) {
								seen = append(seen, R[z])
							}
						}
						if got := ix.eventChanges(x, y); got != changes {
							t.Fatalf("eventChanges(%d,%d) = %d, want %d (E=%v)", x, y, got, changes, E)
						}
						if got := ix.distinctRegions(nil, x, y); len(got) != len(seen) {
							t.Fatalf("distinctRegions(%d,%d) = %v, want %v (R=%v)", x, y, got, seen, R)
						}
					}
				}
			}
		}
	}
}

// kernelParamSets crosses every clique ablation with the time-decay and
// region-prior switches.
func kernelParamSets() []Params {
	var out []Params
	for cl := CliqueSet(0); cl <= AllCliques; cl++ {
		for variant := 0; variant < 4; variant++ {
			p := testParams()
			p.Cliques = cl
			if variant&1 != 0 {
				p.TimeDecayST, p.TimeDecaySC = 0.01, 0.02
			}
			if variant&2 != 0 {
				p.RegionPrior = []float64{1, 0.5, 0.25}
			}
			out = append(out, p)
		}
	}
	return out
}

// TestKernelsBitwiseOnMaintainedIndex drives one index through random
// moves and, at every configuration it reaches, checks the three
// kernels bit for bit against the dense path: node scores against
// Dot(w, Local*Features), run scores against Dot(w, RegionRunDelta).
func TestKernelsBitwiseOnMaintainedIndex(t *testing.T) {
	space := testSpace(t)
	nr := space.NumRegions()
	rng := rand.New(rand.NewSource(31))
	w := make([]float64, Dim)
	buf := make([]float64, Dim)
	for pi, params := range kernelParamSets() {
		ex, err := NewExtractor(space, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 25} {
			ctx := ex.NewSeqContext(wanderSequence(rng, n), nil)
			for k := range w {
				w[k] = rng.NormFloat64()
			}
			R, E := randConfig(rng, ctx, nr)
			var ix RunIndex
			ix.Reset(ctx, R, E)
			for step := 0; step < 6; step++ {
				for m := 0; m < 3; m++ {
					randomMove(rng, &ix, nr)
				}
				where := fmt.Sprintf("params %d n=%d step %d R=%v E=%v", pi, n, step, R, E)
				for i := 0; i < n; i++ {
					scores := make([]float64, len(ctx.Candidates[i]))
					ix.RegionCandScores(w, i, scores)
					for k, r := range ctx.Candidates[i] {
						ctx.LocalRegionFeatures(R, E, i, r, buf)
						if want := Dot(w, buf); math.Float64bits(scores[k]) != math.Float64bits(want) {
							t.Fatalf("%s: node %d region %v: kernel %v, dense %v", where, i, r, scores[k], want)
						}
					}
					ev := make([]float64, seq.NumEvents)
					ix.EventCandScores(w, i, ev)
					for e := 0; e < seq.NumEvents; e++ {
						ctx.LocalEventFeatures(R, E, i, seq.Event(e), buf)
						if want := Dot(w, buf); math.Float64bits(ev[e]) != math.Float64bits(want) {
							t.Fatalf("%s: node %d event %d: kernel %v, dense %v", where, i, e, ev[e], want)
						}
					}
				}
				// Every right-maximal segment: whole runs and their tails.
				for a := 0; a < n; a++ {
					_, b := ix.RegionRun(a)
					var labels []indoor.RegionID
					for r := indoor.RegionID(-1); int(r) < nr; r++ {
						if r != R[a] {
							labels = append(labels, r)
						}
					}
					deltas := make([]float64, len(labels))
					ix.RegionRunCandScores(w, a, b, labels, deltas)
					for k, r := range labels {
						ctx.RegionRunDelta(R, E, a, b, r, buf)
						if want := Dot(w, buf); math.Float64bits(deltas[k]) != math.Float64bits(want) {
							t.Fatalf("%s: segment [%d,%d] → %v: kernel %v, dense %v", where, a, b, r, deltas[k], want)
						}
					}
				}
			}
		}
	}
}
