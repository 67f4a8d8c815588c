package features

import (
	"math"
	"math/rand"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// randomConfig draws a random label configuration: regions from each
// record's candidate set (occasionally a neighbour's candidate, as
// block moves produce), events uniform.
func randomConfig(ctx *SeqContext, rng *rand.Rand) ([]indoor.RegionID, []seq.Event) {
	n := ctx.Len()
	R := make([]indoor.RegionID, n)
	E := make([]seq.Event, n)
	for i := 0; i < n; i++ {
		cands := ctx.Candidates[i]
		if rng.Intn(4) == 0 && i > 0 {
			cands = ctx.Candidates[i-1]
		}
		if len(cands) == 0 {
			R[i] = indoor.NoRegion
		} else {
			R[i] = cands[rng.Intn(len(cands))]
		}
		E[i] = seq.Event(rng.Intn(seq.NumEvents))
	}
	return R, E
}

func totalDiff(ctx *SeqContext, R1 []indoor.RegionID, E1 []seq.Event, R2 []indoor.RegionID, E2 []seq.Event) []float64 {
	f1 := make([]float64, Dim)
	f2 := make([]float64, Dim)
	ctx.TotalFeatures(R1, E1, f1)
	ctx.TotalFeatures(R2, E2, f2)
	for k := range f2 {
		f2[k] -= f1[k]
	}
	return f2
}

func assertClose(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("%s: component %d = %.12g, want %.12g", what, k, got[k], want[k])
		}
	}
}

// RegionRunDelta is the closure-based block-move delta the inference
// loop priced runs with before RegionRunCandScores; it stays here as
// the oracle the fused kernel is property-tested against (and is itself
// checked against TotalFeatures differences below). It accumulates into
// out (length Dim, overwritten) the feature change of the block move that relabels the uniform segment
// [a, b] (every R[x], a ≤ x ≤ b, carries the same label) to r. The
// segment must be right-maximal (b == n−1 or R[b+1] ≠ R[b]); the left
// neighbour may carry the same label, as happens when a preceding run
// was just merged into this one. R is not modified.
//
// Cost is O(w·Dim) where w spans the segment, its neighbouring region
// runs and the event runs overlapping it — the Markov blanket of the
// block — instead of the O(n·Dim) of a full rescore.
func (c *SeqContext) RegionRunDelta(R []indoor.RegionID, E []seq.Event, a, b int, r indoor.RegionID, out []float64) {
	for k := range out {
		out[k] = 0
	}
	orig := R[a]
	if r == orig {
		return
	}
	n := c.Len()
	cl := c.Ex.Params.Cliques
	// reg is the tentative labeling R' restricted to the indices the
	// affected cliques touch.
	reg := func(x int) indoor.RegionID {
		if x >= a && x <= b {
			return r
		}
		return R[x]
	}
	if cl.Has(Matching) {
		for i := a; i <= b; i++ {
			out[IdxSM] += c.SM(i, r) - c.SM(i, orig)
		}
	}
	if cl.Has(Transition) {
		// Interior transition edges pair identical labels on both sides
		// of the move and fst(x, x) is label-independent, so only the
		// boundary edges change.
		if a > 0 {
			out[IdxST] += c.ST(a-1, R[a-1], r) - c.ST(a-1, R[a-1], orig)
		}
		if b+1 < n {
			out[IdxST] += c.ST(b, r, R[b+1]) - c.ST(b, orig, R[b+1])
		}
	}
	if cl.Has(Synchronization) {
		// fsc(x, x) depends on the intra-region distance E[dI(p,q∈x)],
		// which differs per region, so interior edges must be rescored
		// along with the boundaries.
		if a > 0 {
			out[IdxSC] += c.SC(a-1, R[a-1], r) - c.SC(a-1, R[a-1], orig)
		}
		for i := a; i < b; i++ {
			out[IdxSC] += c.SC(i, r, r) - c.SC(i, orig, orig)
		}
		if b+1 < n {
			out[IdxSC] += c.SC(b, r, R[b+1]) - c.SC(b, orig, R[b+1])
		}
	}
	if cl.Has(SegmentationES) {
		// Every event-based segmentation clique overlapping [a, b] sees
		// region labels change; those fully outside do not.
		A, B := runStartEvent(E, a), runEndEvent(E, b)
		var vNew, vOld [3]float64
		for x := A; x <= B; {
			y := x
			for y+1 <= B && E[y+1] == E[x] {
				y++
			}
			c.ES(x, y, E[x], reg, &vNew)
			c.ES(x, y, E[x], func(z int) indoor.RegionID { return R[z] }, &vOld)
			out[IdxES] += vNew[0] - vOld[0]
			out[IdxES+1] += vNew[1] - vOld[1]
			out[IdxES+2] += vNew[2] - vOld[2]
			x = y + 1
		}
	}
	if cl.Has(SegmentationSS) {
		// The move reshapes the space-based segmentation runs in the
		// window spanned by the segment and its neighbouring runs: the
		// segment can merge with a neighbour when r matches its label.
		// Run boundaries outside the window involve only unchanged
		// labels on both sides and stay put.
		A, B := a, b
		if a > 0 {
			A = runStartRegion(R, a-1)
		}
		if b+1 < n {
			B = runEndRegion(R, b+1)
		}
		var v [3]float64
		for x := A; x <= B; {
			y := x
			for y+1 <= B && R[y+1] == R[x] {
				y++
			}
			c.SS(x, y, func(z int) seq.Event { return E[z] }, &v)
			out[IdxSS] -= v[0]
			out[IdxSS+1] -= v[1]
			out[IdxSS+2] -= v[2]
			x = y + 1
		}
		for x := A; x <= B; {
			y := x
			for y+1 <= B && reg(y+1) == reg(x) {
				y++
			}
			c.SS(x, y, func(z int) seq.Event { return E[z] }, &v)
			out[IdxSS] += v[0]
			out[IdxSS+1] += v[1]
			out[IdxSS+2] += v[2]
			x = y + 1
		}
	}
}

// TestRegionRunDeltaMatchesFullRecompute is the core exactness
// property of the incremental scorer: for randomized configurations
// and every right-maximal uniform segment and candidate label, the
// Markov-blanket delta must equal the difference of two full feature
// passes.
func TestRegionRunDeltaMatchesFullRecompute(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(42))
	n := ctx.Len()
	delta := make([]float64, Dim)
	for trial := 0; trial < 50; trial++ {
		R, E := randomConfig(ctx, rng)
		for a := 0; a < n; {
			b := a
			for b+1 < n && R[b+1] == R[a] {
				b++
			}
			for r := indoor.RegionID(0); r < 3; r++ {
				ctx.RegionRunDelta(R, E, a, b, r, delta)
				R2 := append([]indoor.RegionID(nil), R...)
				for y := a; y <= b; y++ {
					R2[y] = r
				}
				assertClose(t, delta, totalDiff(ctx, R, E, R2, E), "run delta")
			}
			a = b + 1
		}
	}
}

// TestRegionRunDeltaLeftNonMaximal covers the segment shape blockICM
// produces when a relabeled run merges with its left neighbour: the
// segment is uniform and right-maximal but R[a-1] carries the same
// label.
func TestRegionRunDeltaLeftNonMaximal(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(7))
	n := ctx.Len()
	delta := make([]float64, Dim)
	for trial := 0; trial < 50; trial++ {
		R, E := randomConfig(ctx, rng)
		// Force a left-equal boundary: pick a mid segment and copy the
		// left neighbour's label onto it.
		a := 1 + rng.Intn(n-2)
		b := a + rng.Intn(n-a-1)
		for y := a; y <= b; y++ {
			R[y] = R[a-1]
		}
		// Re-derive right-maximality.
		for b+1 < n && R[b+1] == R[a] {
			b++
		}
		for r := indoor.RegionID(0); r < 3; r++ {
			ctx.RegionRunDelta(R, E, a, b, r, delta)
			R2 := append([]indoor.RegionID(nil), R...)
			for y := a; y <= b; y++ {
				R2[y] = r
			}
			assertClose(t, delta, totalDiff(ctx, R, E, R2, E), "left-non-maximal run delta")
		}
	}
}

// TestSeqContextResetMatchesFresh asserts the reset-and-reuse
// lifecycle: a context re-bound across several sequences must be
// indistinguishable from a freshly built one, including after
// shrinking to a shorter sequence.
func TestSeqContextResetMatchesFresh(t *testing.T) {
	ex, err := NewExtractor(testSpace(t), testParams())
	if err != nil {
		t.Fatal(err)
	}
	long := walkSequence()
	short := &seq.PSequence{ObjectID: "s", Records: long.Records[3:9]}
	reused := &SeqContext{Ex: ex}
	rng := rand.New(rand.NewSource(3))
	for round, p := range []*seq.PSequence{long, short, long, walkSequence()} {
		reused.Reset(p, nil)
		fresh := ex.NewSeqContext(p, nil)
		n := fresh.Len()
		if reused.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, reused.Len(), n)
		}
		for i := 0; i < n; i++ {
			if reused.Density[i] != fresh.Density[i] {
				t.Fatalf("round %d: Density[%d] differs", round, i)
			}
			if len(reused.Candidates[i]) != len(fresh.Candidates[i]) {
				t.Fatalf("round %d: candidate count[%d] differs", round, i)
			}
			for k, r := range fresh.Candidates[i] {
				if reused.Candidates[i][k] != r {
					t.Fatalf("round %d: Candidates[%d][%d] differs", round, i, k)
				}
			}
		}
		// Feature outputs must agree on random configurations.
		for trial := 0; trial < 5; trial++ {
			R, E := randomConfig(fresh, rng)
			fa := make([]float64, Dim)
			fb := make([]float64, Dim)
			reused.TotalFeatures(R, E, fa)
			fresh.TotalFeatures(R, E, fb)
			assertClose(t, fa, fb, "reset TotalFeatures")
			for i := 0; i < n; i++ {
				reused.LocalRegionFeatures(R, E, i, R[i], fa)
				fresh.LocalRegionFeatures(R, E, i, R[i], fb)
				assertClose(t, fa, fb, "reset LocalRegionFeatures")
			}
		}
	}
}

// TestSeqContextResetTruth checks that truth labels are still force-
// included in candidate sets through the arena-backed Reset path.
func TestSeqContextResetTruth(t *testing.T) {
	ex, err := NewExtractor(testSpace(t), testParams())
	if err != nil {
		t.Fatal(err)
	}
	p := walkSequence()
	truth := make([]indoor.RegionID, p.Len())
	for i := range truth {
		truth[i] = indoor.RegionID(i % 3) // often not a natural candidate
	}
	c := &SeqContext{Ex: ex}
	c.Reset(p, truth)
	for i := range truth {
		if !containsRegion(c.Candidates[i], truth[i]) {
			t.Fatalf("truth region %d missing from candidates of record %d", truth[i], i)
		}
		for k := 1; k < len(c.Candidates[i]); k++ {
			if c.Candidates[i][k-1] >= c.Candidates[i][k] {
				t.Fatalf("record %d candidates not strictly sorted: %v", i, c.Candidates[i])
			}
		}
	}
}
