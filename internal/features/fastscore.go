package features

import (
	"math"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// This file is the fused extract-and-dot scoring path of the inference
// hot loop. RegionCandScores and EventCandScores compute
// w·LocalRegionFeatures / w·LocalEventFeatures for every candidate of
// one node, RegionRunCandScores the score change of relabelling a whole
// region run to every candidate label. All three read the maintained
// RunIndex instead of rescanning label runs, and share the
// candidate-independent work across the whole evaluation:
//
//   - fsm is an overlap-arena index instead of a candidate scan,
//   - fst reads the extractor's precomputed exp(−γst·E[dI]) matrix,
//   - fsc reads a per-edge memo keyed by the candidate slots of its two
//     labels, filled on first use,
//   - fec reads the per-edge three-value exp memo filled by Reset,
//   - an fes window is at most three sub-runs whose extents come from
//     the index and whose speed/turn statistics are prefix-sum
//     differences; only the distinct-region count depends on a region
//     candidate, answered by a membership probe,
//   - an fss window is at most three sub-runs too, and how they join
//     depends only on whether the candidate merges with its run
//     neighbours, so at most four value triples exist per evaluation
//     and each is computed lazily once.
//
// Exactness is the contract: every component is assembled from the
// same inputs with the same expressions and accumulated in the same
// order as the reference path, so the resulting scores — and therefore
// every inference decision — are bitwise-identical. The property tests
// in fastscore_test.go and runindex_test.go and the core reference
// tests pin this.

// Dot returns w·f accumulated in index order. It mirrors the reference
// dot product exactly so fused scores match assembling the feature
// vector first.
func Dot(w, f []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * f[i]
	}
	return s
}

// scoreScratch returns the Dim-length assembly buffer, zeroed.
func (c *SeqContext) scoreScratch() []float64 {
	buf := c.scoreBuf
	if cap(buf) < Dim {
		buf = make([]float64, Dim)
		c.scoreBuf = buf
	} else {
		buf = buf[:Dim]
	}
	for k := range buf {
		buf[k] = 0
	}
	return buf
}

// fastST is ST(i, ra, rb) through the precomputed distance kernel.
func (c *SeqContext) fastST(i int, ra, rb indoor.RegionID) float64 {
	var v float64
	switch {
	case ra == rb:
		v = 1.0
	case ra < 0 || rb < 0:
		return 0
	default:
		if st := c.Ex.stExp; st != nil {
			v = st[int(ra)*c.Ex.nr+int(rb)]
		} else {
			d := c.Ex.Space.RegionDist(ra, rb)
			if math.IsInf(d, 1) {
				return 0
			}
			v = math.Exp(-c.Ex.Params.GammaST * d)
		}
		if v == 0 {
			// Unreachable pair (or underflow, which the reference path
			// also scores 0 after the decay multiply).
			return 0
		}
	}
	if len(c.stDecay) > 0 {
		v *= c.stDecay[i]
	}
	return v
}

// candIndex returns the slot of r in Candidates[i], or −1.
func (c *SeqContext) candIndex(i int, r indoor.RegionID) int {
	for k, cand := range c.Candidates[i] {
		if cand == r {
			return k
		}
	}
	return -1
}

// fastSC is SC(i, ra, rb) where ka and kb are the candidate slots of ra
// in record i and of rb in record i+1. The value is label-independent
// per slot pair, so it is computed once per sequence and kept in the
// edge's memo; a label outside its record's candidate set (slot −1,
// as block moves produce) is computed directly.
func (c *SeqContext) fastSC(i int, ra, rb indoor.RegionID, ka, kb int) float64 {
	if ka < 0 || kb < 0 {
		return c.scDirect(i, ra, rb)
	}
	p := &c.scMemo[c.scOff[i]+ka*len(c.Candidates[i+1])+kb]
	if *p < 0 {
		*p = c.scDirect(i, ra, rb)
	}
	return *p
}

// scDirect is SC(i, ra, rb) with the decay multiplier memoized.
func (c *SeqContext) scDirect(i int, ra, rb indoor.RegionID) float64 {
	d := c.Ex.Space.RegionDist(ra, rb)
	if math.IsInf(d, 1) {
		return 0
	}
	v := math.Exp(-math.Abs(d - c.dist[i]))
	if len(c.scDecay) > 0 {
		v *= c.scDecay[i]
	}
	return v
}

// btoi is the 0/1 indicator of b.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ssSpan is an fss window [A, B] around a middle segment [a, b] whose
// region label is being substituted: [A, a−1] is the region run left of
// the segment and [b+1, B] the run right of it (either may be empty).
// chL, chM and chR count the event changes inside the three pieces, edgeL
// and edgeR those on the two joining edges, so the change count of any
// merged sub-run is a sum.
type ssSpan struct {
	A, a, b, B                  int
	chL, chM, chR, edgeL, edgeR int
}

func (ix *RunIndex) ssSpan(a, b int) ssSpan {
	E := ix.E
	s := ssSpan{A: a, a: a, b: b, B: b, chM: ix.eventChanges(a, b)}
	if a > 0 {
		s.A = ix.rs[a-1]
		s.chL = ix.eventChanges(s.A, a-1)
		s.edgeL = btoi(E[a-1] != E[a])
	}
	if b+1 < len(E) {
		s.B = ix.re[b+1]
		s.chR = ix.eventChanges(b+1, s.B)
		s.edgeR = btoi(E[b] != E[b+1])
	}
	return s
}

// ssAdd accumulates sgn·SS(x, y) into out for a sub-run with the given
// number of event changes.
func (ix *RunIndex) ssAdd(out *[3]float64, x, y, changes int, sgn float64) {
	runLen := float64(y - x + 1)
	out[0] += sgn * (-float64(changes+1) / runLen)
	out[1] += sgn * (-float64(changes) / runLen)
	out[2] += sgn * ((passInd(ix.E[x]) + passInd(ix.E[y])) / 2)
}

// ssSplice accumulates into out the fss triples of the window's
// sub-runs, left to right, when the middle segment merges with its left
// run (ck&1) and/or its right run (ck&2).
func (ix *RunIndex) ssSplice(s *ssSpan, ck int, out *[3]float64) {
	x, ch := s.a, s.chM
	if ck&1 != 0 {
		x, ch = s.A, s.chL+s.edgeL+s.chM
	} else if s.A < s.a {
		ix.ssAdd(out, s.A, s.a-1, s.chL, 1)
	}
	if ck&2 != 0 {
		ix.ssAdd(out, x, s.B, ch+s.edgeR+s.chR, 1)
		return
	}
	ix.ssAdd(out, x, s.b, ch, 1)
	if s.b < s.B {
		ix.ssAdd(out, s.b+1, s.B, s.chR, 1)
	}
}

// mergeCase is the ssSplice case of substituting r into the span's
// middle segment.
func (ix *RunIndex) mergeCase(s *ssSpan, r indoor.RegionID) int {
	ck := 0
	if s.A < s.a && ix.R[s.a-1] == r {
		ck |= 1
	}
	if s.b < s.B && ix.R[s.b+1] == r {
		ck |= 2
	}
	return ck
}

// RegionCandScores fills scores[k] with w·LocalRegionFeatures(R, E, i,
// Candidates[i][k]) for every candidate of record i, bitwise-identical
// to the reference path. scores must have len(Candidates[i]) entries.
func (ix *RunIndex) RegionCandScores(w []float64, i int, scores []float64) {
	c, R, E := ix.c, ix.R, ix.E
	cands := c.Candidates[i]
	if len(cands) == 0 {
		return
	}
	n := len(R)
	cl := c.Ex.Params.Cliques
	buf := c.scoreScratch()
	hasM := cl.Has(Matching)
	hasT := cl.Has(Transition)
	hasS := cl.Has(Synchronization)

	// Candidate slots of the two neighbours' labels address the fsc memo.
	kl, kr := -1, -1
	if hasS {
		if i > 0 {
			kl = c.candIndex(i-1, R[i-1])
		}
		if i+1 < n {
			kr = c.candIndex(i+1, R[i+1])
		}
	}

	// fes window: the same-event run around i. Only the distinct-region
	// count depends on the candidate; the speed and turn components are
	// shared verbatim.
	esOn := cl.Has(SegmentationES)
	var (
		esSign, esRunLen, esV1, esV2 float64
		esSeen                       []indoor.RegionID
	)
	if esOn {
		a, b := ix.es[i], ix.ee[i]
		esSign = 2*passInd(E[i]) - 1
		esRunLen = float64(b - a + 1)
		esV1 = esSign * c.segSpeedNorm(a, b)
		esV2 = -esSign * float64(c.segTurns(a, b)) / esRunLen
		esSeen = ix.distinctRegions(ix.distinctRegions(c.seenScratch[:0], a, i-1), i+1, b)
		c.seenScratch = esSeen
	}

	// fss window: spans the region runs of i−1 and i+1 and never consults
	// R[i], so the sub-run decomposition of a candidate depends only on
	// whether it merges left/right — at most four distinct value triples,
	// computed lazily.
	ssOn := cl.Has(SegmentationSS)
	var (
		span   ssSpan
		ssSet  [4]bool
		ssVals [4][3]float64
	)
	if ssOn {
		span = ix.ssSpan(i, i)
	}

	for k, r := range cands {
		if hasM {
			buf[IdxSM] = c.overlap[i][k] * c.prior(r)
		}
		if hasT {
			st := 0.0
			if i > 0 {
				st += c.fastST(i-1, R[i-1], r)
			}
			if i+1 < n {
				st += c.fastST(i, r, R[i+1])
			}
			buf[IdxST] = st
		}
		if hasS {
			sc := 0.0
			if i > 0 {
				sc += c.fastSC(i-1, R[i-1], r, kl, k)
			}
			if i+1 < n {
				sc += c.fastSC(i, r, R[i+1], k, kr)
			}
			buf[IdxSC] = sc
		}
		if esOn {
			distinct := len(esSeen)
			if !containsRegion(esSeen, r) {
				distinct++
			}
			buf[IdxES] = esSign * float64(distinct) / esRunLen
			buf[IdxES+1] = esV1
			buf[IdxES+2] = esV2
		}
		if ssOn {
			ck := ix.mergeCase(&span, r)
			if !ssSet[ck] {
				ssSet[ck] = true
				ix.ssSplice(&span, ck, &ssVals[ck])
			}
			buf[IdxSS], buf[IdxSS+1], buf[IdxSS+2] = ssVals[ck][0], ssVals[ck][1], ssVals[ck][2]
		}
		scores[k] = Dot(w, buf)
	}
}

// esAdd accumulates ES(x, y, e) under the current region labels into s.
func (ix *RunIndex) esAdd(x, y int, e seq.Event, s *[3]float64) {
	c := ix.c
	sign := 2*passInd(e) - 1
	c.seenScratch = ix.distinctRegions(c.seenScratch[:0], x, y)
	runLen := float64(y - x + 1)
	s[0] += sign * float64(len(c.seenScratch)) / runLen
	s[1] += sign * c.segSpeedNorm(x, y)
	s[2] += -sign * float64(c.segTurns(x, y)) / runLen
}

// passCountIdx maps an event pair to its fec memo slot:
// passInd(ea)+passInd(eb) ∈ {0, 1, 2}.
func passCountIdx(ea, eb seq.Event) int {
	n := 0
	if ea == seq.Pass {
		n++
	}
	if eb == seq.Pass {
		n++
	}
	return n
}

// EventCandScores fills scores[e] with w·LocalEventFeatures(R, E, i, e)
// for e = 0..NumEvents−1, bitwise-identical to the reference path.
// scores must have seq.NumEvents entries.
func (ix *RunIndex) EventCandScores(w []float64, i int, scores []float64) {
	c, E := ix.c, ix.E
	n := len(E)
	cl := c.Ex.Params.Cliques
	buf := c.scoreScratch()
	hasM := cl.Has(Matching)
	hasT := cl.Has(Transition)
	hasS := cl.Has(Synchronization)
	esOn := cl.Has(SegmentationES)
	ssOn := cl.Has(SegmentationSS)

	// fes window: the event runs of i−1 and i+1, which never consult E[i].
	var esA, esB int
	if esOn {
		esA, esB = ix.EventReach(i, i)
	}
	// fss window: the region run around i. Only the two edges at i depend
	// on the candidate.
	var ssa, ssb, ssCh int
	if ssOn {
		ssa, ssb = ix.rs[i], ix.re[i]
		if ssa < i {
			ssCh += ix.eventChanges(ssa, i-1)
		}
		if i < ssb {
			ssCh += ix.eventChanges(i+1, ssb)
		}
	}

	for ei := 0; ei < seq.NumEvents; ei++ {
		e := seq.Event(ei)
		if hasM {
			buf[IdxEM] = c.EM(i, e)
		}
		if hasT {
			et := 0.0
			if i > 0 {
				et += c.ET(E[i-1], e)
			}
			if i+1 < n {
				et += c.ET(e, E[i+1])
			}
			buf[IdxET] = et
		}
		if hasS {
			ec := 0.0
			if i > 0 {
				ec += c.ecExp[3*(i-1)+passCountIdx(E[i-1], e)]
			}
			if i+1 < n {
				ec += c.ecExp[3*i+passCountIdx(e, E[i+1])]
			}
			buf[IdxEC] = ec
		}
		if esOn {
			// e joins the run of i−1 and/or i+1 when it carries their
			// event; otherwise that run stands as its own sub-run.
			var s [3]float64
			x, y := i, i
			if i > 0 {
				if E[i-1] == e {
					x = esA
				} else {
					ix.esAdd(esA, i-1, E[i-1], &s)
				}
			}
			if i+1 < n && E[i+1] == e {
				y = esB
			}
			ix.esAdd(x, y, e, &s)
			if y == i && i+1 < n {
				ix.esAdd(i+1, esB, E[i+1], &s)
			}
			buf[IdxES], buf[IdxES+1], buf[IdxES+2] = s[0], s[1], s[2]
		}
		if ssOn {
			changes := ssCh
			if ssa < i && E[i-1] != e {
				changes++
			}
			if i < ssb && e != E[i+1] {
				changes++
			}
			runLen := float64(ssb - ssa + 1)
			evA, evB := E[ssa], E[ssb]
			if ssa == i {
				evA = e
			}
			if ssb == i {
				evB = e
			}
			buf[IdxSS] = -float64(changes+1) / runLen
			buf[IdxSS+1] = -float64(changes) / runLen
			buf[IdxSS+2] = (passInd(evA) + passInd(evB)) / 2
		}
		scores[ei] = Dot(w, buf)
	}
}

// esCounts returns the distinct-region count of an event run that
// overlaps a segment carrying label r, by whether the run reaches left
// of the segment (bit 0, where it holds the regions outL) and right of
// it (bit 1, outR); nBoth is |outL ∪ outR|.
func esCounts(outL, outR []indoor.RegionID, nBoth int, r indoor.RegionID) [4]int {
	inL, inR := containsRegion(outL, r), containsRegion(outR, r)
	return [4]int{1, len(outL) + btoi(!inL), len(outR) + btoi(!inR), nBoth + btoi(!inL && !inR)}
}

// RegionRunCandScores prices the block move that relabels the uniform
// segment [a, b] to each of labels (none equal to its current label
// R[a]): deltas[k] = w·(f(P, R', E) − f(P, R, E)), bitwise-identical to
// differencing the clique features of the segment's Markov blanket term
// by term. The segment must be right-maximal; its left neighbour may
// carry the same label, as happens when the preceding run was just
// merged into this one. The labels are not modified.
//
// Everything that does not depend on the new label — the old side of
// every difference, the window extents, the regions an overlapping
// event run holds outside the segment — is computed once per call.
func (ix *RunIndex) RegionRunCandScores(w []float64, a, b int, labels []indoor.RegionID, deltas []float64) {
	c, R, E := ix.c, ix.R, ix.E
	n := len(R)
	cl := c.Ex.Params.Cliques
	hasM := cl.Has(Matching)
	hasT := cl.Has(Transition)
	hasS := cl.Has(Synchronization)
	esOn := cl.Has(SegmentationES)
	ssOn := cl.Has(SegmentationSS)
	orig := R[a]

	// Old side of fsm per record and of fsc per interior edge, and of the
	// two boundary edges. Interior fst edges pair identical labels on both
	// sides of the move and cancel; fsc(x, x) depends on the region.
	m := b - a + 1
	c.runOld = growSlice(c.runOld, 2*m)
	smOld, scOld := c.runOld[:m], c.runOld[m:]
	kl, kr := -1, -1
	var stOldL, stOldR, scOldL, scOldR float64
	ko := c.candIndex(a, orig)
	if a > 0 {
		if hasT {
			stOldL = c.fastST(a-1, R[a-1], orig)
		}
		if hasS {
			kl = c.candIndex(a-1, R[a-1])
			scOldL = c.fastSC(a-1, R[a-1], orig, kl, ko)
		}
	}
	for x := a; x <= b; x++ {
		if hasM {
			smOld[x-a] = c.smAt(x, orig, ko)
		}
		if x < b {
			k1 := c.candIndex(x+1, orig)
			if hasS {
				scOld[x-a] = c.fastSC(x, orig, orig, ko, k1)
			}
			ko = k1
		}
	}
	if b+1 < n {
		if hasT {
			stOldR = c.fastST(b, orig, R[b+1])
		}
		if hasS {
			kr = c.candIndex(b+1, R[b+1])
			scOldR = c.fastSC(b, orig, R[b+1], ko, kr)
		}
	}

	// fes: every event run overlapping the segment sees its region labels
	// change. Only the first and the last can reach outside it; outL and
	// outR are the regions they hold there, so a run's distinct count
	// under any segment label is a membership probe (esCounts).
	var esA, esB, nBoth int
	var outL, outR []indoor.RegionID
	if esOn {
		esA, esB = ix.es[a], ix.ee[b]
		outL = ix.distinctRegions(c.seenScratch[:0], esA, a-1)
		outR = ix.distinctRegions(c.seenScratch2[:0], b+1, esB)
		c.seenScratch, c.seenScratch2 = outL, outR
		nBoth = len(outL)
		for _, r := range outR {
			if !containsRegion(outL, r) {
				nBoth++
			}
		}
	}
	esOld := esCounts(outL, outR, nBoth, orig)

	// fss: the old sub-runs of the window are subtracted once; the new
	// ones depend only on how the label merges with the neighbour runs.
	var (
		span   ssSpan
		ssOld  [3]float64
		ssSet  [4]bool
		ssVals [4][3]float64
	)
	if ssOn {
		span = ix.ssSpan(a, b)
		for x := span.A; x <= span.B; x = ix.re[x] + 1 {
			ix.ssAdd(&ssOld, x, ix.re[x], ix.eventChanges(x, ix.re[x]), -1)
		}
	}

	for k, r := range labels {
		buf := c.scoreScratch()
		kn := c.candIndex(a, r)
		if hasT {
			st := 0.0
			if a > 0 {
				st += c.fastST(a-1, R[a-1], r) - stOldL
			}
			if b+1 < n {
				st += c.fastST(b, r, R[b+1]) - stOldR
			}
			buf[IdxST] = st
		}
		sm, sc := 0.0, 0.0
		if hasS && a > 0 {
			sc += c.fastSC(a-1, R[a-1], r, kl, kn) - scOldL
		}
		for x := a; x <= b; x++ {
			if hasM {
				sm += c.smAt(x, r, kn) - smOld[x-a]
			}
			if x < b {
				k1 := c.candIndex(x+1, r)
				if hasS {
					sc += c.fastSC(x, r, r, kn, k1) - scOld[x-a]
				}
				kn = k1
			}
		}
		if hasS && b+1 < n {
			sc += c.fastSC(b, r, R[b+1], kn, kr) - scOldR
		}
		buf[IdxSM], buf[IdxSC] = sm, sc
		if esOn {
			// The speed and turn components do not read region labels and
			// cancel exactly.
			esNew := esCounts(outL, outR, nBoth, r)
			es := 0.0
			for x := esA; x <= esB; {
				y := ix.ee[x]
				sign := 2*passInd(E[x]) - 1
				runLen := float64(y - x + 1)
				j := btoi(x < a) | btoi(y > b)<<1
				es += sign*float64(esNew[j])/runLen - sign*float64(esOld[j])/runLen
				x = y + 1
			}
			buf[IdxES] = es
		}
		if ssOn {
			ck := ix.mergeCase(&span, r)
			if !ssSet[ck] {
				ssSet[ck] = true
				ssVals[ck] = ssOld
				ix.ssSplice(&span, ck, &ssVals[ck])
			}
			buf[IdxSS], buf[IdxSS+1], buf[IdxSS+2] = ssVals[ck][0], ssVals[ck][1], ssVals[ck][2]
		}
		deltas[k] = Dot(w, buf)
	}
}
