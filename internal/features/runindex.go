package features

import (
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// RunIndex is the maintained segment view of one labelling (R, E) of a
// sequence: for every node, the extent of the maximal same-region run
// and of the maximal same-event run containing it. The segmentation
// cliques (fes/fss) are statistics of exactly these runs, so the search
// keeps them as state instead of re-deriving them for every candidate.
//
// Reset builds the index in one pass; afterwards the labels change only
// through SetRegion, SetEvent and SetRegionRun, each of which repairs
// the extents of the run it split and the run it formed — O(affected
// run) per accepted move, nothing per evaluated candidate. The scoring
// kernels in fastscore.go read the index: a run boundary is a lookup,
// "event changes inside [x, y]" and "distinct regions inside [x, y]"
// hop from run to run instead of visiting every record, so a node
// evaluation costs O(candidates + runs of the other chain crossing its
// window) regardless of how long a stay is.
//
// The index only locates runs; every feature value is still assembled
// with the reference expressions in the reference order, so scores stay
// bitwise-identical to the dense path in total.go.
type RunIndex struct {
	c *SeqContext
	// R and E alias the owner's label slices; the setters write them.
	R []indoor.RegionID
	E []seq.Event
	// rs[i]..re[i] is the same-region run around i, es[i]..ee[i] the
	// same-event run; all four are views into ext.
	rs, re, es, ee []int
	ext            []int
}

// Reset binds the index to a context and a labelling and rebuilds it.
func (ix *RunIndex) Reset(c *SeqContext, R []indoor.RegionID, E []seq.Event) {
	n := len(R)
	ix.c, ix.R, ix.E = c, R, E
	ix.ext = growSlice(ix.ext, 4*n)
	ix.rs, ix.re, ix.es, ix.ee = ix.ext[:n], ix.ext[n:2*n], ix.ext[2*n:3*n], ix.ext[3*n:]
	buildRuns(R, ix.rs, ix.re)
	buildRuns(E, ix.es, ix.ee)
}

func buildRuns[T comparable](L []T, s, e []int) {
	for a := 0; a < len(L); {
		b := a
		for b+1 < len(L) && L[b+1] == L[a] {
			b++
		}
		for x := a; x <= b; x++ {
			s[x], e[x] = a, b
		}
		a = b + 1
	}
}

// relabel assigns L[a..b] = v, where [a, b] lies inside one run, and
// repairs the extents of that run's two remainders and of the run the
// new label forms with its neighbours.
func relabel[T comparable](L []T, s, e []int, a, b int, v T) {
	for x := s[a]; x < a; x++ {
		e[x] = a - 1
	}
	for x, end := b+1, e[b]; x <= end; x++ {
		s[x] = b + 1
	}
	ns, ne := a, b
	if a > 0 && L[a-1] == v {
		ns = s[a-1]
	}
	if b+1 < len(L) && L[b+1] == v {
		ne = e[b+1]
	}
	for x := a; x <= b; x++ {
		L[x] = v
	}
	for x := ns; x <= ne; x++ {
		s[x], e[x] = ns, ne
	}
}

// SetRegion assigns R[i] = r.
func (ix *RunIndex) SetRegion(i int, r indoor.RegionID) { relabel(ix.R, ix.rs, ix.re, i, i, r) }

// SetEvent assigns E[i] = e.
func (ix *RunIndex) SetEvent(i int, e seq.Event) { relabel(ix.E, ix.es, ix.ee, i, i, e) }

// SetRegionRun assigns R[a..b] = r; [a, b] must carry one label.
func (ix *RunIndex) SetRegionRun(a, b int, r indoor.RegionID) {
	relabel(ix.R, ix.rs, ix.re, a, b, r)
}

// RegionRun returns the extent of the same-region run around i.
func (ix *RunIndex) RegionRun(i int) (a, b int) { return ix.rs[i], ix.re[i] }

// EventRun returns the extent of the same-event run around i.
func (ix *RunIndex) EventRun(i int) (a, b int) { return ix.es[i], ix.ee[i] }

// RegionReach returns [a, b] extended by the region runs adjacent to it.
func (ix *RunIndex) RegionReach(a, b int) (lo, hi int) { return reach(ix.rs, ix.re, a, b) }

// EventReach returns [a, b] extended by the event runs adjacent to it.
func (ix *RunIndex) EventReach(a, b int) (lo, hi int) { return reach(ix.es, ix.ee, a, b) }

func reach(s, e []int, a, b int) (lo, hi int) {
	lo, hi = a, b
	if a > 0 {
		lo = s[a-1]
	}
	if b+1 < len(e) {
		hi = e[b+1]
	}
	return lo, hi
}

// eventChanges counts the edges x ≤ z < y with E[z] ≠ E[z+1].
func (ix *RunIndex) eventChanges(x, y int) int {
	n := 0
	for z := ix.ee[x]; z < y; z = ix.ee[z+1] {
		n++
	}
	return n
}

// distinctRegions appends to seen the region labels of [x, y] it does
// not hold yet.
func (ix *RunIndex) distinctRegions(seen []indoor.RegionID, x, y int) []indoor.RegionID {
	for x <= y {
		if r := ix.R[x]; !containsRegion(seen, r) {
			seen = append(seen, r)
		}
		x = ix.re[x] + 1
	}
	return seen
}
