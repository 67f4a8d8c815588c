package query

import (
	"cmp"
	"math"
	"slices"

	"c2mn/internal/indoor"
)

// AllCounts, passed as k, disables top-k truncation: the query returns
// the full count list, the form a cross-shard merge needs.
const AllCounts = math.MaxInt

// Cross-shard merging. A fleet-scoped query fans out to per-venue
// stores, collects each shard's untruncated counts, and merges them
// here. The merge is exact because the partials are full counts, not
// per-shard top-k lists: a region ranked k+1 in every shard can still
// win the merged ranking, which a merge of truncated lists would miss.
//
// All ranked count lists in this package share one canonical order —
// count descending, ties broken by region ID(s) ascending — so merged
// and single-shard answers compare (and concatenate across pages)
// deterministically.

// SortRegionCounts orders a count list canonically: count descending,
// ties broken by region ID ascending. The change-feed fold
// (internal/notify) re-sorts answers it reassembles from deltas with
// this, so folded and freshly-computed answers compare byte-for-byte.
func SortRegionCounts(out []RegionCount) { slices.SortFunc(out, compareRegionCounts) }

// SortPairCounts orders a pair-count list canonically.
func SortPairCounts(out []PairCount) { slices.SortFunc(out, comparePairCounts) }

// compareRegionCounts is the canonical order of region counts.
func compareRegionCounts(a, b RegionCount) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return cmp.Compare(a.Region, b.Region)
}

// comparePairCounts is the canonical order of pair counts.
func comparePairCounts(a, b PairCount) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	if a.A != b.A {
		return cmp.Compare(a.A, b.A)
	}
	return cmp.Compare(a.B, b.B)
}

// selectTop returns the first k elements of s in compare order, sorted —
// what sorting all of s and truncating to k yields — in O(n log k)
// instead of O(n log n). It works in place and keeps only the winners:
// s must be scratch the caller owns. k >= len(s) sorts everything.
func selectTop[T any](s []T, k int, compare func(a, b T) int) []T {
	if k >= len(s) {
		slices.SortFunc(s, compare)
		return s
	}
	// h is a heap with the last-ranked of the k kept elements on top,
	// so one comparison decides whether a further element displaces it.
	h := s[:max(k, 0)]
	if len(h) == 0 {
		return h
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && compare(h[c+1], h[c]) > 0 {
				c++
			}
			if compare(h[c], h[i]) <= 0 {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for _, x := range s[len(h):] {
		if compare(x, h[0]) < 0 {
			h[0] = x
			down(0)
		}
	}
	slices.SortFunc(h, compare)
	return h
}

// TruncateRegionCounts caps a canonically-ordered count list at k
// entries. k <= 0 yields an empty list; a nil input stays nil.
func TruncateRegionCounts(rcs []RegionCount, k int) []RegionCount {
	if rcs == nil {
		return nil
	}
	if k < 0 {
		k = 0
	}
	if len(rcs) > k {
		rcs = rcs[:k]
	}
	return rcs
}

// TruncatePairCounts caps a canonically-ordered pair-count list at k
// entries. k <= 0 yields an empty list; a nil input stays nil.
func TruncatePairCounts(pcs []PairCount, k int) []PairCount {
	if pcs == nil {
		return nil
	}
	if k < 0 {
		k = 0
	}
	if len(pcs) > k {
		pcs = pcs[:k]
	}
	return pcs
}

// MergeRegionCounts sums per-shard region counts exactly — the inputs
// must be untruncated — and returns the merged counts in canonical
// order. Region IDs are merged by value: fleet queries assume a shared
// region ID namespace across venues (the per-venue breakdown is the
// disambiguated view).
func MergeRegionCounts(lists ...[]RegionCount) []RegionCount {
	return MergeTopRegionCounts(AllCounts, lists...)
}

// MergePairCounts is the pair analogue of MergeRegionCounts.
func MergePairCounts(lists ...[]PairCount) []PairCount {
	return MergeTopPairCounts(AllCounts, lists...)
}

// MergeTopRegionCounts is TruncateRegionCounts(MergeRegionCounts(lists...), k)
// without ranking the rows the truncation drops: the merged top k is
// selected, not cut from a full sort. A single list is already
// canonical and is only truncated (it is never written to).
func MergeTopRegionCounts(k int, lists ...[]RegionCount) []RegionCount {
	if len(lists) == 1 {
		return TruncateRegionCounts(lists[0], k)
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	counts := make(map[indoor.RegionID]int, total)
	for _, l := range lists {
		for _, rc := range l {
			counts[rc.Region] += rc.Count
		}
	}
	out := make([]RegionCount, 0, len(counts))
	for r, c := range counts {
		out = append(out, RegionCount{Region: r, Count: c})
	}
	return selectTop(out, k, compareRegionCounts)
}

// MergeTopPairCounts is the pair analogue of MergeTopRegionCounts.
func MergeTopPairCounts(k int, lists ...[]PairCount) []PairCount {
	if len(lists) == 1 {
		return TruncatePairCounts(lists[0], k)
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	counts := make(map[[2]indoor.RegionID]int, total)
	for _, l := range lists {
		for _, pc := range l {
			counts[[2]indoor.RegionID{pc.A, pc.B}] += pc.Count
		}
	}
	out := make([]PairCount, 0, len(counts))
	for p, c := range counts {
		out = append(out, PairCount{A: p[0], B: p[1], Count: c})
	}
	return selectTop(out, k, comparePairCounts)
}
