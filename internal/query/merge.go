package query

import "math"

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

// MergeTopRegionCounts is TruncateRegionCounts(MergeRegionCounts(lists...), k).
// A single list is already canonical and is only truncated (it is
// never written to); several are concatenated into scratch and run
// through the counting kernel (kernel.go): region order, sum the runs,
// count order.
func MergeTopRegionCounts(k int, lists ...[]RegionCount) []RegionCount {
	if len(lists) == 1 {
		return TruncateRegionCounts(lists[0], k)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	rows := sc.regions[:0]
	for _, l := range lists {
		rows = append(rows, l...)
	}
	sc.regions = rows
	sortRows(sc, rows, &sc.regionsTmp, regionKey)
	return topByCount(sc, sumRegionRuns(rows), &sc.regionsTmp, k, regionCountKey)
}

// MergeTopPairCounts is the pair analogue of MergeTopRegionCounts.
func MergeTopPairCounts(k int, lists ...[]PairCount) []PairCount {
	if len(lists) == 1 {
		return TruncatePairCounts(lists[0], k)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	rows := sc.pairs[:0]
	for _, l := range lists {
		rows = append(rows, l...)
	}
	sc.pairs = rows
	sortRows(sc, rows, &sc.pairsTmp, pairBKey) // least significant component first
	sortRows(sc, rows, &sc.pairsTmp, pairAKey)
	return topByCount(sc, sumPairRuns(rows), &sc.pairsTmp, k, pairCountKey)
}
