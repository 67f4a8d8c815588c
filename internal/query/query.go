// Package query implements the two semantics-oriented top-k queries
// the paper uses to judge m-semantics quality (§V-B4):
//
//   - TkPRQ, the top-k popular region query: the k regions of a query
//     set Q with the most visits (stay events) in a time window;
//   - TkFRPQ, the top-k frequent region pair query: the k pairs from
//     Q×Q most often visited by the same object in the window.
//
// Precision compares a method's top-k against the ground truth top-k.
package query

import (
	"cmp"
	"slices"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// Window is a query time interval [Start, End] in seconds.
type Window struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Contains reports whether an m-semantics period intersects the
// window.
func (w Window) Contains(ms seq.MSemantics) bool {
	return ms.End >= w.Start && ms.Start <= w.End
}

// RegionCount pairs a region with its visit count.
type RegionCount struct {
	Region indoor.RegionID `json:"region"`
	Count  int             `json:"count"`
}

// PairCount pairs an ordered region pair with its co-visit count.
type PairCount struct {
	A     indoor.RegionID `json:"a"`
	B     indoor.RegionID `json:"b"`
	Count int             `json:"count"`
}

// visits returns, per object, the set of query regions the object
// stayed in during the window (a visit is a stay event, footnote 8).
func visits(mss []seq.MSSequence, q map[indoor.RegionID]bool, w Window) []map[indoor.RegionID]int {
	out := make([]map[indoor.RegionID]int, 0, len(mss))
	for i := range mss {
		m := map[indoor.RegionID]int{}
		for _, ms := range mss[i].Semantics {
			if ms.Event == seq.Stay && q[ms.Region] && w.Contains(ms) {
				m[ms.Region]++
			}
		}
		out = append(out, m)
	}
	return out
}

func regionSet(q []indoor.RegionID) map[indoor.RegionID]bool {
	s := make(map[indoor.RegionID]bool, len(q))
	for _, r := range q {
		s[r] = true
	}
	return s
}

// TopKPopularRegions answers a TkPRQ: the k regions of Q with the most
// visits in the window, ties broken by region ID for determinism.
func TopKPopularRegions(mss []seq.MSSequence, q []indoor.RegionID, w Window, k int) []RegionCount {
	counts := map[indoor.RegionID]int{}
	for _, v := range visits(mss, regionSet(q), w) {
		for r, c := range v {
			counts[r] += c
		}
	}
	out := make([]RegionCount, 0, len(counts))
	for r, c := range counts {
		out = append(out, RegionCount{r, c})
	}
	SortRegionCounts(out)
	return TruncateRegionCounts(out, k)
}

// TopKFrequentPairs answers a TkFRPQ: the k pairs of Q×Q most
// frequently visited by the same object within the window. Each object
// contributes one count per distinct pair it visited.
func TopKFrequentPairs(mss []seq.MSSequence, q []indoor.RegionID, w Window, k int) []PairCount {
	counts := map[[2]indoor.RegionID]int{}
	for _, v := range visits(mss, regionSet(q), w) {
		regions := make([]indoor.RegionID, 0, len(v))
		for r := range v {
			regions = append(regions, r)
		}
		slices.Sort(regions)
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				counts[[2]indoor.RegionID{regions[i], regions[j]}]++
			}
		}
	}
	out := make([]PairCount, 0, len(counts))
	for p, c := range counts {
		out = append(out, PairCount{p[0], p[1], c})
	}
	SortPairCounts(out)
	return TruncatePairCounts(out, k)
}

// SortRegionCounts orders a count list canonically: count descending,
// ties broken by region ID ascending. It is the definition of the
// canonical order — a plain comparator sort, which the brute-force
// recounts above use and the index and merge kernels (kernel.go) must
// reproduce without one. The change-feed fold
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

// RegionPrecision is the fraction of the true top-k regions present in
// the returned top-k (the paper's precision metric, §V-B4).
func RegionPrecision(got, truth []RegionCount, k int) float64 {
	if k <= 0 {
		return 0
	}
	want := map[indoor.RegionID]bool{}
	for i, rc := range truth {
		if i >= k {
			break
		}
		want[rc.Region] = true
	}
	if len(want) == 0 {
		return 0
	}
	hit := 0
	for i, rc := range got {
		if i >= k {
			break
		}
		if want[rc.Region] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// PairPrecision is the pair analogue of RegionPrecision.
func PairPrecision(got, truth []PairCount, k int) float64 {
	if k <= 0 {
		return 0
	}
	want := map[[2]indoor.RegionID]bool{}
	for i, pc := range truth {
		if i >= k {
			break
		}
		want[[2]indoor.RegionID{pc.A, pc.B}] = true
	}
	if len(want) == 0 {
		return 0
	}
	hit := 0
	for i, pc := range got {
		if i >= k {
			break
		}
		if want[[2]indoor.RegionID{pc.A, pc.B}] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
