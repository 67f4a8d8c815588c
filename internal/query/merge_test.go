package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// randomFleet builds n retention-bounded indexes and feeds them random
// ms-sequences with steadily advancing stream time, so adds and
// evictions interleave across shards exactly as venue stores would see
// them.
func randomFleet(rng *rand.Rand, n, seqsPerShard, regions int) []*Index {
	shards := make([]*Index, n)
	for i := range shards {
		shards[i] = NewIndex(200 + rng.Float64()*400)
	}
	t := make([]float64, n)
	for s := 0; s < seqsPerShard; s++ {
		for i := range shards {
			ms := seq.MSSequence{ObjectID: fmt.Sprintf("v%d-o%d", i, s)}
			stays := 1 + rng.Intn(4)
			for j := 0; j < stays; j++ {
				d := 10 + rng.Float64()*120
				ev := seq.Stay
				if rng.Float64() < 0.2 {
					ev = seq.Pass
				}
				ms.Semantics = append(ms.Semantics, seq.MSemantics{
					Region: indoor.RegionID(rng.Intn(regions)),
					Start:  t[i],
					End:    t[i] + d,
					Event:  ev,
				})
				// Overlapping periods, sometimes jumping backwards so
				// sequences complete out of order within the shard.
				t[i] += d * (0.2 + rng.Float64()*0.8)
				if rng.Float64() < 0.1 {
					t[i] -= d
				}
			}
			shards[i].Add(ms)
		}
	}
	return shards
}

// TestMergeMatchesBruteForceOverConcatenation is the fleet-merge
// property test: merging each shard's untruncated counts must equal a
// brute-force recount over the concatenation of all shards' live
// snapshots — under random adds and retention evictions across >= 3
// shards, random query windows, and random region subsets.
func TestMergeMatchesBruteForceOverConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const regions = 12
	for trial := 0; trial < 25; trial++ {
		shards := randomFleet(rng, 3+rng.Intn(3), 20+rng.Intn(40), regions)

		// The brute-force reference: every shard's snapshot, concatenated.
		var all []seq.MSSequence
		for _, ix := range shards {
			all = append(all, ix.Snapshot()...)
		}

		q := make([]indoor.RegionID, 0, regions)
		for r := 0; r < regions; r++ {
			if rng.Float64() < 0.7 {
				q = append(q, indoor.RegionID(r))
			}
		}
		lo := rng.Float64() * 3000
		w := Window{Start: lo, End: lo + rng.Float64()*3000}
		k := 1 + rng.Intn(regions)

		regionParts := make([][]RegionCount, len(shards))
		pairParts := make([][]PairCount, len(shards))
		for i, ix := range shards {
			regionParts[i] = ix.TopKPopularRegions(q, w, AllCounts)
			pairParts[i] = ix.TopKFrequentPairs(q, w, AllCounts)
		}

		gotR := TruncateRegionCounts(MergeRegionCounts(regionParts...), k)
		wantR := TopKPopularRegions(all, q, w, k)
		if !reflect.DeepEqual(append([]RegionCount{}, gotR...), wantR) {
			t.Fatalf("trial %d: merged TkPRQ = %v, brute force = %v (window %+v, k=%d)", trial, gotR, wantR, w, k)
		}

		gotP := TruncatePairCounts(MergePairCounts(pairParts...), k)
		wantP := TopKFrequentPairs(all, q, w, k)
		if !reflect.DeepEqual(append([]PairCount{}, gotP...), wantP) {
			t.Fatalf("trial %d: merged TkFRPQ = %v, brute force = %v (window %+v, k=%d)", trial, gotP, wantP, w, k)
		}
	}
}

// TestMergeMatchesBruteForceHostileShapes widens the fleet-merge
// property to the shapes TestMergeMatchesBruteForceOverConcatenation
// leaves out: three to six shards whose region sets are identical,
// pairwise disjoint or overlapping, over sparse, large and negative
// region IDs, at k of 0, 1, a few and AllCounts. The reference is the
// brute-force recount over the concatenated snapshots.
func TestMergeMatchesBruteForceHostileShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		nShards := 3 + rng.Intn(4)
		// pools[i] is the region set shard i draws from.
		pools := make([][]indoor.RegionID, nShards)
		for i := range pools {
			switch trial % 3 {
			case 0: // identical key sets
				pools[i] = hostileIDs[:6]
			case 1: // disjoint key sets
				pools[i] = hostileIDs[2*i : 2*i+2]
			default: // overlapping
				pools[i] = hostileIDs[i : i+8]
			}
		}
		shards := randomFleet(rng, nShards, 10+rng.Intn(30), 8)
		var all []seq.MSSequence
		for i, ix := range shards {
			// Re-label the shard onto its pool and re-index it.
			relabelled := NewIndex(0)
			for _, ms := range ix.Snapshot() {
				sems := slices.Clone(ms.Semantics)
				for j := range sems {
					sems[j].Region = pools[i][int(sems[j].Region)%len(pools[i])]
				}
				ms.Semantics = sems
				relabelled.Add(ms)
				all = append(all, ms)
			}
			shards[i] = relabelled
		}
		q := append(slices.Clone(hostileIDs), unseenIDs...)
		lo := rng.Float64() * 2000
		w := Window{Start: lo, End: lo + rng.Float64()*3000}
		regionParts := make([][]RegionCount, nShards)
		pairParts := make([][]PairCount, nShards)
		for i, ix := range shards {
			regionParts[i] = ix.TopKPopularRegions(q, w, AllCounts)
			pairParts[i] = ix.TopKFrequentPairs(q, w, AllCounts)
		}
		for _, k := range []int{0, 1, 4, AllCounts} {
			if got, want := MergeTopRegionCounts(k, regionParts...), TopKPopularRegions(all, q, w, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: merged TkPRQ = %v, brute force = %v", trial, k, got, want)
			}
			if got, want := MergeTopPairCounts(k, pairParts...), TopKFrequentPairs(all, q, w, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: merged TkFRPQ = %v, brute force = %v", trial, k, got, want)
			}
		}
	}
}

// TestMergeSumsAnyCounts: partials off the wire (the router merges what
// backends send) need not look like counts the index produces. Zero,
// negative and huge counts must sum and rank as the comparator order
// says — the reference here is a map and SortRegionCounts/SortPairCounts.
func TestMergeSumsAnyCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	counts := []int{0, 1, 2, -1, -300, 255, 256, 1 << 40, math.MaxInt / 4, math.MinInt / 4}
	for trial := 0; trial < 40; trial++ {
		nLists := 2 + rng.Intn(4)
		regionLists := make([][]RegionCount, nLists)
		pairLists := make([][]PairCount, nLists)
		regionSum := map[indoor.RegionID]int{}
		pairSum := map[[2]indoor.RegionID]int{}
		for i := range regionLists {
			for ai, a := range hostileIDs {
				if c := counts[rng.Intn(len(counts))]; rng.Intn(2) == 0 {
					regionLists[i] = append(regionLists[i], RegionCount{a, c})
					regionSum[a] += c
				}
				for _, b := range hostileIDs[ai+1:] {
					if c := counts[rng.Intn(len(counts))]; rng.Intn(3) == 0 {
						lo, hi := min(a, b), max(a, b)
						pairLists[i] = append(pairLists[i], PairCount{lo, hi, c})
						pairSum[[2]indoor.RegionID{lo, hi}] += c
					}
				}
			}
			SortRegionCounts(regionLists[i])
			SortPairCounts(pairLists[i])
		}
		wantR := make([]RegionCount, 0, len(regionSum))
		for r, c := range regionSum {
			wantR = append(wantR, RegionCount{r, c})
		}
		SortRegionCounts(wantR)
		wantP := make([]PairCount, 0, len(pairSum))
		for p, c := range pairSum {
			wantP = append(wantP, PairCount{p[0], p[1], c})
		}
		SortPairCounts(wantP)
		if got := MergeRegionCounts(regionLists...); !reflect.DeepEqual(got, wantR) {
			t.Fatalf("trial %d: merged regions = %v, want %v", trial, got, wantR)
		}
		if got := MergePairCounts(pairLists...); !reflect.DeepEqual(got, wantP) {
			t.Fatalf("trial %d: merged pairs = %v, want %v", trial, got, wantP)
		}
	}
}

// TestMergeSingleShardIsIdentity pins the single-list fast path: a
// one-venue merge is the shard's own canonical answer.
func TestMergeSingleShardIsIdentity(t *testing.T) {
	in := []RegionCount{{Region: 2, Count: 9}, {Region: 1, Count: 4}}
	if got := MergeRegionCounts(in); !reflect.DeepEqual(got, in) {
		t.Fatalf("single-shard merge = %v, want input %v", got, in)
	}
	pin := []PairCount{{A: 1, B: 2, Count: 3}}
	if got := MergePairCounts(pin); !reflect.DeepEqual(got, pin) {
		t.Fatalf("single-shard pair merge = %v, want input %v", got, pin)
	}
}

// TestMergeSumsSharedRegionIDs pins the namespace semantics: counts of
// the same region ID from different shards sum, and a region that is
// nobody's per-shard leader can still win the merged ranking.
func TestMergeSumsSharedRegionIDs(t *testing.T) {
	a := []RegionCount{{Region: 1, Count: 5}, {Region: 3, Count: 4}}
	b := []RegionCount{{Region: 2, Count: 5}, {Region: 3, Count: 4}}
	got := MergeRegionCounts(a, b)
	want := []RegionCount{{Region: 3, Count: 8}, {Region: 1, Count: 5}, {Region: 2, Count: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

// TestTruncateBounds pins the truncation edge cases shared by every
// ranked list.
func TestTruncateBounds(t *testing.T) {
	in := []RegionCount{{Region: 1, Count: 2}, {Region: 2, Count: 1}}
	if got := TruncateRegionCounts(in, 1); len(got) != 1 || got[0].Region != 1 {
		t.Fatalf("k=1 truncation = %v", got)
	}
	if got := TruncateRegionCounts(in, 0); len(got) != 0 {
		t.Fatalf("k=0 truncation = %v, want empty", got)
	}
	if got := TruncateRegionCounts(in, -3); len(got) != 0 {
		t.Fatalf("negative k truncation = %v, want empty", got)
	}
	if got := TruncateRegionCounts(in, 99); !reflect.DeepEqual(got, in) {
		t.Fatalf("oversized k truncation = %v, want input", got)
	}
	if got := TruncateRegionCounts(nil, 5); got != nil {
		t.Fatalf("nil truncation = %v, want nil", got)
	}
	if got := TruncatePairCounts([]PairCount{{A: 1, B: 2, Count: 1}}, 0); len(got) != 0 {
		t.Fatalf("pair k=0 truncation = %v, want empty", got)
	}
}

// TestMergeTopEqualsTruncatedMerge pins the selection path against the
// full sort it replaces: for every list count (none, the single-list
// pass-through, several) and every k around the edges, MergeTop* is
// Truncate*(Merge*(...), k) — nil-ness included, since the HTTP layer
// renders nil and empty lists differently — and never writes to its
// inputs, which are other requests' cached partials.
func TestMergeTopEqualsTruncatedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		nLists := trial % 4
		regionLists := make([][]RegionCount, nLists)
		pairLists := make([][]PairCount, nLists)
		for i := range regionLists {
			for r := 0; r < 60; r++ {
				if rng.Intn(3) > 0 {
					// Few distinct counts, so ties are decided by ID.
					regionLists[i] = append(regionLists[i], RegionCount{Region: indoor.RegionID(r), Count: 1 + rng.Intn(4)})
				}
			}
			SortRegionCounts(regionLists[i])
			pairLists[i] = randomPairCounts(rng, 150+rng.Intn(100))
			SortPairCounts(pairLists[i])
		}
		if trial == 1 {
			regionLists[0], pairLists[0] = nil, nil
		}
		regionsBefore := fmt.Sprint(regionLists)
		pairsBefore := fmt.Sprint(pairLists)
		nR, nP := len(MergeRegionCounts(regionLists...)), len(MergePairCounts(pairLists...))
		for _, k := range []int{-1, 0, 1, 5, nR - 1, nR, nR + 1, nP - 1, nP, nP + 1, AllCounts} {
			gotR, wantR := MergeTopRegionCounts(k, regionLists...), TruncateRegionCounts(MergeRegionCounts(regionLists...), k)
			if !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("trial %d k=%d: MergeTopRegionCounts = %#v, truncated merge = %#v", trial, k, gotR, wantR)
			}
			gotP, wantP := MergeTopPairCounts(k, pairLists...), TruncatePairCounts(MergePairCounts(pairLists...), k)
			if !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("trial %d k=%d: MergeTopPairCounts = %#v, truncated merge = %#v", trial, k, gotP, wantP)
			}
		}
		if fmt.Sprint(regionLists) != regionsBefore || fmt.Sprint(pairLists) != pairsBefore {
			t.Fatalf("trial %d: a merge wrote to its input lists", trial)
		}
	}
}

// BenchmarkMergeTopPairCounts measures the cross-venue pair merge as a
// fleet query runs it on every request, cache hits included: untruncated
// canonical lists in (about 10 k rows each over a 202-region venue,
// mostly the same pairs), the merged top 10 out.
func BenchmarkMergeTopPairCounts(b *testing.B) {
	for _, nLists := range []int{2, 4} {
		b.Run(fmt.Sprintf("lists=%d", nLists), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			lists := make([][]PairCount, nLists)
			rows := 0
			for i := range lists {
				for a := 0; a < 202; a++ {
					for c := a + 1; c < 202; c++ {
						if rng.Intn(2) == 0 {
							lists[i] = append(lists[i], PairCount{A: indoor.RegionID(a), B: indoor.RegionID(c), Count: 1 + rng.Intn(40)})
						}
					}
				}
				SortPairCounts(lists[i])
				rows += len(lists[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := MergeTopPairCounts(10, lists...); len(got) != 10 {
					b.Fatalf("merged top-10 has %d rows", len(got))
				}
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
