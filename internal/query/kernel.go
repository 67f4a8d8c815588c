package query

import (
	"sync"

	"c2mn/internal/indoor"
)

// The counting kernel shared by the index's miss path (index.go) and
// the cross-shard merge (merge.go). Both reduce a top-k query to the
// same three steps over flat slices — no Go map, no comparator:
//
//  1. put the rows in key order (region ascending, or A then B
//     ascending) with a stable LSD radix sort;
//  2. sum each run of equal keys into one row;
//  3. stable-sort the summed rows by count descending.
//
// Step 3 is stable over rows already in key order, so its output is
// the package's canonical order (count ↓, then region IDs ↑) exactly,
// ties included.

// radixSort stably sorts keys ascending, least significant byte first,
// and moves rows (rows[i] belongs to keys[i]; nil when the keys are the
// rows) along with them. keysTmp and rowsTmp are the ping-pong buffers,
// at least as long; the result is always left in keys and rows. Only
// the bytes in which the keys actually differ cost a pass: region
// positions below 256 sort in one pass per component, visit counts
// below 256 in one, and a full-width key (a sparse or negative RegionID
// off the wire) still sorts correctly, in at most eight.
func radixSort[T any](keys, keysTmp []uint64, rows, rowsTmp []T) {
	if len(keys) < 2 {
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	src, dst := keys, keysTmp[:len(keys)]
	srcRows, dstRows := rows, rowsTmp
	for shift := uint(0); shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue // every key has the same byte here
		}
		var next [256]int
		for _, k := range src {
			next[k>>shift&0xff]++
		}
		at := 0
		for b, n := range next {
			next[b] = at
			at += n
		}
		for i, k := range src {
			to := next[k>>shift&0xff]
			next[k>>shift&0xff]++
			dst[to] = k
			if rows != nil {
				dstRows[to] = srcRows[i]
			}
		}
		src, dst = dst, src
		srcRows, dstRows = dstRows, srcRows
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(rows, srcRows)
	}
}

// ascending maps a signed value onto a radix key that sorts in the
// value's order; descending onto one that sorts in the reverse order.
func ascending(v int) uint64  { return uint64(v) ^ 1<<63 }
func descending(v int) uint64 { return ^ascending(v) }

// sortRows stably sorts rows by key ascending, with *tmp (grown to fit)
// as the other buffer. The keys are worked out once per row here, so
// the radix passes run without a call per element.
func sortRows[T any](sc *scratch, rows []T, tmp *[]T, key func(*T) uint64) {
	*tmp = grow(*tmp, len(rows))
	sc.keys, sc.keysTmp = grow(sc.keys, len(rows)), grow(sc.keysTmp, len(rows))
	for i := range rows {
		sc.keys[i] = key(&rows[i])
	}
	radixSort(sc.keys, sc.keysTmp, rows, *tmp)
}

// topByCount takes rows in key order and returns the first k in
// canonical order as a fresh, exactly-sized slice: rows and *tmp are
// pooled scratch, the answer outlives the call (the engine caches it).
// k <= 0 yields an empty, non-nil list.
func topByCount[T any](sc *scratch, rows []T, tmp *[]T, k int, countKey func(*T) uint64) []T {
	sortRows(sc, rows, tmp, countKey)
	out := make([]T, max(min(k, len(rows)), 0))
	copy(out, rows)
	return out
}

// The rows the kernel sorts: their keys, and the run sums (each run of
// adjacent rows with one key folds into its first row, in place).

func regionKey(rc *RegionCount) uint64      { return ascending(int(rc.Region)) }
func regionCountKey(rc *RegionCount) uint64 { return descending(rc.Count) }

func sumRegionRuns(rows []RegionCount) []RegionCount {
	n := 0
	for _, rc := range rows {
		if n > 0 && rows[n-1].Region == rc.Region {
			rows[n-1].Count += rc.Count
			continue
		}
		rows[n] = rc
		n++
	}
	return rows[:n]
}

func pairAKey(pc *PairCount) uint64     { return ascending(int(pc.A)) }
func pairBKey(pc *PairCount) uint64     { return ascending(int(pc.B)) }
func pairCountKey(pc *PairCount) uint64 { return descending(pc.Count) }

func sumPairRuns(rows []PairCount) []PairCount {
	n := 0
	for _, pc := range rows {
		if n > 0 && rows[n-1].A == pc.A && rows[n-1].B == pc.B {
			rows[n-1].Count += pc.Count
			continue
		}
		rows[n] = pc
		n++
	}
	return rows[:n]
}

// scratch is the working memory of one index query or merge. Queries
// run concurrently under Store's read lock, so it is per call, pooled,
// and never reachable from an Index; what a call returns is copied out
// of it (topByCount).
type scratch struct {
	acc   []int32           // TkPRQ: per-rank visit count
	pos   []int32           // per rank: 1-based position in the ascending query set, 0 = not queried
	posID []indoor.RegionID // position -> region
	owner []int32           // per position: serial of the last sequence that visited it
	regs  []int32           // one sequence's visited positions
	seen  []uint32          // per stored sequence: epoch of the last query that counted it
	epoch uint32

	keys, keysTmp       []uint64 // radix keys: TkFRPQ's packed position pairs, then sortRows' row keys
	pairs, pairsTmp     []PairCount
	regions, regionsTmp []RegionCount
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resized to n elements, reallocating (with headroom,
// contents dropped) only when the capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// nextEpoch returns the seen stamps for n stored sequences and a stamp
// value none of them holds, so "seen in this query" needs no clearing.
func (sc *scratch) nextEpoch(n int) ([]uint32, uint32) {
	if len(sc.seen) < n {
		sc.seen = make([]uint32, n+n/4) // zeroed: below every epoch in use
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: old stamps could collide
		clear(sc.seen)
		sc.epoch = 1
	}
	return sc.seen, sc.epoch
}
