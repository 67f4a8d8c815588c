package query

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// Index is an incrementally-maintained, time-bucketed aggregate over a
// set of retained ms-sequences. It answers the two top-k queries
// exactly — identical to a brute-force recount over the retained
// sequences — from flat slices indexed by dense integers: no query
// touches a Go map or a comparator sort.
//
// Regions are interned: the first stay event naming a region gives it
// the next dense rank, and everything below is indexed by rank. The
// structure is a ring of fixed-width time buckets covering the span of
// all retained stay events. Per bucket it keeps
//
//   - two dense rows of per-rank counts: live stay events whose period
//     *starts* in the bucket and, separately, whose period *ends* in it;
//   - the start/end event records themselves, for exact partial counts
//     inside the two buckets a query window's edges fall into;
//   - the set of sequences with a stay period intersecting the bucket,
//     the candidate generator for the pair query.
//
// Beside the ring, every sequence's stay events sit in one flat
// (rank, start, end) arena, so a candidate is scanned without touching
// its m-semantics triples.
//
// TkPRQ uses the identity, valid for Start <= End windows,
//
//	#{e : e.End >= w.Start && e.Start <= w.End}
//	  = #{e : e.Start <= w.End} - #{e : e.End < w.Start}
//
// both terms of which are row additions over the buckets before the
// bound plus one boundary-bucket scan: O(buckets · regions) slice adds
// (at most 128 rows of int32 a side), independent of how many
// sequences are retained. TkFRPQ gathers the sequences registered in
// the buckets the window overlaps, emits one packed key per
// (sequence, region pair) incidence, radix-sorts the keys and counts
// runs: O(incidences + regions), proportional to the activity inside
// the window rather than to the total retained history. Both finish
// with the counting kernel's stable sort by count (kernel.go), which
// over rows already in region order is the canonical order exactly.
// Working memory is per call and pooled; the index itself is only read.
//
// Memory: a bucket's two rows are 4 bytes per rank each and only as
// long as the highest rank the bucket has seen — at most 8 bytes per
// interned region per bucket, 1.6 KB at 202 regions and 40 KB at
// 5,000 (0.2 MB and 5 MB for a full 128-bucket ring).
//
// When the event span outgrows the bucket budget the bucket width
// doubles and the ring is rebuilt from the retained sequences, so the
// bucket count stays bounded for unbounded retention. Eviction is
// driven by a min-heap on sequence end time, which is correct for
// out-of-order sequence completion (a stale sequence is evicted even
// when fresher sequences arrived before it). Evicted sequences are
// removed from the rows immediately and from the per-bucket event
// lists and the arena lazily; compaction drops them once dead
// sequences outnumber live ones. Ranks are never serialised:
// RestoreIndex re-interns while it replays the sequences.
//
// An Index is not safe for concurrent use; Store adds the lock.
type Index struct {
	retention float64

	maxBuckets int
	baseWidth  float64 // finest resolution; width recovers to it on rebuilds
	width      float64 // current bucket width in seconds
	base       int64   // time-key of buckets[0] (key = floor(t/width))
	buckets    []bucket

	seqs []idxSeq
	heap []int32 // min-heap of seq indices ordered by end time

	// Region interning. Every region a stay event names gets a dense
	// rank in order of first appearance; ranks index the bucket rows and
	// never change, so a new region costs one sorted insert here and
	// nothing else. The table is kept in region order: a query resolves
	// its region set by binary search and reads answers off it ascending.
	regionIDs   []indoor.RegionID // interned regions, ascending
	regionRanks []int32           // regionRanks[i] is the rank of regionIDs[i]

	// stays is the arena of every stored sequence's stay events, in
	// sequence order: what the queries and eviction read instead of the
	// m-semantics triples (which stay in seqs for Snapshot).
	stays []stayRef

	alive    int // live sequences
	aliveSem int // semantics triples across live sequences
	maxEnd   float64
	hasMax   bool

	// gen counts content mutations: every Add and every eviction bumps
	// it, so two reads of the index under the same generation are
	// guaranteed to see identical content. Query results memoized under
	// a generation never need explicit invalidation — a moved generation
	// simply never matches again.
	gen uint64
}

// idxSeq is one stored sequence plus its eviction bookkeeping.
type idxSeq struct {
	ms             seq.MSSequence
	end            float64 // last semantics End: the eviction key
	stayLo, stayHi int32   // its stay events are stays[stayLo:stayHi]
	dead           bool
}

// stayRef is one stay event: the region's rank and the period.
type stayRef struct {
	rank       int32
	start, end float64
}

// bucket aggregates the stay events of one time slice.
type bucket struct {
	stayStarts []int32    // live stay events starting here, by region rank
	stayEnds   []int32    // live stay events ending here, by region rank
	starts     []eventRef // the start events themselves (lazy-deleted)
	ends       []eventRef // the end events themselves (lazy-deleted)
	seqIDs     []int32    // sequences with a stay period intersecting the bucket
}

// eventRef is one endpoint of a stay event.
type eventRef struct {
	seq  int32
	rank int32
	t    float64
}

const (
	// defaultMaxBuckets bounds the ring; beyond it the width doubles.
	defaultMaxBuckets = 128
	// retentionBuckets is the initial resolution of a bounded window.
	retentionBuckets = 48
	// defaultWidth (seconds) seeds the resolution when retention is
	// unbounded and no better guess exists.
	defaultWidth = 60
	// compactMinDead delays list compaction until it pays for itself.
	compactMinDead = 64
	// maxKeyMagnitude clamps time keys so extreme timestamps (e.g. a
	// client feeding t = 1e300) cannot overflow the int64 key space.
	maxKeyMagnitude = int64(1) << 53
)

// NewIndex returns an empty index. retention <= 0 keeps everything.
func NewIndex(retention float64) *Index {
	width := float64(defaultWidth)
	if retention > 0 && retention/retentionBuckets < width {
		width = retention / retentionBuckets
	}
	return &Index{
		retention:  retention,
		maxBuckets: defaultMaxBuckets,
		baseWidth:  width,
		width:      width,
	}
}

// fitWidth returns the smallest power-of-two multiple of the base
// width at which the [lo, hi] time range fits the bucket budget.
// Starting from the base width — not the current one — lets the
// resolution recover after a transiently wide span (one sequence with
// an extreme timestamp would otherwise coarsen the index forever).
func (ix *Index) fitWidth(lo, hi float64) float64 {
	width := ix.baseWidth
	for spanAt(lo, hi, width) > int64(ix.maxBuckets) {
		width *= 2
	}
	return width
}

// keyOf maps a timestamp to its bucket key at the current width.
func (ix *Index) keyOf(t float64) int64 {
	f := math.Floor(t / ix.width)
	switch {
	case f > float64(maxKeyMagnitude):
		return maxKeyMagnitude
	case f < -float64(maxKeyMagnitude):
		return -maxKeyMagnitude
	}
	return int64(f)
}

// Add inserts one ms-sequence, updates the bucket aggregates with its
// stay events, and evicts sequences that fell behind the retention
// horizon. Sequences with no semantics are ignored.
func (ix *Index) Add(ms seq.MSSequence) {
	if len(ms.Semantics) == 0 {
		return
	}
	ix.gen++
	end := ms.Semantics[len(ms.Semantics)-1].End
	idx := int32(len(ix.seqs))
	lo := len(ix.stays)
	for _, m := range ms.Semantics {
		if m.Event == seq.Stay {
			ix.stays = append(ix.stays, stayRef{rank: ix.intern(m.Region), start: m.Start, end: m.End})
		}
	}
	ix.seqs = append(ix.seqs, idxSeq{ms: ms, end: end, stayLo: int32(lo), stayHi: int32(len(ix.stays))})
	ix.alive++
	ix.aliveSem += len(ms.Semantics)
	if !ix.hasMax || end > ix.maxEnd {
		ix.maxEnd, ix.hasMax = end, true
	}
	// Coverage first: growing the ring may instead trigger a coarsening
	// rebuild, which (re)indexes every live sequence including this one.
	if !ix.ensureCoverage(idx) {
		ix.indexEvents(idx)
	}
	ix.heapPush(idx)
	ix.evict()
	if dead := len(ix.seqs) - ix.alive; dead >= compactMinDead && dead > ix.alive {
		ix.compact()
	}
}

// intern returns r's rank, assigning the next one on first sight.
func (ix *Index) intern(r indoor.RegionID) int32 {
	i, ok := slices.BinarySearch(ix.regionIDs, r)
	if !ok {
		ix.regionRanks = slices.Insert(ix.regionRanks, i, int32(len(ix.regionIDs)))
		ix.regionIDs = slices.Insert(ix.regionIDs, i, r)
	}
	return ix.regionRanks[i]
}

// staysOf returns seq idx's stay events.
func (ix *Index) staysOf(idx int32) []stayRef {
	s := &ix.seqs[idx]
	return ix.stays[s.stayLo:s.stayHi]
}

// ensureCoverage extends the ring to cover seq idx's stay events. It
// reports whether it rebuilt the ring (which indexes idx already).
func (ix *Index) ensureCoverage(idx int32) bool {
	lo, hi, any := int64(0), int64(0), false
	for _, st := range ix.staysOf(idx) {
		ks, ke := ix.keyOf(st.start), ix.keyOf(st.end)
		if !any {
			lo, hi, any = ks, ke, true
			continue
		}
		lo, hi = min(lo, ks), max(hi, ke)
	}
	if !any {
		return false
	}
	if len(ix.buckets) > 0 {
		lo = min(lo, ix.base)
		hi = max(hi, ix.base+int64(len(ix.buckets))-1)
	}
	if hi-lo+1 > int64(ix.maxBuckets) {
		// The tracked span outgrew the ring — often only because evicted
		// front buckets are still allocated (they are reclaimed lazily).
		// Rebuild on the live span at the finest width that fits it:
		// usually a re-base at the current (or even the base) width, and
		// a genuine coarsening only when the live span demands it.
		tlo, thi := ix.liveTimeRange(idx)
		ix.rebuild(ix.fitWidth(tlo, thi))
		return true
	}
	if len(ix.buckets) == 0 {
		ix.base = lo
		ix.buckets = make([]bucket, hi-lo+1)
		return false
	}
	if lo < ix.base {
		grown := make([]bucket, int(ix.base-lo)+len(ix.buckets))
		copy(grown[ix.base-lo:], ix.buckets)
		ix.buckets, ix.base = grown, lo
	}
	if last := ix.base + int64(len(ix.buckets)) - 1; hi > last {
		ix.buckets = append(ix.buckets, make([]bucket, hi-last)...)
	}
	return false
}

// liveTimeRange returns the min start and max end over the stay events
// of all live sequences up to and including upTo.
func (ix *Index) liveTimeRange(upTo int32) (lo, hi float64) {
	first := true
	for i := int32(0); i <= upTo; i++ {
		if ix.seqs[i].dead {
			continue
		}
		for _, st := range ix.staysOf(i) {
			if first {
				lo, hi, first = st.start, st.end, false
				continue
			}
			lo, hi = math.Min(lo, st.start), math.Max(hi, st.end)
		}
	}
	return lo, hi
}

// spanAt returns the bucket count the [lo, hi] time range needs at the
// given width.
func spanAt(lo, hi float64, width float64) int64 {
	kl := int64(math.Max(math.Min(math.Floor(lo/width), float64(maxKeyMagnitude)), -float64(maxKeyMagnitude)))
	kh := int64(math.Max(math.Min(math.Floor(hi/width), float64(maxKeyMagnitude)), -float64(maxKeyMagnitude)))
	return kh - kl + 1
}

// indexEvents registers seq idx's stay events in the (already
// covering) ring.
func (ix *Index) indexEvents(idx int32) {
	for _, st := range ix.staysOf(idx) {
		ks, ke := ix.keyOf(st.start), ix.keyOf(st.end)
		bs := &ix.buckets[ks-ix.base]
		bs.stayStarts = bumpRow(bs.stayStarts, st.rank)
		bs.starts = append(bs.starts, eventRef{seq: idx, rank: st.rank, t: st.start})
		be := &ix.buckets[ke-ix.base]
		be.stayEnds = bumpRow(be.stayEnds, st.rank)
		be.ends = append(be.ends, eventRef{seq: idx, rank: st.rank, t: st.end})
		for k := ks; k <= ke; k++ {
			b := &ix.buckets[k-ix.base]
			if n := len(b.seqIDs); n == 0 || b.seqIDs[n-1] != idx {
				b.seqIDs = append(b.seqIDs, idx)
			}
		}
	}
}

// bumpRow counts one more event of the rank in a bucket row. A row is
// as long as the highest rank its bucket has seen, not the region
// count, so a bucket costs memory only for regions active in it.
func bumpRow(row []int32, rank int32) []int32 {
	if n := int(rank) + 1; n > len(row) {
		row = append(row, make([]int32, n-len(row))...)
	}
	row[rank]++
	return row
}

// rebuild re-creates the ring at the given width from the live
// sequences, dropping lazily-deleted event references along the way.
func (ix *Index) rebuild(width float64) {
	ix.width = width
	ix.buckets = nil
	ix.base = 0
	for i := range ix.seqs {
		if ix.seqs[i].dead {
			continue
		}
		if !ix.ensureCoverage(int32(i)) {
			ix.indexEvents(int32(i))
		}
	}
}

// compact drops dead sequences entirely: the seqs slice, the heap and
// the ring are rebuilt over the live survivors, preserving insertion
// order (and with it Snapshot order). The width is re-fit to the
// surviving span, so resolution lost to since-evicted outliers comes
// back.
func (ix *Index) compact() {
	live := make([]idxSeq, 0, ix.alive)
	var stays []stayRef
	for i := range ix.seqs {
		if s := ix.seqs[i]; !s.dead {
			lo := len(stays)
			stays = append(stays, ix.stays[s.stayLo:s.stayHi]...)
			s.stayLo, s.stayHi = int32(lo), int32(len(stays))
			live = append(live, s)
		}
	}
	ix.seqs, ix.stays = live, stays
	ix.heap = ix.heap[:0]
	for i := range ix.seqs {
		ix.heapPush(int32(i))
	}
	width := ix.baseWidth
	if len(ix.seqs) > 0 {
		tlo, thi := ix.liveTimeRange(int32(len(ix.seqs) - 1))
		width = ix.fitWidth(tlo, thi)
	}
	ix.rebuild(width)
}

// evict kills sequences whose end time fell behind the retention
// horizon. The heap ordering makes this exact under out-of-order ends:
// the staleness check always sees the oldest live sequence, not the
// insertion head.
func (ix *Index) evict() {
	if ix.retention <= 0 {
		return
	}
	horizon := ix.maxEnd - ix.retention
	for len(ix.heap) > 0 {
		idx := ix.heap[0]
		if ix.seqs[idx].end >= horizon {
			return
		}
		ix.heapPop()
		ix.kill(idx)
	}
}

// kill removes one sequence from the aggregates. Its entries in the
// per-bucket event and candidate lists are left for lazy deletion.
func (ix *Index) kill(idx int32) {
	ix.gen++
	s := &ix.seqs[idx]
	s.dead = true
	ix.alive--
	ix.aliveSem -= len(s.ms.Semantics)
	for _, st := range ix.staysOf(idx) {
		ix.buckets[ix.keyOf(st.start)-ix.base].stayStarts[st.rank]--
		ix.buckets[ix.keyOf(st.end)-ix.base].stayEnds[st.rank]--
	}
}

// Len returns the live sequence and semantics counts.
func (ix *Index) Len() (sequences, semantics int) {
	return ix.alive, ix.aliveSem
}

// Generation returns the content-mutation counter. It moves strictly
// forward: equal generations imply identical query answers, so it is a
// sound cache key and HTTP validator for every query over the index.
func (ix *Index) Generation() uint64 {
	return ix.gen
}

// Snapshot returns the live sequences in insertion order.
func (ix *Index) Snapshot() []seq.MSSequence {
	out := make([]seq.MSSequence, 0, ix.alive)
	for i := range ix.seqs {
		if !ix.seqs[i].dead {
			out = append(out, ix.seqs[i].ms)
		}
	}
	return out
}

// IndexState is the serialisable state of an Index: the retained live
// sequences in insertion order plus the bucket-geometry parameters and
// the eviction clock. The derived structures — the bucket ring with
// its per-region stay aggregates, the per-bucket event and candidate
// lists and the eviction min-heap — are reconstructed deterministically
// from the sequences by RestoreIndex, so a restored index answers every
// query identically to the captured one without serialising redundant
// (and lazily-deleted) internal state.
type IndexState struct {
	Retention  float64
	BaseWidth  float64
	Width      float64
	MaxEnd     float64
	HasMax     bool
	Generation uint64
	Seqs       []seq.MSSequence
}

// SnapshotState captures the index's state. The per-sequence semantics
// slices are shared with the index (append-only once stored), so the
// capture is cheap and safe against later Adds.
func (ix *Index) SnapshotState() IndexState {
	return IndexState{
		Retention:  ix.retention,
		BaseWidth:  ix.baseWidth,
		Width:      ix.width,
		MaxEnd:     ix.maxEnd,
		HasMax:     ix.hasMax,
		Generation: ix.gen,
		Seqs:       ix.Snapshot(),
	}
}

// RestoreIndex reconstructs an index from a captured state: the live
// sequences are re-indexed in their original insertion order at the
// captured bucket geometry, rebuilding the aggregates, candidate lists
// and eviction heap. Every query over the restored index answers
// identically to the same query over the captured one.
func RestoreIndex(st IndexState) (*Index, error) {
	if !(st.BaseWidth > 0) || !(st.Width >= st.BaseWidth) {
		return nil, fmt.Errorf("query: invalid index state widths (base %g, width %g)",
			st.BaseWidth, st.Width)
	}
	if math.IsNaN(st.MaxEnd) || math.IsInf(st.MaxEnd, 0) {
		return nil, fmt.Errorf("query: invalid index state maxEnd %g", st.MaxEnd)
	}
	ix := &Index{
		retention:  st.Retention,
		maxBuckets: defaultMaxBuckets,
		baseWidth:  st.BaseWidth,
		width:      st.Width,
	}
	for _, ms := range st.Seqs {
		ix.Add(ms)
	}
	// The captured eviction clock is authoritative: the replay recomputes
	// it from the live sequences (the max-end sequence is never evicted,
	// so the values agree), but restoring it explicitly keeps the horizon
	// exact even for a state captured by a future writer with different
	// eviction bookkeeping.
	if st.HasMax {
		ix.maxEnd, ix.hasMax = st.MaxEnd, st.HasMax
		ix.evict()
	}
	// The restored generation jumps past everything the captured index
	// could have published after the snapshot: the replay above left gen
	// at the live sequence count, but the dead process may have advanced
	// its counter well beyond the captured value before crashing, and any
	// of those generations may survive in remote caches (router partials,
	// client ETags). Jumping by a range no live process plausibly covers
	// between snapshots keeps those stale validators from ever matching.
	ix.gen = st.Generation + genRestoreJump
	return ix, nil
}

// GenerationJump is the headroom added whenever a store's generation
// line is spliced onto another's — a snapshot restore, or a hot model
// swap seeding the replacement engine's store past its predecessor
// (Store.SeedGeneration). Generations the old line published after the
// splice point cannot collide with generations the new line will
// publish, so stale validators (router partials, client ETags) never
// match fresh content.
const GenerationJump = uint64(1) << 32

// genRestoreJump is added to a restored index's captured generation so
// generations published by the pre-crash process after its snapshot
// cannot collide with generations the restored process will publish.
const genRestoreJump = GenerationJump

// TopKPopularRegions answers a TkPRQ over the live sequences, with
// results identical to TopKPopularRegions over Snapshot().
func (ix *Index) TopKPopularRegions(q []indoor.RegionID, w Window, k int) []RegionCount {
	if math.IsNaN(w.Start) || math.IsNaN(w.End) {
		// Window.Contains is false against NaN bounds everywhere, and
		// the prefix-sum identity below would silently miscount.
		return make([]RegionCount, 0)
	}
	if w.Start > w.End {
		// Degenerate inverted window: Window.Contains still matches
		// periods spanning [w.End, w.Start]; recount rather than
		// special-case the prefix-sum identity, which assumes order.
		return TopKPopularRegions(ix.Snapshot(), q, w, k)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.acc = grow(sc.acc, len(ix.regionIDs))
	clear(sc.acc)
	ix.accumulate(sc.acc, w.End, false)  // +#{Start <= w.End}
	ix.accumulate(sc.acc, w.Start, true) // -#{End < w.Start}
	ix.markQueried(sc, q)
	rows := sc.regions[:0]
	for i, rank := range ix.regionRanks { // ascending region ID: key order
		if c := sc.acc[rank]; c > 0 && sc.pos[rank] != 0 {
			rows = append(rows, RegionCount{ix.regionIDs[i], int(c)})
		}
	}
	sc.regions = rows
	return topByCount(sc, rows, &sc.regionsTmp, k, regionCountKey)
}

// markQueried resolves a query's region set against the interning
// table: sc.pos[rank] is non-zero exactly for the interned regions in
// q. Duplicates collapse, and a region no stay event ever named has no
// rank and nothing to count.
func (ix *Index) markQueried(sc *scratch, q []indoor.RegionID) {
	sc.pos = grow(sc.pos, len(ix.regionIDs))
	clear(sc.pos)
	for _, r := range q {
		if i, ok := slices.BinarySearch(ix.regionIDs, r); ok {
			sc.pos[ix.regionRanks[i]] = 1
		}
	}
}

// accumulate adds to acc, per region rank, the number of live stay
// events starting at or before cutoff — or, with ends set, subtracts
// the number ending strictly before it; the two terms of the TkPRQ
// identity. Buckets wholly before the cutoff contribute their rows,
// the bucket holding it a scan of its events.
func (ix *Index) accumulate(acc []int32, cutoff float64, ends bool) {
	if len(ix.buckets) == 0 {
		return
	}
	edge := ix.cutoffBucket(cutoff)
	for b := range ix.buckets[:min(max(edge, 0), len(ix.buckets))] {
		if ends {
			for rank, c := range ix.buckets[b].stayEnds {
				acc[rank] -= c
			}
		} else {
			for rank, c := range ix.buckets[b].stayStarts {
				acc[rank] += c
			}
		}
	}
	if edge < 0 || edge >= len(ix.buckets) {
		return
	}
	if ends {
		for _, ev := range ix.buckets[edge].ends {
			if ev.t < cutoff && !ix.seqs[ev.seq].dead {
				acc[ev.rank]--
			}
		}
	} else {
		for _, ev := range ix.buckets[edge].starts {
			if ev.t <= cutoff && !ix.seqs[ev.seq].dead {
				acc[ev.rank]++
			}
		}
	}
}

// cutoffBucket maps a query timestamp onto a ring position: -1 before
// the ring, len(buckets) past it, else the bucket index. Comparisons
// run in float space so an extreme cutoff (e.g. MaxFloat64) cannot
// overflow the key arithmetic.
func (ix *Index) cutoffBucket(t float64) int {
	if t < float64(ix.base)*ix.width {
		return -1
	}
	if t >= float64(ix.base+int64(len(ix.buckets)))*ix.width {
		return len(ix.buckets)
	}
	b := int(ix.keyOf(t) - ix.base)
	return min(max(b, 0), len(ix.buckets)-1)
}

// TopKFrequentPairs answers a TkFRPQ over the live sequences, with
// results identical to TopKFrequentPairs over Snapshot(). Candidates
// come from the buckets the window overlaps, so the cost follows the
// activity inside the window, not the total retained history.
//
// Each candidate sequence emits one packed key per pair of distinct
// queried regions it stayed in: the two regions' positions in the
// ascending query set, smaller first. Sorting the keys numerically is
// then sorting the pairs by (A, B), and a pair's count is the length of
// its run.
func (ix *Index) TopKFrequentPairs(q []indoor.RegionID, w Window, k int) []PairCount {
	if math.IsNaN(w.Start) || math.IsNaN(w.End) {
		return make([]PairCount, 0)
	}
	if w.Start > w.End {
		return TopKFrequentPairs(ix.Snapshot(), q, w, k)
	}
	if len(ix.buckets) == 0 {
		return make([]PairCount, 0)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Number the queried regions 1..m in ascending ID order.
	ix.markQueried(sc, q)
	pos, posID := sc.pos, append(sc.posID[:0], 0)
	for i, rank := range ix.regionRanks {
		if pos[rank] != 0 {
			pos[rank] = int32(len(posID))
			posID = append(posID, ix.regionIDs[i])
		}
	}
	sc.posID = posID
	shift := uint(bits.Len(uint(len(posID))))
	sc.owner = grow(sc.owner, len(posID))
	owner := sc.owner
	clear(owner)

	b0 := max(ix.cutoffBucket(w.Start), 0)
	b1 := min(ix.cutoffBucket(w.End), len(ix.buckets)-1)
	seen, epoch := sc.nextEpoch(len(ix.seqs))
	keys, regs, serial := sc.keys[:0], sc.regs, int32(0)
	for b := b0; b <= b1; b++ {
		for _, idx := range ix.buckets[b].seqIDs {
			if seen[idx] == epoch || ix.seqs[idx].dead {
				continue
			}
			seen[idx] = epoch
			serial++
			regs = regs[:0]
			for _, st := range ix.staysOf(idx) {
				if p := pos[st.rank]; p != 0 && owner[p] != serial && st.end >= w.Start && st.start <= w.End {
					owner[p] = serial
					regs = append(regs, p)
				}
			}
			slices.Sort(regs)
			for i, lo := range regs {
				for _, hi := range regs[i+1:] {
					keys = append(keys, uint64(lo)<<shift|uint64(hi))
				}
			}
		}
	}
	sc.keys, sc.regs = keys, regs
	sc.keysTmp = grow(sc.keysTmp, len(keys))
	radixSort[struct{}](keys, sc.keysTmp, nil, nil)

	rows := sc.pairs[:0]
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		rows = append(rows, PairCount{posID[keys[i]>>shift], posID[keys[i]&(1<<shift-1)], j - i})
		i = j
	}
	sc.pairs = rows
	return topByCount(sc, rows, &sc.pairsTmp, k, pairCountKey)
}

// heapPush / heapPop maintain the eviction min-heap on sequence end.

func (ix *Index) heapPush(idx int32) {
	ix.heap = append(ix.heap, idx)
	i := len(ix.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if ix.seqs[ix.heap[parent]].end <= ix.seqs[ix.heap[i]].end {
			break
		}
		ix.heap[parent], ix.heap[i] = ix.heap[i], ix.heap[parent]
		i = parent
	}
}

func (ix *Index) heapPop() {
	n := len(ix.heap) - 1
	ix.heap[0] = ix.heap[n]
	ix.heap = ix.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && ix.seqs[ix.heap[l]].end < ix.seqs[ix.heap[least]].end {
			least = l
		}
		if r < n && ix.seqs[ix.heap[r]].end < ix.seqs[ix.heap[least]].end {
			least = r
		}
		if least == i {
			return
		}
		ix.heap[i], ix.heap[least] = ix.heap[least], ix.heap[i]
		i = least
	}
}
