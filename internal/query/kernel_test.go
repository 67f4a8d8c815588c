package query

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// TestRadixSortIsAStableSort pins the kernel's one sorter against
// slices.SortStableFunc on keys of every width — narrow ones that cost
// one pass, full-width ones (negative and huge values through
// ascending/descending) that cost eight — with rows moved along and
// with the keys alone.
func TestRadixSortIsAStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type row struct{ v, seq int }
	draws := []func() int{
		func() int { return rng.Intn(3) },
		func() int { return rng.Intn(70000) },
		func() int { return rng.Intn(1000) - 500 },
		func() int { return int(rng.Uint64()) },
		func() int { return []int{math.MinInt, -1, 0, 1, math.MaxInt}[rng.Intn(5)] },
	}
	for di, draw := range draws {
		for _, keyOf := range []func(int) uint64{ascending, descending} {
			for _, n := range []int{0, 1, 2, 3, 257, 1000} {
				rows := make([]row, n)
				keys := make([]uint64, n)
				for i := range rows {
					rows[i] = row{draw(), i}
					keys[i] = keyOf(rows[i].v)
				}
				want := slices.Clone(rows)
				slices.SortStableFunc(want, func(a, b row) int {
					switch ka, kb := keyOf(a.v), keyOf(b.v); {
					case ka < kb:
						return -1
					case ka > kb:
						return 1
					}
					return 0
				})
				alone := slices.Clone(keys)
				radixSort[struct{}](alone, make([]uint64, n), nil, nil)
				radixSort(keys, make([]uint64, n), rows, make([]row, n))
				if !reflect.DeepEqual(rows, want) {
					t.Fatalf("draw %d n=%d: rows not in stable key order", di, n)
				}
				if !slices.IsSorted(keys) || !slices.Equal(alone, keys) {
					t.Fatalf("draw %d n=%d: keys not sorted, or sorted differently without rows", di, n)
				}
			}
		}
	}
	// The transforms order the whole int range.
	for _, p := range [][2]int{{math.MinInt, -1}, {-1, 0}, {0, 1}, {1, math.MaxInt}} {
		if !(ascending(p[0]) < ascending(p[1])) || !(descending(p[0]) > descending(p[1])) {
			t.Fatalf("ascending/descending misorder %d and %d", p[0], p[1])
		}
	}
}

// hostileIDs is the region pool of the widened exactness tests: sparse,
// large and negative IDs (indoor.NoRegion among them) on both sides of
// every byte boundary the radix passes and the position packing care
// about.
var hostileIDs = []indoor.RegionID{
	indoor.NoRegion, -7, 0, 1, 2, 3, 255, 256,
	1000, 65535, 65536, 1 << 31, 1 << 40, -(1 << 33), math.MaxInt, math.MinInt,
}

// unseenIDs never appear in a stay event: a query may still name them.
var unseenIDs = []indoor.RegionID{-99, 4, 424242, math.MaxInt - 1}

// scheduleStats counts what a schedule actually exercised, so the
// property test can insist the hostile shapes occurred.
type scheduleStats struct {
	adds, queries                        int
	evictions, compactions, doublings    int
	afterEviction, afterRebuild          int
	edgeWindows, endpointWindows         int
	dupQ, unseenQ, kZero, kAll, nonEmpty int
}

// scheduleReader hands out the bytes of a schedule; past the end it
// reports false and yields zeros, so every prefix is a valid schedule.
type scheduleReader struct {
	b []byte
	i int
}

func (r *scheduleReader) more() bool { return r.i < len(r.b) }
func (r *scheduleReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// runSchedule decodes data into a schedule of Add / evicting Add /
// query operations against a Store and a brute-force mirror, and fails
// when any answer of the index differs from the query.go recount over
// the mirror. The decoding is total: every byte string is a schedule.
func runSchedule(t testing.TB, data []byte, st *scheduleStats) {
	r := &scheduleReader{b: data}
	head := r.next()
	retention := []float64{0, 64, 600}[head%3]
	scale := []float64{0.25, 1, 12.5, 60}[head>>2&3]
	s := NewStore(retention)
	m := &mirrorStore{retention: retention}
	now := 0.0
	justEvicted, justRebuilt := false, false

	add := func(jump float64) {
		now += jump
		ms := seq.MSSequence{ObjectID: "o"}
		at := now - float64(r.next()%4)*10*scale // completes out of order
		for n := 1 + r.next()%4; n > 0; n-- {
			region, gap, dur, flags := r.next(), r.next(), r.next(), r.next()
			ev := seq.Stay
			if flags&3 == 0 {
				ev = seq.Pass
			}
			at += float64(gap) * scale
			ms.Semantics = append(ms.Semantics, seq.MSemantics{
				Region: hostileIDs[region%len(hostileIDs)],
				Start:  at,
				End:    at + float64(dur)*scale,
				Event:  ev,
			})
			at += float64(dur) * scale
		}
		stored, kept, width := len(s.ix.seqs), len(m.mss), s.ix.width
		s.Add(ms)
		m.add(ms)
		st.adds++
		justEvicted = len(m.mss) <= kept
		justRebuilt = len(s.ix.seqs) <= stored || s.ix.width > width
		if justEvicted {
			st.evictions++
		}
		if len(s.ix.seqs) <= stored {
			st.compactions++
		}
		if s.ix.width > width {
			st.doublings++
		}
		now += float64(r.next()%8) * scale
	}

	// bound picks one window bound near the stream clock: a raw offset,
	// an exact bucket edge at the index's current width, or the exact
	// endpoint of a retained event.
	bound := func() float64 {
		kind, v := r.next(), r.next()
		switch kind % 4 {
		case 0:
			st.edgeWindows++
			return (math.Floor(now/s.ix.width) - float64(v%16) + 2) * s.ix.width
		case 1:
			if len(m.mss) > 0 {
				sems := m.mss[v%len(m.mss)].Semantics
				st.endpointWindows++
				if e := sems[kind>>2%len(sems)]; kind&64 == 0 {
					return e.Start
				} else if kind&128 == 0 {
					return e.End
				} else {
					return math.Nextafter(e.End, math.Inf(1)) // just past it
				}
			}
		}
		return now - float64(v-64)*scale*4
	}

	query := func() {
		a, b := bound(), bound()
		w := Window{Start: min(a, b), End: max(a, b)}
		switch mode := r.next(); {
		case mode == 255:
			w = Window{Start: math.NaN(), End: b}
		case mode == 254:
			w = Window{Start: max(a, b), End: min(a, b)} // inverted
		case mode >= 250:
			w = Window{Start: -math.MaxFloat64, End: math.MaxFloat64}
		}
		mask, extra := r.next()|r.next()<<8, r.next()
		var q []indoor.RegionID
		for i, id := range hostileIDs {
			if mask>>i&1 == 1 {
				q = append(q, id)
			}
		}
		if extra&1 == 1 && len(q) > 0 {
			q = append(q, q[0], q[len(q)/2]) // duplicates
			st.dupQ++
		}
		if extra&2 == 2 {
			q = append(q, unseenIDs[extra>>2%len(unseenIDs)])
			st.unseenQ++
		}
		if extra&4 == 4 {
			slices.Reverse(q)
		}
		k := []int{0, 1, AllCounts, 3, -1, AllCounts, 1, 2}[extra>>5]
		switch k {
		case 0:
			st.kZero++
		case AllCounts:
			st.kAll++
		}
		st.queries++
		if justEvicted {
			st.afterEviction++
		}
		if justRebuilt {
			st.afterRebuild++
		}

		gotR, wantR := s.TopKPopularRegions(q, w, k), TopKPopularRegions(m.mss, q, w, k)
		if !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("TopKPopularRegions(%v, %+v, %d) after %d adds\n got %v\nwant %v", q, w, k, st.adds, gotR, wantR)
		}
		gotP, wantP := s.TopKFrequentPairs(q, w, k), TopKFrequentPairs(m.mss, q, w, k)
		if !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("TopKFrequentPairs(%v, %+v, %d) after %d adds\n got %v\nwant %v", q, w, k, st.adds, gotP, wantP)
		}
		if len(gotR) > 0 || len(gotP) > 0 {
			st.nonEmpty++
		}
		if seqs, sems := s.Len(); seqs != len(m.mss) || sems != m.semantics() {
			t.Fatalf("Len = (%d, %d), mirror holds (%d, %d)", seqs, sems, len(m.mss), m.semantics())
		}
	}

	for r.more() {
		switch op := r.next(); op % 8 {
		case 0, 1, 2, 3:
			add(0)
		case 4: // evicting Add: the clock leaps a retention (or a ring) ahead
			leap := retention
			if leap == 0 {
				leap = defaultMaxBuckets * defaultWidth
			}
			add(leap * float64(1+op>>3%3) / 2)
			query()
		case 5, 6:
			query()
		case 7:
			s.Add(seq.MSSequence{ObjectID: "empty"}) // ignored
			m.add(seq.MSSequence{ObjectID: "empty"})
		}
	}
	if got, want := s.Snapshot(), m.mss; len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("snapshot diverged: %d sequences, mirror holds %d", len(got), len(want))
	}
}

// TestIndexMatchesBruteForceHostileShapes widens TestIndexMatchesBruteForce
// to what it leaves out: sparse, large and negative region IDs, query
// sets with duplicates and with regions the index never saw, k of 0, 1
// and AllCounts, windows landing exactly on bucket edges and on event
// endpoints, and queries straight after an eviction, a compaction and a
// width-doubling rebuild. Random schedules run through the same decoder
// as FuzzIndexMatchesBruteForce; the test insists each shape occurred.
func TestIndexMatchesBruteForceHostileShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var st scheduleStats
	for trial := 0; trial < 120; trial++ {
		data := make([]byte, 200+rng.Intn(3000))
		rng.Read(data)
		data[0] = byte(trial) // every retention × time scale in turn
		if trial%5 == 0 {
			// Churn: mostly adds, so tight retentions reach compaction.
			for i := 1; i < len(data); i += 11 {
				data[i] &^= 4
			}
		}
		runSchedule(t, data, &st)
	}
	for name, n := range map[string]int{
		"evictions": st.evictions, "compactions": st.compactions, "width doublings": st.doublings,
		"queries after an eviction": st.afterEviction, "queries after a rebuild": st.afterRebuild,
		"bucket-edge bounds": st.edgeWindows, "event-endpoint bounds": st.endpointWindows,
		"duplicate regions": st.dupQ, "unseen regions": st.unseenQ,
		"k=0": st.kZero, "k=AllCounts": st.kAll, "non-empty answers": st.nonEmpty,
	} {
		if n < 20 {
			t.Errorf("schedules exercised %s only %d times — the generator lost its bite", name, n)
		}
	}
	t.Logf("%+v", st)
}

// FuzzIndexMatchesBruteForce: any byte string is a schedule of adds,
// evicting adds and queries (runSchedule); both answers must deep-equal
// the brute-force recount, and nothing may panic.
func FuzzIndexMatchesBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 1, 3, 10, 20, 1, 0, 5, 0, 0, 0, 0, 250, 255, 255, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("schedule longer than any shape needs")
		}
		runSchedule(t, data, new(scheduleStats))
	})
}

// TestIndexConcurrentReadersExact runs readers against a writer, under
// -race in CI: every answer must equal the brute-force recount at the
// generation it was computed at. Query scratch is pooled and handed from
// call to call and from store to store — readers alternate between two
// stores of different sizes and ask different shapes — so scratch shared
// between two in-flight queries, or a stamp left over from the other
// store, shows up here as a wrong answer or a reported race.
func TestIndexConcurrentReadersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	feeds := make([][]seq.MSSequence, 2)
	stores := make([]*Store, 2)
	for i := range feeds {
		stores[i] = NewStore(0) // nothing evicted: generation g holds the first g sequences
		for j := 0; j < 150+250*i; j++ {
			ms := randomMS(rng, j, 0, 4000)
			for k := range ms.Semantics {
				ms.Semantics[k].Region = hostileIDs[rng.Intn(len(hostileIDs))]
			}
			feeds[i] = append(feeds[i], ms)
		}
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for i := range stores {
		writers.Add(1)
		go func(s *Store, feed []seq.MSSequence) {
			defer writers.Done()
			for _, ms := range feed {
				s.Add(ms)
			}
		}(stores[i], feeds[i])
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 50 {
						return
					}
				default:
				}
				i := (n + g) % 2
				q := hostileIDs[rng.Intn(4) : 4+rng.Intn(len(hostileIDs)-3)]
				a, b := rng.Float64()*4000, rng.Float64()*4000
				w := Window{Start: min(a, b), End: max(a, b)}
				k := []int{1, 5, AllCounts}[rng.Intn(3)]
				if n%3 == 0 {
					got, gen := stores[i].TopKPopularRegionsGen(q, w, k)
					if want := TopKPopularRegions(feeds[i][:gen], q, w, k); !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d: TkPRQ at generation %d\n got %v\nwant %v", g, gen, got, want)
						return
					}
				} else {
					got, gen := stores[i].TopKFrequentPairsGen(q, w, k)
					if want := TopKFrequentPairs(feeds[i][:gen], q, w, k); !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d: TkFRPQ at generation %d\n got %v\nwant %v", g, gen, got, want)
						return
					}
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()
}
