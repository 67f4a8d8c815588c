package query

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"c2mn/internal/indoor"
)

// checkParseEquivalence holds ParseRegionCounts and ParsePairCounts to
// their contract on one input: the values json.Unmarshal decodes into
// the plain slice, or its error, and a fast path that never allocates
// more rows than the input has room for.
func checkParseEquivalence(t *testing.T, data []byte) {
	t.Helper()
	checkParse(t, data, ParseRegionCounts, regionRowKeys, minRegionRow)
	checkParse(t, data, ParsePairCounts, pairRowKeys, minPairRow)
}

func checkParse[T any](t *testing.T, data []byte, parse func([]byte) ([]T, error), keys []string, minRow int) {
	t.Helper()
	var want []T
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := parse(data)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("parsing %q as %T: error = %v, json.Unmarshal's = %v", data, want, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("parsing %q = %#v, json.Unmarshal gives %#v", data, got, want)
	}
	rows, _ := parseRows(data, keys, minRow, func([]int) (zero T) { return })
	if cap(rows) > len(data)/minRow {
		t.Fatalf("fast path allocated %d %T rows for %d bytes of input", cap(rows), rows, len(data))
	}
}

// randomPairCounts builds n distinct pairs with random counts, the
// shape of one venue's untruncated frequent-pairs partial.
func randomPairCounts(rng *rand.Rand, n int) []PairCount {
	out := make([]PairCount, 0, n)
	for a := 1; len(out) < n; a++ {
		for b := a + 1; b <= a+40 && len(out) < n; b++ {
			out = append(out, PairCount{A: indoor.RegionID(a), B: indoor.RegionID(b), Count: 1 + rng.Intn(300)})
		}
	}
	return out
}

func TestParseCountsTakesTheFastPathOnEncodedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := randomPairCounts(rng, 500)
	pairs[3].Count, pairs[4].A = -17, -2
	buf, err := json.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := parseRows(buf, pairRowKeys, minPairRow, func(v []int) PairCount {
		return PairCount{A: indoor.RegionID(v[0]), B: indoor.RegionID(v[1]), Count: v[2]}
	})
	if !ok || !reflect.DeepEqual(got, pairs) {
		t.Fatalf("fast path refused or misread json.Marshal's own []PairCount (ok=%v)", ok)
	}
	checkParseEquivalence(t, buf)

	regions := []RegionCount{{Region: 12, Count: 999999999999999999}, {Region: 0, Count: 0}, {Region: -4, Count: 1}}
	buf, err = json.Marshal(regions)
	if err != nil {
		t.Fatal(err)
	}
	gotRegions, ok := parseRows(buf, regionRowKeys, minRegionRow, func(v []int) RegionCount {
		return RegionCount{Region: indoor.RegionID(v[0]), Count: v[1]}
	})
	if !ok || !reflect.DeepEqual(gotRegions, regions) {
		t.Fatalf("fast path refused or misread json.Marshal's own []RegionCount (ok=%v)", ok)
	}
	checkParseEquivalence(t, buf)
}

// FuzzParseCounts: whatever the bytes, fast path plus fallback is
// json.Unmarshal into the plain slice. The corpus under testdata/fuzz
// holds the spellings the fast path must refuse rather than misread.
func FuzzParseCounts(f *testing.F) {
	f.Add([]byte(`[{"a":1,"b":2,"count":3},{"a":2,"b":3,"count":1}]`))
	f.Add([]byte(`[{"region":7,"count":41},{"region":9,"count":2}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseEquivalence(t, data)
	})
}

var parseSink int

// BenchmarkParsePairCounts decodes one venue-sized untruncated
// frequent-pairs partial (~2k rows, ~52 KB) on the fast path and, as
// the row beside it, through encoding/json.
func BenchmarkParsePairCounts(b *testing.B) {
	buf, err := json.Marshal(randomPairCounts(rand.New(rand.NewSource(1)), 2000))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := ParsePairCounts(buf)
			if err != nil || len(out) != 2000 {
				b.Fatalf("%d rows, %v", len(out), err)
			}
			parseSink += len(out)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out []PairCount
			if err := json.Unmarshal(buf, &out); err != nil || len(out) != 2000 {
				b.Fatalf("%d rows, %v", len(out), err)
			}
			parseSink += len(out)
		}
	})
}
