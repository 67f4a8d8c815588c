package query

import (
	"encoding/json"

	"c2mn/internal/indoor"
)

// Count-list decoding. A scatter-gather tier decodes untruncated
// partials — thousands of {"a":…,"b":…,"count":…} rows per answer — and
// encoding/json spends a reflective field lookup on every key of every
// row. ParseRegionCounts and ParsePairCounts read exactly the bytes
// encoding/json emits for []RegionCount / []PairCount — no whitespace,
// keys in struct order, plain integers — in one pass, and hand every
// other spelling (null, reordered or repeated keys, whitespace,
// exponents, integers of 19 digits) to encoding/json itself, so the
// result, error included, is always json.Unmarshal's.

// minRegionRow and minPairRow are the shortest encodings of one row
// with its separator; input length over them bounds what the fast path
// allocates before it has seen a single row.
const (
	minRegionRow = len(`{"region":0,"count":0},`)
	minPairRow   = len(`{"a":0,"b":0,"count":0},`)
)

// The literal text before each integer of a row, in struct order.
var (
	regionRowKeys = []string{`{"region":`, `,"count":`}
	pairRowKeys   = []string{`{"a":`, `,"b":`, `,"count":`}
)

// ParseRegionCounts decodes the JSON encoding of a []RegionCount,
// equivalent to json.Unmarshal into a nil slice.
func ParseRegionCounts(data []byte) ([]RegionCount, error) {
	if out, ok := parseRows(data, regionRowKeys, minRegionRow, func(v []int) RegionCount {
		return RegionCount{Region: indoor.RegionID(v[0]), Count: v[1]}
	}); ok {
		return out, nil
	}
	var out []RegionCount
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ParsePairCounts decodes the JSON encoding of a []PairCount,
// equivalent to json.Unmarshal into a nil slice.
func ParsePairCounts(data []byte) ([]PairCount, error) {
	if out, ok := parseRows(data, pairRowKeys, minPairRow, func(v []int) PairCount {
		return PairCount{A: indoor.RegionID(v[0]), B: indoor.RegionID(v[1]), Count: v[2]}
	}); ok {
		return out, nil
	}
	var out []PairCount
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// parseRows is the strict fast path: data must be `[`, rows separated
// by `,`, `]` and nothing else, each row keys[0] int keys[1] int … `}`.
// It reports false — having allocated at most len(data)/minRow rows —
// on the first byte that departs from that.
func parseRows[T any](data []byte, keys []string, minRow int, row func(vals []int) T) ([]T, bool) {
	s := rowScanner{data: data}
	if !s.lit("[") {
		return nil, false
	}
	out := make([]T, 0, len(data)/minRow)
	if s.lit("]") {
		return out, s.pos == len(data)
	}
	var vals [3]int
	for {
		for i, key := range keys {
			if !s.lit(key) || !s.int(&vals[i]) {
				return nil, false
			}
		}
		if !s.lit("}") {
			return nil, false
		}
		out = append(out, row(vals[:len(keys)]))
		if s.lit("]") {
			return out, s.pos == len(data)
		}
		if !s.lit(",") {
			return nil, false
		}
	}
}

// rowScanner is a cursor over the input of parseRows.
type rowScanner struct {
	data []byte
	pos  int
}

// lit consumes the literal text if the input continues with it.
func (s *rowScanner) lit(text string) bool {
	end := s.pos + len(text)
	if end > len(s.data) || string(s.data[s.pos:end]) != text {
		return false
	}
	s.pos = end
	return true
}

// int consumes a JSON integer that fits an int: an optional minus, then
// 0 or up to 18 digits without a leading zero. A fraction or exponent
// after it fails the caller's next lit; those and longer integers are
// encoding/json's to accept or refuse.
func (s *rowScanner) int(v *int) bool {
	i := s.pos
	neg := i < len(s.data) && s.data[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for i < len(s.data) && s.data[i]-'0' <= 9 && i-start < 19 {
		n = n*10 + int64(s.data[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > 18 || (digits > 1 && s.data[start] == '0') {
		return false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return false // 32-bit int: encoding/json phrases the range error
	}
	*v, s.pos = int(n), i
	return true
}
