package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"c2mn"
)

// goldenCursor was minted by the msserve of the commit before the two
// tiers shared this package (the router's encoder was byte-identical):
// cursors handed out then must keep resuming on either tier now.
const goldenCursor = "eyJxIjp7ImtpbmQiOiJmcmVxdWVudC1wYWlycyIsInNjb3BlIjoidmVudWVzIiwidmVudWVzIjpbIm5vcnRoIiwic291dGgiXSwicmVnaW9ucyI6WzEsMiwzXSwid2luZG93Ijp7InN0YXJ0IjowLCJlbmQiOjM2MDB9LCJrIjo1MCwicGVyX3ZlbnVlIjp0cnVlfSwicGFnZV9zaXplIjoyLCJvZmZzZXQiOjR9"

func goldenCursorValue() QueryCursor {
	return QueryCursor{
		Query: c2mn.Query{
			Kind: c2mn.QueryFrequentPairs, Scope: c2mn.ScopeVenues, Venues: []string{"north", "south"},
			Regions: []c2mn.RegionID{1, 2, 3}, Window: &c2mn.Window{Start: 0, End: 3600}, K: 50, PerVenue: true,
		},
		PageSize: 2, Offset: 4,
	}
}

func TestCursorGoldenAndRoundTrip(t *testing.T) {
	got, err := DecodeCursor(goldenCursor)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenCursorValue(); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden cursor decodes to %+v, want %+v", got, want)
	}
	again, err := EncodeCursor(got)
	if err != nil || again != goldenCursor {
		t.Fatalf("golden cursor re-encodes to %q (err %v)", again, err)
	}

	raw := func(s string) string { return base64.RawURLEncoding.EncodeToString([]byte(s)) }
	for _, bad := range []string{
		"!!!not-base64!!!",
		raw("not json"),
		raw(`{"q":{"kind":"popular-regions"},"page_size":0,"offset":0}`),
		raw(`{"q":{"kind":"popular-regions"},"page_size":2,"offset":-1}`),
	} {
		if _, err := DecodeCursor(bad); err == nil || !strings.HasPrefix(err.Error(), "bad cursor") {
			t.Errorf("DecodeCursor(%q) = %v, want a bad-cursor error", bad, err)
		}
	}
}

func TestQueryRequestResolve(t *testing.T) {
	full := c2mn.Query{Kind: c2mn.QueryPopularRegions, K: 50}
	cursor, err := EncodeCursor(QueryCursor{Query: full, PageSize: 2, Offset: 6})
	if err != nil {
		t.Fatal(err)
	}

	q, pageSize, offset, err := QueryRequest{Query: full, PageSize: 3}.Resolve()
	if err != nil || !reflect.DeepEqual(q, full) || pageSize != 3 || offset != 0 {
		t.Fatalf("plain request resolves to %+v/%d/%d (err %v)", q, pageSize, offset, err)
	}
	q, pageSize, offset, err = QueryRequest{Cursor: cursor}.Resolve()
	if err != nil || !reflect.DeepEqual(q, full) || pageSize != 2 || offset != 6 {
		t.Fatalf("cursor resolves to %+v/%d/%d (err %v)", q, pageSize, offset, err)
	}
	// A follow-up may resize its pages.
	if _, pageSize, _, _ = (QueryRequest{Cursor: cursor, PageSize: 5}).Resolve(); pageSize != 5 {
		t.Fatalf("page_size override = %d, want 5", pageSize)
	}
	for _, c := range []struct {
		req  QueryRequest
		want string
	}{
		{QueryRequest{Query: full, PageSize: -1}, "negative page_size -1"},
		{QueryRequest{Query: full, Cursor: "abc"}, "cursor and query fields are mutually exclusive"},
		// Even when only a non-kind field like k is set.
		{QueryRequest{Query: c2mn.Query{K: 50}, Cursor: cursor}, "cursor and query fields are mutually exclusive"},
		{QueryRequest{Cursor: "!!!not-base64!!!"}, "bad cursor: illegal base64 data at input byte 0"},
	} {
		if _, _, _, err := c.req.Resolve(); err == nil || err.Error() != c.want {
			t.Errorf("Resolve(%+v) = %v, want %q", c.req, err, c.want)
		}
	}
}

func rankedRegions(n int) []c2mn.RegionCount {
	out := make([]c2mn.RegionCount, n)
	for i := range out {
		out[i] = c2mn.RegionCount{Region: c2mn.RegionID(i + 1), Count: n - i}
	}
	return out
}

// TestPageChain: pages concatenate to the unpaginated list, the final
// page carries no cursor, and a forged extreme offset pages past the
// end instead of slicing out of range.
func TestPageChain(t *testing.T) {
	full := c2mn.Query{Kind: c2mn.QueryPopularRegions, K: 50}
	whole := c2mn.QueryResult{Kind: full.Kind, Regions: rankedRegions(5)}

	if resp, err := Page(whole, full, 0, 0); err != nil || resp.NextCursor != "" || len(resp.Regions) != 5 {
		t.Fatalf("unpaginated page = %+v (err %v)", resp, err)
	}
	var pages []c2mn.RegionCount
	req := QueryRequest{Query: full, PageSize: 2}
	for hops := 0; ; hops++ {
		if hops > 5 {
			t.Fatal("cursor chain does not terminate")
		}
		q, pageSize, offset, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := Page(whole, q, pageSize, offset)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Offset != hops*2 || len(resp.Regions) > 2 {
			t.Fatalf("page %d = offset %d, %d rows", hops, resp.Offset, len(resp.Regions))
		}
		pages = append(pages, resp.Regions...)
		if resp.NextCursor == "" {
			break
		}
		req = QueryRequest{Cursor: resp.NextCursor}
	}
	if !reflect.DeepEqual(pages, whole.Regions) {
		t.Fatalf("concatenated pages = %v, want %v", pages, whole.Regions)
	}

	for _, res := range []c2mn.QueryResult{
		{Kind: c2mn.QueryPopularRegions, Regions: rankedRegions(3)},
		{Kind: c2mn.QueryFrequentPairs, Pairs: []c2mn.PairCount{{A: 1, B: 2, Count: 3}, {A: 1, B: 3, Count: 1}}},
	} {
		resp, err := Page(res, c2mn.Query{Kind: res.Kind}, math.MaxInt, math.MaxInt)
		if err != nil || len(resp.Regions)+len(resp.Pairs) != 0 || resp.NextCursor != "" {
			t.Fatalf("forged-offset %s page = %+v (err %v), want an empty terminal page", res.Kind, resp, err)
		}
	}
	pairs := c2mn.QueryResult{Kind: c2mn.QueryFrequentPairs, Pairs: []c2mn.PairCount{{A: 1, B: 2, Count: 3}, {A: 1, B: 3, Count: 1}}}
	if next := paginate(&pairs, 0, 1); next != 1 || len(pairs.Pairs) != 1 {
		t.Fatalf("pair page = next %d, %d rows", next, len(pairs.Pairs))
	}
}

func TestSugarParams(t *testing.T) {
	r := httptest.NewRequest("GET", "/v1/query/popular-regions?k=2&end=700&regions=4,%205", nil)
	regions, win, k, err := SugarParams(r)
	if err != nil {
		t.Fatal(err)
	}
	// A single given bound leaves the other at all-of-time.
	wantWin := &c2mn.Window{Start: -math.MaxFloat64, End: 700}
	if k != 2 || !reflect.DeepEqual(win, wantWin) || !reflect.DeepEqual(regions, []c2mn.RegionID{4, 5}) {
		t.Fatalf("SugarParams = %v %+v %d", regions, win, k)
	}
	if regions, win, k, err = SugarParams(httptest.NewRequest("GET", "/v1/watch", nil)); err != nil || regions != nil || win != nil || k != 0 {
		t.Fatalf("defaults = %v %v %d (err %v)", regions, win, k, err)
	}
	for bad, want := range map[string]string{
		"?k=0": `bad k "0"`, "?k=x": `bad k "x"`, "?start=x": `bad start "x"`,
		"?start=NaN": `bad start "NaN"`, "?end=nan": `bad end "nan"`, "?regions=1,x": `bad region "x"`,
	} {
		if _, _, _, err := SugarParams(httptest.NewRequest("GET", "/v1/watch"+bad, nil)); err == nil || err.Error() != want {
			t.Errorf("SugarParams(%s) = %v, want %q", bad, err, want)
		}
	}
}

// FuzzDecodeCursor: hostile cursor bytes yield an error or a cursor
// that re-encodes and decodes to itself, and paging with it never
// slices out of range.
func FuzzDecodeCursor(f *testing.F) {
	f.Add(goldenCursor)
	f.Add("!!!not-base64!!!")
	maxOffset, err := EncodeCursor(QueryCursor{Query: c2mn.Query{Kind: c2mn.QueryPopularRegions}, PageSize: math.MaxInt, Offset: math.MaxInt})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(maxOffset)
	f.Fuzz(func(t *testing.T, s string) {
		c, err := DecodeCursor(s)
		if err != nil {
			return
		}
		enc, err := EncodeCursor(c)
		if err != nil {
			t.Fatalf("decoded cursor %+v does not re-encode: %v", c, err)
		}
		again, err := DecodeCursor(enc)
		if err != nil {
			t.Fatalf("re-encoded cursor %q does not decode: %v", enc, err)
		}
		if enc2, err := EncodeCursor(again); err != nil || enc2 != enc {
			t.Fatalf("cursor not stable under re-encoding: %q then %q (err %v)", enc, enc2, err)
		}
		for _, res := range []c2mn.QueryResult{
			{Kind: c2mn.QueryPopularRegions, Regions: rankedRegions(3)},
			{Kind: c2mn.QueryFrequentPairs, Pairs: []c2mn.PairCount{{A: 1, B: 2, Count: 1}}},
		} {
			if _, err := Page(res, c.Query, c.PageSize, c.Offset); err != nil {
				t.Fatalf("paging with %+v: %v", c, err)
			}
		}
	})
}

// FuzzQueryRequest: a hostile POST /v1/query body yields an error or a
// request that re-encodes and decodes to itself; resolving and
// normalizing it never panics.
func FuzzQueryRequest(f *testing.F) {
	f.Add([]byte(`{"kind":"popular-regions","scope":"fleet"}`))
	f.Add([]byte(`{"kind":"popular-regions","scope":"fleet"} trailing-garbage`))
	f.Add([]byte(`{"kind":"frequent-pairs","venues":["a","a",""],"regions":[1,2],"window":{"start":0,"end":1e300},"k":-1,"page_size":2}`))
	f.Add([]byte(`{"cursor":"` + goldenCursor + `","page_size":3}`))
	f.Add([]byte(`{"cursor":"x","k":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req QueryRequest
		if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
		}
		var again QueryRequest
		if err := decodeJSON(bytes.NewReader(enc), &again); err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", enc, err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("request not stable under re-encoding: %s then %s (err %v)", enc, enc2, err)
		}
		q, pageSize, offset, err := req.Resolve()
		if err != nil {
			return
		}
		if pageSize < 0 || offset < 0 {
			t.Fatalf("Resolve let page bounds %d/%d through", pageSize, offset)
		}
		q.Normalized() // typed error or a query; must not panic
	})
}
