package httpapi

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"c2mn"
)

// QueryRequest is the POST /v1/query body. It embeds the library's Query
// verbatim plus cursor-style pagination: page_size bounds one page of
// the ranked list, and the opaque cursor returned with a partial page
// fetches the next one (the follow-up request carries only cursor,
// and optionally a new page_size).
type QueryRequest struct {
	c2mn.Query
	PageSize int    `json:"page_size,omitempty"`
	Cursor   string `json:"cursor,omitempty"`
}

// QueryResponse is the POST /v1/query answer: the library's result
// plus this page's position in the ranked list.
type QueryResponse struct {
	c2mn.QueryResult
	Offset     int    `json:"offset,omitempty"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// QueryCursor is the decoded pagination cursor: the original query
// plus the resume position. It is stateless — each page re-runs the
// query — so pages concatenate to the unpaginated answer as long as
// the underlying stores are quiescent between pages, and a cursor
// minted by either tier resumes through the other.
type QueryCursor struct {
	Query    c2mn.Query `json:"q"`
	PageSize int        `json:"page_size"`
	Offset   int        `json:"offset"`
}

// EncodeCursor renders c as the opaque next_cursor string.
func EncodeCursor(c QueryCursor) (string, error) {
	buf, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return base64.RawURLEncoding.EncodeToString(buf), nil
}

// DecodeCursor parses a cursor string; a forged or damaged one is an
// error, never a cursor with unusable page bounds.
func DecodeCursor(s string) (QueryCursor, error) {
	var c QueryCursor
	buf, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return c, fmt.Errorf("bad cursor: %w", err)
	}
	if err := json.Unmarshal(buf, &c); err != nil {
		return c, fmt.Errorf("bad cursor: %w", err)
	}
	if c.PageSize <= 0 || c.Offset < 0 {
		return c, errors.New("bad cursor: invalid page bounds")
	}
	return c, nil
}

// Resolve validates the request's paging fields and resumes its
// cursor, returning the query to execute, the page size (0 =
// unpaginated) and the offset of the page's first row. Every failure
// is the client's: answer it with 400.
func (req QueryRequest) Resolve() (q c2mn.Query, pageSize, offset int, err error) {
	if req.PageSize < 0 {
		return q, 0, 0, fmt.Errorf("negative page_size %d", req.PageSize)
	}
	if req.Cursor == "" {
		return req.Query, req.PageSize, 0, nil
	}
	if !reflect.DeepEqual(req.Query, c2mn.Query{}) {
		return q, 0, 0, errors.New("cursor and query fields are mutually exclusive")
	}
	cur, err := DecodeCursor(req.Cursor)
	if err != nil {
		return q, 0, 0, err
	}
	pageSize = cur.PageSize
	if req.PageSize > 0 {
		pageSize = req.PageSize
	}
	return cur.Query, pageSize, cur.Offset, nil
}

// Page renders res, the answer to q as Resolve returned it, as the
// page starting at offset; a partial page carries the cursor of the
// next one.
func Page(res c2mn.QueryResult, q c2mn.Query, pageSize, offset int) (QueryResponse, error) {
	resp := QueryResponse{QueryResult: res}
	if pageSize <= 0 {
		return resp, nil
	}
	resp.Offset = offset
	if next := paginate(&resp.QueryResult, offset, pageSize); next >= 0 {
		cursor, err := EncodeCursor(QueryCursor{Query: q, PageSize: pageSize, Offset: next})
		if err != nil {
			return resp, err
		}
		resp.NextCursor = cursor
	}
	return resp, nil
}

// paginate slices the result's ranked list to [offset, offset+size)
// and returns the next page's offset, or -1 when this page exhausts
// the list. The bounds arithmetic never computes offset+size directly
// — a forged cursor can carry offset near MaxInt, and the sum would
// wrap negative and panic the slice expression.
func paginate(res *c2mn.QueryResult, offset, size int) int {
	if res.Kind == c2mn.QueryFrequentPairs {
		n := len(res.Pairs)
		lo := min(offset, n)
		hi := lo + min(size, n-lo)
		res.Pairs = res.Pairs[lo:hi]
		if hi < n {
			return hi
		}
		return -1
	}
	n := len(res.Regions)
	lo := min(offset, n)
	hi := lo + min(size, n-lo)
	res.Regions = res.Regions[lo:hi]
	if hi < n {
		return hi
	}
	return -1
}

// SugarParams parses a query GET's k (default: the library default),
// start/end (default: all time) and regions (default: every region of
// each scanned venue — applied inside the query path).
func SugarParams(r *http.Request) ([]c2mn.RegionID, *c2mn.Window, int, error) {
	vals := r.URL.Query()
	k := 0
	if v := vals.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, nil, 0, fmt.Errorf("bad k %q", v)
		}
		k = n
	}
	var win *c2mn.Window
	if vals.Get("start") != "" || vals.Get("end") != "" {
		// A single given bound leaves the other at all-of-time, matching
		// the nil-window default: ?end= alone is a pure upper bound.
		win = &c2mn.Window{Start: -math.MaxFloat64, End: math.MaxFloat64}
		if v := vals.Get("start"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(f) {
				return nil, nil, 0, fmt.Errorf("bad start %q", v)
			}
			win.Start = f
		}
		if v := vals.Get("end"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(f) {
				return nil, nil, 0, fmt.Errorf("bad end %q", v)
			}
			win.End = f
		}
	}
	var q []c2mn.RegionID
	if v := vals.Get("regions"); v != "" {
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, nil, 0, fmt.Errorf("bad region %q", part)
			}
			q = append(q, c2mn.RegionID(n))
		}
	}
	return q, win, k, nil
}
