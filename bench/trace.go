package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one request
// share Request; Parent is the span that caused this one, 0 for a
// root. Times are nanoseconds since the tracer's start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans and boundary counts in memory until the run ends.
// A nil tracer records nothing, which is how end-to-end runs leave
// tracing off.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	counts   map[string]int64
	requests int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// request allocates the identifier the spans of one request share.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.requests++
	id := t.requests
	t.mu.Unlock()
	return id
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(parent, request int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// count adds n to the counter kept at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += (s.EndNs - s.StartNs) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	cursor := parent.StartNs
	for _, k := range kids {
		start, end := max(k.StartNs, cursor), min(k.EndNs, parent.EndNs)
		if end > start {
			total += end - start
			cursor = end
		}
	}
	return total
}

// write stores the trace as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Counts   map[string]int64 `json:"counts"`
		Spans    []span           `json:"spans"`
	}{workload, seed, t.counts, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
