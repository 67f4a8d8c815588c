//go:build e2e

package main

// End-to-end scale-out gate: build the real msserve and msrouter
// binaries, stand up two backends (each dual-loading both venues, so
// either can become a migration target) plus a single-process
// reference msserve holding the same venues, feed identical traffic
// through the router and the reference, and require every /v1 query
// and stats answer through the router to be byte-identical to the
// reference. Then live-migrate the venues off one backend — with the
// other venue taking feed traffic mid-migration — SIGKILL the vacated
// backend, and require the same byte-identical answers from the
// survivor.
//
// Run with: go test -tags e2e -run TestRouterMigrationE2E ./cmd/msrouter

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"c2mn"
	"c2mn/internal/notify"
	"c2mn/internal/sim"
)

const (
	testEta, testPsi = 120, 60
	backendToken     = "e2e-backend-secret"
	routerToken      = "e2e-router-secret"
)

// buildBinary compiles the command package at pkgDir into dir.
func buildBinary(t *testing.T, dir, name, pkgDir string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = pkgDir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// proc is one launched server process.
type proc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd
	base string
	done bool
}

// startProc launches bin and parses the bound address from the log
// line containing marker ("serving" for msserve, "routing" for
// msrouter) followed by " on ADDR".
func startProc(t *testing.T, name, bin string, args []string, marker string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("%s: %s", name, line)
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.Contains(line, marker) {
				select {
				case addrCh <- strings.TrimSpace(line[i+4:]):
				default:
				}
			}
		}
	}()
	p := &proc{t: t, name: name, cmd: cmd}
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("%s did not report a listen address", name)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return p
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("%s never became healthy: %v", name, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop SIGTERMs the process and waits for a clean exit.
func (p *proc) stop() {
	if p.done {
		return
	}
	p.done = true
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			p.t.Errorf("%s exited uncleanly: %v", p.name, err)
		}
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		p.t.Errorf("%s did not exit after SIGTERM", p.name)
	}
}

// kill SIGKILLs the process — the crashed-backend scenario.
func (p *proc) kill() {
	if p.done {
		return
	}
	p.done = true
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

type wireRecord struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int     `json:"floor"`
	T     float64 `json:"t"`
}

type sequenceRequest struct {
	ObjectID string       `json:"object_id"`
	Records  []wireRecord `json:"records"`
}

func toWire(records []c2mn.Record) []wireRecord {
	out := make([]wireRecord, len(records))
	for i, r := range records {
		out[i] = wireRecord{X: r.Loc.X, Y: r.Loc.Y, Floor: r.Loc.Floor, T: r.T}
	}
	return out
}

// doJSON sends body (marshaled) with method, an optional bearer
// token, and returns the response.
func doJSON(t *testing.T, method, url, token string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

func mustOK(t *testing.T, resp *http.Response, what string) []byte {
	t.Helper()
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s\n%s", what, resp.Status, buf)
	}
	return buf
}

// feed pushes records for one object into venue through base.
func feed(t *testing.T, base, venue, object string, records []wireRecord) {
	t.Helper()
	resp := doJSON(t, http.MethodPost, base+"/v1/venues/"+venue+"/feed", "",
		sequenceRequest{ObjectID: object, Records: records})
	mustOK(t, resp, "feed "+venue+"/"+object+" via "+base)
}

// trainFixture trains the shared small model and writes space/model
// files, returning their paths and the held-out test sequences.
func trainFixture(t *testing.T, dir string) (spacePath, modelPath string, test []c2mn.LabeledSequence) {
	t.Helper()
	space, err := c2mn.GenerateBuilding(sim.SmallBuilding(), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.DefaultMobility(10, 1500)
	spec.StayMax = 300
	ds, err := c2mn.GenerateMobility(space, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := c2mn.Train(space, ds.Sequences[:7], c2mn.TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	spacePath = filepath.Join(dir, "space.json")
	modelPath = filepath.Join(dir, "model.json")
	sf, err := os.Create(spacePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ann.Space().WriteJSON(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ann.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	return spacePath, modelPath, ds.Sequences[7:]
}

// e2eWatcher holds one /v1/watch SSE subscription open, folding the
// event stream into a standing answer — with automatic reconnect via
// Last-Event-ID, so migrations and drains on the serving side are
// invisible to the folded state except as ordinary events.
type e2eWatcher struct {
	t      *testing.T
	cancel context.CancelFunc
	mu     sync.Mutex
	answer notify.Answer
}

func startE2EWatcher(t *testing.T, url string) *e2eWatcher {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &e2eWatcher{t: t, cancel: cancel}
	go func() {
		lastID := ""
		for ctx.Err() == nil {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return
			}
			req.Header.Set("Accept", "text/event-stream")
			if lastID != "" {
				req.Header.Set("Last-Event-ID", lastID)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				select {
				case <-time.After(100 * time.Millisecond):
				case <-ctx.Done():
				}
				continue
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				select {
				case <-time.After(100 * time.Millisecond):
				case <-ctx.Done():
				}
				continue
			}
			er := notify.NewEventReader(resp.Body)
			for {
				ev, err := er.Next()
				if err != nil {
					break
				}
				if ev.IsComment() {
					continue
				}
				if ev.ID != "" {
					lastID = ev.ID
				}
				switch ev.Name {
				case "snapshot", "resync":
					var snap notify.SnapshotData
					if json.Unmarshal(ev.Data, &snap) != nil {
						continue
					}
					w.mu.Lock()
					w.answer = notify.Answer{Kind: snap.Kind, Regions: snap.Regions, Pairs: snap.Pairs}
					w.mu.Unlock()
				case "delta":
					var d notify.DeltaData
					if json.Unmarshal(ev.Data, &d) != nil {
						continue
					}
					w.mu.Lock()
					w.answer = notify.Apply(w.answer, d)
					w.mu.Unlock()
				}
			}
			resp.Body.Close()
		}
	}()
	t.Cleanup(cancel)
	return w
}

func (w *e2eWatcher) regionsJSON() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := json.Marshal(w.answer.Regions)
	if err != nil {
		w.t.Fatal(err)
	}
	return string(buf)
}

func TestRouterMigrationE2E(t *testing.T) {
	dir := t.TempDir()
	spacePath, modelPath, test := trainFixture(t, dir)
	if len(test) < 3 {
		t.Fatalf("fixture too small: %d test sequences", len(test))
	}

	msserve := buildBinary(t, dir, "msserve", "../msserve")
	msrouter := buildBinary(t, dir, "msrouter", ".")

	// Two backends, each dual-loading both venues: the non-owning copy
	// stays cold (the router deterministically sends all traffic to the
	// owner), which is exactly the state a migration target must be in.
	backendArgs := func(snapDir string) []string {
		return []string{
			"-addr", "127.0.0.1:0",
			"-venue", "north=" + spacePath + "," + modelPath,
			"-venue", "south=" + spacePath + "," + modelPath,
			"-eta", fmt.Sprint(testEta), "-psi", fmt.Sprint(testPsi),
			"-admin-token", backendToken,
			"-snapshot-dir", snapDir,
			"-drain", "10s",
		}
	}
	b1 := startProc(t, "backend-1", msserve, backendArgs(filepath.Join(dir, "snap1")), "serving")
	defer b1.kill()
	b2 := startProc(t, "backend-2", msserve, backendArgs(filepath.Join(dir, "snap2")), "serving")
	defer b2.kill()

	// The reference: one msserve holding both venues, no router. Every
	// /v1 answer through the router must match this process byte for
	// byte.
	ref := startProc(t, "reference", msserve, []string{
		"-addr", "127.0.0.1:0",
		"-venue", "north=" + spacePath + "," + modelPath,
		"-venue", "south=" + spacePath + "," + modelPath,
		"-eta", fmt.Sprint(testEta), "-psi", fmt.Sprint(testPsi),
	}, "serving")
	defer ref.stop()

	rtr := startProc(t, "router", msrouter, []string{
		"-addr", "127.0.0.1:0",
		"-backends", b1.base + "," + b2.base,
		"-admin-token", routerToken,
		"-backend-token", backendToken,
		"-health-interval", "200ms",
		"-settle-delay", "20ms",
	}, "routing")
	defer rtr.stop()

	// Wait until the router has discovered BOTH backends ready. /readyz
	// turns 200 on the first, and a venue fed before the second answers
	// its probe is placed among one backend and re-placed among two.
	waitReady := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			var table struct {
				Backends []struct {
					Ready bool `json:"ready"`
				} `json:"backends"`
			}
			resp := doJSON(t, http.MethodGet, rtr.base+"/v1/admin/backends", routerToken, nil)
			err := json.NewDecoder(resp.Body).Decode(&table)
			resp.Body.Close()
			if err == nil && len(table.Backends) == 2 && table.Backends[0].Ready && table.Backends[1].Ready {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("router never saw both backends ready: %+v (%v)", table, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitReady()

	// owner asks the router where a venue's traffic goes.
	owner := func(venue string) string {
		t.Helper()
		resp := doJSON(t, http.MethodGet, rtr.base+"/v1/admin/assignments", routerToken, nil)
		var body struct {
			Assignments []struct {
				Venue   string `json:"venue"`
				Backend string `json:"backend"`
			} `json:"assignments"`
		}
		if err := json.Unmarshal(mustOK(t, resp, "assignments"), &body); err != nil {
			t.Fatal(err)
		}
		for _, a := range body.Assignments {
			if a.Venue == venue {
				return a.Backend
			}
		}
		t.Fatalf("venue %q not in assignments: %+v", venue, body.Assignments)
		return ""
	}

	// Feed both venues identically through the router and the
	// reference: one full sequence each, then an open half-sequence
	// fragment the migration snapshot must carry across.
	open := toWire(test[2].P.Records)
	for i, venue := range []string{"north", "south"} {
		records := toWire(test[i].P.Records)
		feed(t, rtr.base, venue, "obj-"+venue, records)
		feed(t, ref.base, venue, "obj-"+venue, records)
		feed(t, rtr.base, venue, "late-"+venue, open[:len(open)/4])
		feed(t, ref.base, venue, "late-"+venue, open[:len(open)/4])
	}
	mustOK(t, doJSON(t, http.MethodPost, rtr.base+"/v1/flush", "", nil), "router flush")
	mustOK(t, doJSON(t, http.MethodPost, ref.base+"/v1/flush", "", nil), "reference flush")

	queries := []string{
		"/v1/venues/north/query/popular-regions?k=10&start=0&end=1e18",
		"/v1/venues/north/query/frequent-pairs?k=10&start=0&end=1e18",
		"/v1/venues/south/query/popular-regions?k=10&start=0&end=1e18",
		"/v1/venues/south/query/frequent-pairs?k=10&start=0&end=1e18",
		"/v1/query/popular-regions?scope=fleet&k=10&start=0&end=1e18",
		"/v1/query/frequent-pairs?scope=fleet&k=10&start=0&end=1e18",
		"/v1/venues/north/stats",
		"/v1/venues/south/stats",
		"/v1/stats",
	}
	// The query-cache counters are one sanctioned stats divergence
	// between the topologies: the router's conditional revalidations
	// land on the backends, while the reference never sees one.
	// StoreNotifications is the other: the change-feed counter is
	// process-local and not part of venue snapshots, so migration
	// leaves the source's count behind. Zero both before comparing;
	// every other byte must still match.
	cacheCounters := regexp.MustCompile(`"(QueryCacheHits|QueryCacheMisses|QueryCacheRevalidations|StoreNotifications)":-?\d+`)
	normalizeStats := func(q string, body []byte) []byte {
		if !strings.HasSuffix(q, "/stats") {
			return body
		}
		return cacheCounters.ReplaceAll(body, []byte(`"$1":0`))
	}
	compare := func(stage string) {
		t.Helper()
		for _, q := range queries {
			want := mustOK(t, doJSON(t, http.MethodGet, ref.base+q, "", nil), "reference "+q)
			got := mustOK(t, doJSON(t, http.MethodGet, rtr.base+q, "", nil), "router "+q)
			want = normalizeStats(q, want)
			got = normalizeStats(q, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %s diverged through the router:\n reference %s\n router    %s", stage, q, want, got)
			}
		}
		// The structured endpoint too: a fleet-scoped POST /v1/query.
		body := map[string]any{"kind": "popular-regions", "scope": "fleet", "k": 10}
		want := mustOK(t, doJSON(t, http.MethodPost, ref.base+"/v1/query", "", body), "reference POST /v1/query")
		got := mustOK(t, doJSON(t, http.MethodPost, rtr.base+"/v1/query", "", body), "router POST /v1/query")
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: POST /v1/query diverged:\n reference %s\n router    %s", stage, want, got)
		}
	}
	compare("pre-migration")

	// Standing watch streams on both tiers: a fleet-scoped subscriber
	// against the reference msserve and one through the router, held
	// open across the churn, the migrations, and the backend crash
	// below. At every quiescent compare point the folded SSE state must
	// be byte-identical to what polling the reference returns — the
	// push plane is the query plane, just delivered incrementally.
	watchQ := "/v1/watch?scope=fleet&k=10&start=0&end=1e18"
	refWatch := startE2EWatcher(t, ref.base+watchQ)
	rtrWatch := startE2EWatcher(t, rtr.base+watchQ)
	watchConverge := func(stage string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		var want, gotRef, gotRtr string
		for {
			body := map[string]any{"kind": "popular-regions", "scope": "fleet", "k": 10}
			resp := mustOK(t, doJSON(t, http.MethodPost, ref.base+"/v1/query", "", body), "watch reference poll")
			var qr struct {
				Regions json.RawMessage `json:"regions"`
			}
			if err := json.Unmarshal(resp, &qr); err != nil {
				t.Fatal(err)
			}
			want = string(qr.Regions)
			if want == "" {
				want = "null"
			}
			gotRef, gotRtr = refWatch.regionsJSON(), rtrWatch.regionsJSON()
			if gotRef == want && gotRtr == want {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatalf("%s: folded watch state diverged from the polling reference:\n poll      %s\n msserve   %s\n router    %s",
			stage, want, gotRef, gotRtr)
	}
	watchConverge("pre-migration")

	// Hot-store churn: repeat a fleet query with feeds interleaved, so
	// every venue's store generation moves between queries. The
	// router's partial cache must revalidate — never serve stale
	// bytes — and each answer must keep matching the reference. The
	// duplicate query up front (no churn yet) exercises the 304 reuse
	// path at an unchanged generation.
	fleetQ := "/v1/query/popular-regions?scope=fleet&k=10&start=0&end=1e18"
	churn := toWire(test[0].P.Records)
	if len(churn) > 6 {
		churn = churn[:6]
	}
	for i := -1; i < len(churn); i++ {
		if i >= 0 {
			feed(t, rtr.base, "north", "churn-north", churn[i:i+1])
			feed(t, ref.base, "north", "churn-north", churn[i:i+1])
		}
		want := mustOK(t, doJSON(t, http.MethodGet, ref.base+fleetQ, "", nil), "reference churn query")
		got := mustOK(t, doJSON(t, http.MethodGet, rtr.base+fleetQ, "", nil), "router churn query")
		if !bytes.Equal(got, want) {
			t.Fatalf("hot-store churn round %d diverged:\n reference %s\n router    %s", i, want, got)
		}
	}
	// The router's partial cache was really on the path: the churn
	// rounds must have revalidated cached partials, and the duplicate
	// query must have reused at least one via 304.
	{
		resp := doJSON(t, http.MethodGet, rtr.base+"/v1/admin/backends", routerToken, nil)
		var body struct {
			ScatterCache struct {
				Hits          int64 `json:"hits"`
				Misses        int64 `json:"misses"`
				Revalidations int64 `json:"revalidations"`
			} `json:"scatter_cache"`
		}
		if err := json.Unmarshal(mustOK(t, resp, "backends"), &body); err != nil {
			t.Fatal(err)
		}
		if body.ScatterCache.Hits == 0 || body.ScatterCache.Revalidations == 0 {
			t.Fatalf("scatter cache idle through churn: %+v", body.ScatterCache)
		}
	}

	// Migrate every venue off b1 onto b2 — the first one with live
	// traffic still arriving at the other venue mid-migration — so b1
	// can die without losing anything.
	victims := []string{}
	for _, v := range []string{"north", "south"} {
		if owner(v) == b1.base {
			victims = append(victims, v)
		}
	}
	if len(victims) == 0 {
		// HRW put both venues on b2; make the scenario real by pinning
		// nothing and migrating in the other direction instead.
		b1, b2 = b2, b1
		for _, v := range []string{"north", "south"} {
			if owner(v) == b1.base {
				victims = append(victims, v)
			}
		}
	}
	if len(victims) == 0 {
		t.Fatal("no venue assigned to either backend")
	}

	// Live traffic during the first migration: stream the withheld
	// open-fragment tail into the venue that is NOT migrating, one
	// record at a time, while /v1/admin/migrate runs.
	other := "north"
	if victims[0] == "north" {
		other = "south"
	}
	tail := open[len(open)/4 : len(open)/2]
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		for i := range tail {
			feed(t, rtr.base, other, "late-"+other, tail[i:i+1])
		}
	}()

	for i, v := range victims {
		resp := doJSON(t, http.MethodPost, rtr.base+"/v1/admin/migrate", routerToken,
			map[string]string{"venue": v, "to": b2.base})
		var report struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(mustOK(t, resp, "migrate "+v), &report); err != nil {
			t.Fatal(err)
		}
		if report.Status != "migrated" {
			t.Fatalf("migrating %q: status %q", v, report.Status)
		}
		if got := owner(v); got != b2.base {
			t.Fatalf("after migrating %q its owner is %q, want %q", v, got, b2.base)
		}
		if i == 0 {
			// When HRW put both venues on b1, "other" is also a victim:
			// the feeder must finish before ITS migration drains it, or
			// the drain 503s the feed. Live traffic during the first
			// migration is the scenario; the rest migrate quiesced.
			<-feederDone
		}
	}
	<-feederDone
	// Mirror the mid-migration traffic into the reference: same venue,
	// same records, same order — the engines are deterministic, so the
	// state must still match exactly.
	for i := range tail {
		feed(t, ref.base, other, "late-"+other, tail[i:i+1])
	}
	compare("post-migration")
	// The router-side subscriber rode out the cutover: its relays saw
	// the source copy retire, re-resolved the owner, and resumed on the
	// destination — without the client stream ever closing.
	watchConverge("post-migration")

	// Crash the vacated backend. The router's health checks notice and
	// every answer keeps coming, still byte-identical, from b2 alone.
	b1.kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := doJSON(t, http.MethodGet, rtr.base+"/v1/admin/backends", routerToken, nil)
		var body struct {
			Backends []struct {
				URL   string `json:"url"`
				Ready bool   `json:"ready"`
			} `json:"backends"`
		}
		if err := json.Unmarshal(mustOK(t, resp, "backends"), &body); err != nil {
			t.Fatal(err)
		}
		dead := false
		for _, b := range body.Backends {
			if b.URL == b1.base && !b.Ready {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the killed backend")
		}
		time.Sleep(50 * time.Millisecond)
	}
	compare("post-crash")
	watchConverge("post-crash")

	// The migrated state is still live, not a read-only copy: finish
	// the open fragments on the survivor and flush them through.
	for _, venue := range []string{"north", "south"} {
		feed(t, rtr.base, venue, "late-"+venue, open[len(open)/2:])
		feed(t, ref.base, venue, "late-"+venue, open[len(open)/2:])
	}
	mustOK(t, doJSON(t, http.MethodPost, rtr.base+"/v1/flush", "", nil), "post-crash router flush")
	mustOK(t, doJSON(t, http.MethodPost, ref.base+"/v1/flush", "", nil), "post-crash reference flush")
	compare("post-crash-feed")
	watchConverge("post-crash-feed")
	refWatch.cancel()
	rtrWatch.cancel()
}
