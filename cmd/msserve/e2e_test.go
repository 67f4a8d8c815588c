//go:build e2e

package main

// End-to-end snapshot roundtrip: build the real msserve binary, serve
// two venues, ingest traffic (leaving open stream fragments), shut the
// process down, restart it with the same -snapshot-dir, and require
// the restarted server to answer /v1/query byte-identically to the
// pre-restart server — the CI gate proving warm restarts work across
// actual process boundaries, not just within one test process.
//
// Run with: go test -tags e2e -run TestSnapshotRoundtripE2E ./cmd/msserve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"c2mn"
)

// buildMsserve compiles the command under test into dir.
func buildMsserve(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "msserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building msserve: %v\n%s", err, out)
	}
	return bin
}

// startMsserve launches the binary and parses the bound address from
// its "serving N venue(s) on ADDR" log line. The returned stop
// function SIGTERMs the process and waits for a clean exit (the
// snapshot-on-drain path).
func startMsserve(t *testing.T, bin string, args []string) (baseURL string, stop func()) {
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
			t.Logf("msserve: %s", line)
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.Contains(line, "serving") {
				select {
				case addrCh <- strings.TrimSpace(line[i+4:]):
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("msserve did not report a listen address")
	}
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("msserve never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	stopped := false
	return base, func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("msserve exited uncleanly: %v", err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("msserve did not exit after SIGTERM")
		}
	}
}

// getBody fetches a URL and returns the raw response body.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, buf)
	}
	return string(buf)
}

func TestSnapshotRoundtripE2E(t *testing.T) {
	ann, test := testParts(t)
	dir := t.TempDir()
	spacePath := filepath.Join(dir, "space.json")
	modelPath := filepath.Join(dir, "model.json")
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

	bin := buildMsserve(t, dir)
	snapDir := filepath.Join(dir, "snapshots")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-venue", "north=" + spacePath + "," + modelPath,
		"-venue", "south=" + spacePath + "," + modelPath,
		"-eta", fmt.Sprint(testEta), "-psi", fmt.Sprint(testPsi),
		"-snapshot-dir", snapDir,
		"-drain", "10s",
	}

	base, stop := startMsserve(t, bin, args)

	// Feed the two venues distinct workloads, flush them into the live
	// stores, then re-open a stream per venue with a buffered fragment
	// the snapshot must carry across the restart.
	for i := range test {
		venue := "north"
		if i%2 == 1 {
			venue = "south"
		}
		resp := postJSON(t, fmt.Sprintf("%s/v1/venues/%s/feed", base, venue), sequenceRequest{
			ObjectID: fmt.Sprintf("obj%d", i),
			Records:  toWire(test[i].P.Records),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feed %s: %s", venue, resp.Status)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, base+"/v1/flush", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %s", resp.Status)
	}
	resp.Body.Close()
	open := test[0].P.Records
	for _, venue := range []string{"north", "south"} {
		resp := postJSON(t, fmt.Sprintf("%s/v1/venues/%s/feed", base, venue), sequenceRequest{
			ObjectID: "late-" + venue,
			Records:  toWire(open[:len(open)/2]),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("late feed %s: %s", venue, resp.Status)
		}
		resp.Body.Close()
	}

	// The answers the restarted server must reproduce.
	queries := []string{
		"/v1/venues/north/query/popular-regions?k=10&start=0&end=1e18",
		"/v1/venues/north/query/frequent-pairs?k=10&start=0&end=1e18",
		"/v1/venues/south/query/popular-regions?k=10&start=0&end=1e18",
		"/v1/venues/south/query/frequent-pairs?k=10&start=0&end=1e18",
		"/v1/query/popular-regions?scope=fleet&k=10&start=0&end=1e18",
		"/v1/venues/north/stats",
		"/v1/venues/south/stats",
	}
	// StoreNotifications is the one sanctioned stats divergence across
	// a restart: the change-feed counter is process-local operational
	// state — snapshots neither persist nor restore it — so the warm
	// boot restarts it from the single restore signal. Zero it before
	// comparing; every other stats byte must still match.
	notifCounter := regexp.MustCompile(`"StoreNotifications":-?\d+`)
	normalizeStats := func(q, body string) string {
		if !strings.HasSuffix(q, "/stats") {
			return body
		}
		return notifCounter.ReplaceAllString(body, `"StoreNotifications":0`)
	}
	before := make([]string, len(queries))
	for i, q := range queries {
		before[i] = normalizeStats(q, getBody(t, base+q))
	}
	if !strings.Contains(before[5], `"PendingRecords":`) || strings.Contains(before[5], `"PendingRecords":0,`) {
		t.Fatalf("fixture has no open fragments before restart: %s", before[5])
	}

	// Exercise the explicit trigger for one venue; the drain snapshot
	// covers both anyway.
	resp = postJSON(t, base+"/v1/admin/venues/north/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot trigger: %s", resp.Status)
	}
	resp.Body.Close()

	stop() // SIGTERM: drain, snapshot all venues, exit

	for _, venue := range []string{"north", "south"} {
		if _, err := os.Stat(c2mn.SnapshotPath(snapDir, venue)); err != nil {
			t.Fatalf("missing snapshot after shutdown: %v", err)
		}
	}

	// Restart against the same snapshot directory: the server must
	// answer every query byte-identically, warm. Stats compare first:
	// the snapshot carries the query-cache counters, and replaying the
	// sugar queries against the restored (purged) cache would bump
	// them before the comparison.
	base2, stop2 := startMsserve(t, bin, args)
	defer stop2()
	for _, i := range []int{5, 6, 0, 1, 2, 3, 4} {
		q := queries[i]
		after := normalizeStats(q, getBody(t, base2+q))
		if after != before[i] {
			t.Fatalf("post-restart answer for %s diverged:\n before %s\n after  %s", q, before[i], after)
		}
	}

	// The reopened streams survived: feeding the withheld tail and
	// flushing completes them without error.
	for _, venue := range []string{"north", "south"} {
		resp := postJSON(t, fmt.Sprintf("%s/v1/venues/%s/feed", base2, venue), sequenceRequest{
			ObjectID: "late-" + venue,
			Records:  toWire(open[len(open)/2:]),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-restart feed %s: %s", venue, resp.Status)
		}
		resp.Body.Close()
	}
	resp = postJSON(t, base2+"/v1/flush", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart flush: %s", resp.Status)
	}
	flushed := decodeBody[flushResponse](t, resp)
	if flushed.PendingRecords != 0 {
		t.Fatalf("post-restart flush left %d records pending", flushed.PendingRecords)
	}
}
