package c2mn

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// feedVenueHalfOpen feeds the test workload into a venue so that some
// sequences complete and the tail of every stream stays buffered as an
// open fragment — the state a live server carries at any instant.
func feedVenueHalfOpen(t *testing.T, vr *VenueRegistry, venue string, test []LabeledSequence) {
	t.Helper()
	for i := range test {
		records := test[i].P.Records
		cut := len(records) - len(records)/4 // keep a tail buffered
		if _, err := vr.FeedAll(venue, test[i].P.ObjectID, records[:cut]); err != nil {
			t.Fatal(err)
		}
	}
}

// feedVenueTails feeds the withheld record tails, completing the open
// fragments on whichever engine now serves the venue.
func feedVenueTails(t *testing.T, vr *VenueRegistry, venue string, test []LabeledSequence) {
	t.Helper()
	for i := range test {
		records := test[i].P.Records
		cut := len(records) - len(records)/4
		if _, err := vr.FeedAll(venue, test[i].P.ObjectID, records[cut:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := vr.Flush(venue); err != nil {
		t.Fatal(err)
	}
}

// queryJSON renders a venue's top-k answers for byte comparison.
func queryJSON(t *testing.T, vr *VenueRegistry, venue string, q []RegionID) []byte {
	t.Helper()
	query := Query{Kind: QueryPopularRegions, Venues: []string{venue}, Regions: q, Window: &Window{Start: 0, End: 1e18}, K: 10}
	top, err := vr.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	query.Kind = QueryFrequentPairs
	pairs, err := vr.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(struct {
		Regions []RegionCount
		Pairs   []PairCount
	}{top.Regions, pairs.Pairs})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRegistrySnapshotRestoreWarm is the warm-restart property at the
// registry level: snapshot a serving venue (open fragments included),
// restore it into a freshly loaded venue in another registry, and the
// restored venue answers queries byte-identically, reports the same
// pipeline counters, and continues its open streams exactly where the
// captured venue left off.
func TestRegistrySnapshotRestoreWarm(t *testing.T) {
	a, test := testAnnotator(t)
	opts := WithVenueDefaults(WithPreprocess(120, 60), WithRetention(1e6))
	vr, err := NewVenueRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	feedVenueHalfOpen(t, vr, "mall", test)

	dir := t.TempDir()
	path, err := vr.SnapshotVenue("mall", dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != SnapshotPath(dir, "mall") {
		t.Fatalf("snapshot path = %q", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// A second registry, same model and configuration, freshly loaded.
	vr2, err := NewVenueRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr2.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	restored, err := vr2.RestoreAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, []string{"mall"}) {
		t.Fatalf("RestoreAll restored %v", restored)
	}

	// Stored sequences, counters and answers match the captured venue.
	liveSeqs, _ := vr.Sequences("mall")
	warmSeqs, _ := vr2.Sequences("mall")
	if !reflect.DeepEqual(warmSeqs, liveSeqs) {
		t.Fatalf("restored store has %d sequences, live %d", len(warmSeqs), len(liveSeqs))
	}
	liveStats, warmStats := vr.Stats()["mall"], vr2.Stats()["mall"]
	if liveStats != warmStats {
		t.Fatalf("restored stats = %+v, live %+v", warmStats, liveStats)
	}
	if warmStats.PendingRecords == 0 {
		t.Fatal("fixture has no open fragments: the restart test is vacuous")
	}
	q := a.Space().Regions()
	if got, want := queryJSON(t, vr2, "mall", q), queryJSON(t, vr, "mall", q); !bytes.Equal(got, want) {
		t.Fatalf("restored answers diverge:\n got %s\nwant %s", got, want)
	}

	// The open fragments continue identically: feeding the withheld
	// tails into both registries yields the same final state.
	feedVenueTails(t, vr, "mall", test)
	feedVenueTails(t, vr2, "mall", test)
	liveSeqs, _ = vr.Sequences("mall")
	warmSeqs, _ = vr2.Sequences("mall")
	if !reflect.DeepEqual(warmSeqs, liveSeqs) {
		t.Fatal("post-restore ingestion diverges from the uninterrupted venue")
	}
	if got, want := queryJSON(t, vr2, "mall", q), queryJSON(t, vr, "mall", q); !bytes.Equal(got, want) {
		t.Fatalf("post-restore answers diverge:\n got %s\nwant %s", got, want)
	}
}

// TestRegistrySnapshotVenueIDEscaping: hostile venue IDs cannot climb
// out of the snapshot directory.
func TestRegistrySnapshotVenueIDEscaping(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"../evil", "a/b", "..", "c:d"} {
		p := SnapshotPath(dir, id)
		if filepath.Dir(p) != filepath.Clean(dir) {
			t.Fatalf("venue %q escapes the snapshot dir: %s", id, p)
		}
	}
}

// TestRegistryRestoreStaleModel pins the model guard: a snapshot
// captured under one model must not restore into the same venue ID
// running a retrained model — its stored semantics would mix two
// models' annotations.
func TestRegistryRestoreStaleModel(t *testing.T) {
	a, test := testAnnotator(t)
	vr, err := NewVenueRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.FeedAll("mall", test[0].P.ObjectID, test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := vr.SnapshotVenue("mall", dir); err != nil {
		t.Fatal(err)
	}

	// "Retrain": perturb one weight through the model's own save/load
	// path, producing a valid model with a different hash.
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	weights := m["weights"].([]any)
	weights[0] = weights[0].(float64) + 1
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := Load(a.Space(), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	vr2, err := NewVenueRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr2.Register("mall", retrained); err != nil {
		t.Fatal(err)
	}
	err = vr2.RestoreVenue("mall", dir)
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("stale-model restore: err = %v, want ErrSnapshotMismatch", err)
	}
	if !strings.Contains(err.Error(), "model hash") {
		t.Fatalf("mismatch error does not name the model: %v", err)
	}
	// The venue kept its fresh (cold) state.
	if seqs, _ := vr2.Sequences("mall"); len(seqs) != 0 {
		t.Fatal("failed restore left state behind")
	}
	// RestoreAll surfaces the same failure joined, restoring nothing.
	if restored, err := vr2.RestoreAll(dir); len(restored) != 0 || !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("RestoreAll = (%v, %v)", restored, err)
	}
}

// TestRegistryRestoreConflict pins the no-silent-overwrite contract: a
// venue that already ingested traffic refuses a restore.
func TestRegistryRestoreConflict(t *testing.T) {
	a, test := testAnnotator(t)
	vr, err := NewVenueRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.FeedAll("mall", test[0].P.ObjectID, test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	if err := vr.Flush("mall"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := vr.SnapshotVenue("mall", dir); err != nil {
		t.Fatal(err)
	}
	// The venue is still serving — restoring over it must conflict.
	if err := vr.RestoreVenue("mall", dir); !errors.Is(err, ErrSnapshotConflict) {
		t.Fatalf("restore over live venue: err = %v, want ErrSnapshotConflict", err)
	}
	before, _ := vr.Sequences("mall")
	if len(before) == 0 {
		t.Fatal("fixture venue stored nothing")
	}

	// A hot reload swaps in a fresh engine; the restore then lands.
	if _, err := vr.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	if err := vr.RestoreVenue("mall", dir); err != nil {
		t.Fatal(err)
	}
	after, _ := vr.Sequences("mall")
	if !reflect.DeepEqual(after, before) {
		t.Fatal("post-reload restore did not reproduce the snapshot")
	}
}

// TestRegistryRestoreConfigMismatchAndMissing: a snapshot captured
// under different η/ψ preprocessing is refused, and a venue without a
// snapshot file surfaces os.ErrNotExist (RestoreAll treats it as a
// cold start).
func TestRegistryRestoreConfigMismatchAndMissing(t *testing.T) {
	a, test := testAnnotator(t)
	vr, err := NewVenueRegistry(WithVenueDefaults(WithPreprocess(120, 60)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.FeedAll("mall", test[0].P.ObjectID, test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := vr.SnapshotVenue("mall", dir); err != nil {
		t.Fatal(err)
	}

	vr2, err := NewVenueRegistry(WithVenueDefaults(WithPreprocess(300, 60)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr2.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	if err := vr2.RestoreVenue("mall", dir); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("config-mismatch restore: err = %v, want ErrSnapshotMismatch", err)
	}

	if err := vr.RestoreVenue("nowhere", dir); !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("restore of unloaded venue: err = %v, want ErrUnknownVenue", err)
	}
	if err := vr2.RestoreVenue("mall", t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("restore without file: err = %v, want ErrNotExist", err)
	}
	if restored, err := vr2.RestoreAll(t.TempDir()); err != nil || len(restored) != 0 {
		t.Fatalf("RestoreAll of empty dir = (%v, %v), want cold start", restored, err)
	}
}

// TestRegistryRestoreTruncatedSnapshot: a torn snapshot file fails
// with the typed corruption error — never a panic — and leaves the
// venue cold.
func TestRegistryRestoreTruncatedSnapshot(t *testing.T) {
	a, test := testAnnotator(t)
	vr, err := NewVenueRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	if _, err := vr.FeedAll("mall", test[0].P.ObjectID, test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := vr.SnapshotVenue("mall", dir)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	vr2, err := NewVenueRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr2.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, len(whole) / 3, len(whole) - 1} {
		if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := vr2.RestoreVenue("mall", dir); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation at %d bytes: err = %v, want ErrSnapshotCorrupt", n, err)
		}
	}
	if seqs, _ := vr2.Sequences("mall"); len(seqs) != 0 {
		t.Fatal("corrupt restore left state behind")
	}
	// The intact bytes still restore (the guard is on content, not on
	// having failed before).
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := vr2.RestoreVenue("mall", dir); err != nil {
		t.Fatal(err)
	}

	// A future-format snapshot is the version sentinel, not corruption.
	future := strings.Replace(string(whole), `"version":1`, `"version":99`, 1)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	vr3, err := NewVenueRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vr3.Register("mall", a); err != nil {
		t.Fatal(err)
	}
	if err := vr3.RestoreVenue("mall", dir); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future snapshot: err = %v, want ErrSnapshotVersion", err)
	}
}

// TestEngineWriteRestoreSnapshotStandalone drives the io.Reader/Writer
// surface directly on a standalone engine (no registry, no files).
func TestEngineWriteRestoreSnapshotStandalone(t *testing.T) {
	a, test := testAnnotator(t)
	e, err := NewEngine(a, WithPreprocess(120, 60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FeedAll(test[0].P.ObjectID, test[0].P.Records); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(a, WithPreprocess(120, 60))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e2.Sequences(), e.Sequences()) {
		t.Fatal("standalone restore diverges")
	}
	if e.Stats() != e2.Stats() {
		t.Fatalf("standalone stats = %+v, want %+v", e2.Stats(), e.Stats())
	}
}
