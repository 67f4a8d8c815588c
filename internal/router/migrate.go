package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"c2mn"
)

// MigrationReport is the admin-facing summary of one completed venue
// migration.
type MigrationReport struct {
	Venue         string `json:"venue"`
	From          string `json:"from"`
	To            string `json:"to"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	Status        string `json:"status"`
}

// Migrate moves one venue from its current owner to a target backend
// without losing a single accepted record, sequencing msserve's drain
// and snapshot-transfer primitives:
//
//  1. drain the venue on the source — feeds fail 503 (retryable, no
//     redirect yet: the target cannot accept state-bearing traffic
//     before the restore lands);
//  2. wait for the source's pipeline counters to settle, proving no
//     in-flight feed is still mutating the state being moved;
//  3. snapshot the venue on the source and transfer the file to the
//     target's restore-upload endpoint — the snapshot's integrity and
//     identity guards (checksum, venue/space/model hashes) make a
//     corrupted or misdirected transfer fail loudly here;
//  4. pin the venue to the target, switching all new routing;
//  5. re-drain the source with a redirect so stragglers sent before
//     the pin get a 307 to the new owner;
//  6. unload the source's copy.
//
// Any failure before step 4 rolls back by undraining the source: the
// venue keeps serving where it was, and the migration can simply be
// retried. The target must already have the venue loaded — cold, with
// no fed traffic — because restores refuse to overwrite live state
// (c2mn.ErrSnapshotConflict).
func (rt *Router) Migrate(ctx context.Context, venue, to string) (MigrationReport, error) {
	rt.mu.Lock()
	if rt.migrating[venue] {
		rt.mu.Unlock()
		return MigrationReport{}, fmt.Errorf("%w: %q", c2mn.ErrMigrationConflict, venue)
	}
	rt.migrating[venue] = true
	_, targetKnown := rt.backends[to]
	source, err := rt.ownerLocked(venue)
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.migrating, venue)
		rt.mu.Unlock()
	}()
	if err != nil {
		return MigrationReport{}, err
	}
	if !targetKnown {
		return MigrationReport{}, fmt.Errorf("%w: migration target %q not in the backend table", c2mn.ErrNoBackend, to)
	}
	report := MigrationReport{Venue: venue, From: source, To: to}
	if source == to {
		report.Status = "already there"
		return report, nil
	}

	// 1. Drain: the source keeps answering queries but rejects feeds
	// with a retryable 503, so the state we snapshot stops moving.
	if err := rt.backendJSON(ctx, http.MethodPost, adminVenuePath(source, venue, "drain"), []byte("{}"), nil); err != nil {
		return report, fmt.Errorf("draining %q on %s: %w", venue, source, err)
	}
	rollback := func(cause error) (MigrationReport, error) {
		// Undrain with a background-ish context: the rollback must run
		// even when the caller's ctx caused the failure.
		undrainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := rt.backendJSON(undrainCtx, http.MethodDelete, adminVenuePath(source, venue, "drain"), nil, nil); err != nil {
			rt.cfg.Logf("migration rollback: undraining %q on %s failed: %v", venue, source, err)
		}
		return report, cause
	}

	// 2. Settle: feeds already past the drain check may still be in
	// flight. Two consecutive identical stats reads mean the pipeline
	// has stopped moving.
	if err := rt.waitSettled(ctx, source, venue); err != nil {
		return rollback(fmt.Errorf("waiting for %q to settle on %s: %w", venue, source, err))
	}

	// 3. Snapshot and transfer.
	if err := rt.backendJSON(ctx, http.MethodPost, adminVenuePath(source, venue, "snapshot"), nil, nil); err != nil {
		return rollback(fmt.Errorf("snapshotting %q on %s: %w", venue, source, err))
	}
	snap, err := rt.fetchSnapshot(ctx, source, venue)
	if err != nil {
		return rollback(fmt.Errorf("fetching snapshot of %q from %s: %w", venue, source, err))
	}
	report.SnapshotBytes = int64(len(snap))
	if err := rt.uploadSnapshot(ctx, to, venue, snap); err != nil {
		return rollback(fmt.Errorf("restoring %q on %s: %w", venue, to, err))
	}

	// 4. Cut routing over. From here the migration is forward-only:
	// the target owns the authoritative state.
	rt.mu.Lock()
	rt.pins[venue] = to
	rt.mu.Unlock()

	// 5. Redirect stragglers, 6. retire the source copy. Both are
	// cleanup on a backend that no longer owns the venue: log, don't
	// fail the migration.
	if err := rt.backendJSON(ctx, http.MethodPost, adminVenuePath(source, venue, "drain"),
		[]byte(fmt.Sprintf(`{"redirect_to":%q}`, to)), nil); err != nil {
		rt.cfg.Logf("migration: setting cutover redirect for %q on %s failed: %v", venue, source, err)
	}
	if err := rt.backendJSON(ctx, http.MethodDelete, adminVenuePath(source, venue, ""), nil, nil); err != nil {
		rt.cfg.Logf("migration: unloading %q from %s failed: %v", venue, source, err)
	}

	// Refresh discovery so the hosted-venue maps reflect the move
	// before the next health sweep.
	rt.probe(ctx, source)
	rt.probe(ctx, to)
	report.Status = "migrated"
	rt.cfg.Logf("migrated venue %q: %s -> %s (%d snapshot bytes)", venue, source, to, report.SnapshotBytes)
	return report, nil
}

// waitSettled polls the venue's pipeline counters on the drained
// source until two consecutive reads agree.
func (rt *Router) waitSettled(ctx context.Context, backend, venue string) error {
	const maxPolls = 100
	var prev c2mn.EngineStats
	have := false
	for i := 0; i < maxPolls; i++ {
		var cur c2mn.EngineStats
		if err := rt.backendJSON(ctx, http.MethodGet, venuePath(backend, venue, "stats"), nil, &cur); err != nil {
			return err
		}
		if have && cur == prev {
			return nil
		}
		prev, have = cur, true
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(rt.cfg.SettleDelay):
		}
	}
	return fmt.Errorf("pipeline still moving after %d polls", maxPolls)
}

// fetchSnapshot downloads the venue's snapshot file from the source.
func (rt *Router) fetchSnapshot(ctx context.Context, backend, venue string) ([]byte, error) {
	header := http.Header{}
	if rt.cfg.BackendToken != "" {
		header.Set("Authorization", "Bearer "+rt.cfg.BackendToken)
	}
	target := adminVenuePath(backend, venue, "snapshot/file")
	resp, err := rt.roundTrip(ctx, http.MethodGet, target, header, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody))
		return nil, backendError(http.MethodGet, target, resp.StatusCode, buf)
	}
	return io.ReadAll(resp.Body)
}

// uploadSnapshot PUTs the snapshot bytes to the target's
// restore-upload endpoint, which applies the full guard stack before
// touching the venue.
func (rt *Router) uploadSnapshot(ctx context.Context, backend, venue string, snap []byte) error {
	header := http.Header{}
	header.Set("Content-Type", "application/octet-stream")
	if rt.cfg.BackendToken != "" {
		header.Set("Authorization", "Bearer "+rt.cfg.BackendToken)
	}
	target := adminVenuePath(backend, venue, "snapshot/file")
	resp, err := rt.roundTrip(ctx, http.MethodPut, target, header, snap)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return backendError(http.MethodPut, target, resp.StatusCode, buf)
	}
	return nil
}
