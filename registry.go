package c2mn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"c2mn/internal/query"
	"c2mn/internal/snapshot"
)

// VenueRegistry hosts many independently loaded venues — each an
// immutable (Space, model) pair wrapped in its own Engine — and routes
// annotation, streaming ingestion and the top-k queries by venue ID.
// It is the sharding boundary of a multi-building deployment: every
// venue owns its model, its streaming segmentation state (keyed by
// (venue, object)) and its live m-semantics store with a per-shard
// lock, so traffic against one venue never contends with another.
//
// Venues are hot-(re)loadable: Load deserialises a model saved with
// Annotator.Save and atomically swaps it in under its venue ID —
// in-flight calls against the previous engine complete on the old
// model, new calls see the new one. Unload removes a venue.
//
// The registry itself is safe for concurrent use. Registry-wide
// settings come from RegistryOptions: WithVenueDefaults (engine
// options applied to every venue), WithVenueBudget (a shared bound on
// fleet-wide inference concurrency) and WithMaxVenues.
type VenueRegistry struct {
	mu        sync.RWMutex
	venues    map[string]*Engine
	venueOpts map[string][]Option // per-venue options from Register, replayed on retrain swaps
	defaults  []Option
	budget    chan struct{}
	maxVenues int
	retrain   *retrainManager // nil unless WithRetrainPolicy
}

// NewVenueRegistry returns an empty registry.
func NewVenueRegistry(opts ...RegistryOption) (*VenueRegistry, error) {
	vr := &VenueRegistry{venues: map[string]*Engine{}}
	for _, opt := range opts {
		if err := opt(vr); err != nil {
			return nil, err
		}
	}
	return vr, nil
}

// Register wraps a trained annotator in a fresh Engine and installs it
// under venueID, replacing (hot-reloading) any engine already serving
// that ID. Engine options apply in order: registry defaults first,
// then opts; the venue ID and the registry's shared inference budget
// are always set last. The new engine starts with empty streaming
// state and an empty live store.
func (vr *VenueRegistry) Register(venueID string, a *Annotator, opts ...Option) (*Engine, error) {
	if venueID == "" {
		return nil, errors.New("c2mn: venue ID must not be empty")
	}
	e, err := vr.buildEngine(venueID, a, opts)
	if err != nil {
		return nil, err
	}
	vr.mu.Lock()
	defer vr.mu.Unlock()
	old, reload := vr.venues[venueID]
	if !reload && vr.maxVenues > 0 && len(vr.venues) >= vr.maxVenues {
		return nil, fmt.Errorf("%w: limit %d reached loading %q", ErrTooManyVenues, vr.maxVenues, venueID)
	}
	if reload {
		vr.spliceGeneration(old, e)
	}
	vr.venues[venueID] = e
	if vr.venueOpts == nil {
		vr.venueOpts = map[string][]Option{}
	}
	vr.venueOpts[venueID] = opts
	if vr.retrain != nil && reload {
		// An operator reload replaces the model out of band: the drift
		// reference and self-labeled samples describe the old one.
		vr.retrain.reset(venueID)
	}
	return e, nil
}

// buildEngine assembles a venue engine under the registry's layered
// options: registry defaults first, then the per-venue opts, then the
// always-set venue identity, shared budget and — when retraining is
// enabled — the retrain loop's labeled-sequence tap. Register and the
// retrain swap path both build through here, so a retrained
// replacement serves under exactly the configuration its venue was
// registered with.
func (vr *VenueRegistry) buildEngine(venueID string, a *Annotator, opts []Option) (*Engine, error) {
	all := make([]Option, 0, len(vr.defaults)+len(opts)+3)
	all = append(all, vr.defaults...)
	all = append(all, opts...)
	all = append(all, WithVenueID(venueID), withBudget(vr.budget))
	if vr.retrain != nil {
		all = append(all, withLabeledSink(vr.retrain.sink(venueID)))
	}
	e, err := NewEngine(a, all...)
	if err != nil {
		return nil, fmt.Errorf("c2mn: venue %q: %w", venueID, err)
	}
	return e, nil
}

// spliceGeneration seeds a replacement engine's store generation past
// everything the engine it replaces ever published (current generation
// plus query.GenerationJump headroom). Generations are venue-scoped
// cache validators on the HTTP tiers — ETags, router partials, watch
// resume labels — and a fresh engine restarts its counter at zero, so
// without the splice a client holding an ETag from the old engine
// could revalidate against the new one, collide on a small generation
// number, and be told its stale answer is current. Called with vr.mu
// held, before the replacement becomes visible.
func (vr *VenueRegistry) spliceGeneration(old, next *Engine) {
	next.store.SeedGeneration(old.StoreGeneration() + query.GenerationJump)
}

// Load restores an annotator from a model saved with Annotator.Save
// and registers it under venueID (see Register for the reload and
// option semantics).
func (vr *VenueRegistry) Load(venueID string, space *Space, model io.Reader, opts ...Option) (*Engine, error) {
	a, err := Load(space, model)
	if err != nil {
		return nil, fmt.Errorf("c2mn: venue %q: %w", venueID, err)
	}
	return vr.Register(venueID, a, opts...)
}

// Unload removes a venue. In-flight calls against its engine complete;
// subsequent routed calls fail with ErrUnknownVenue.
func (vr *VenueRegistry) Unload(venueID string) error {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	if _, ok := vr.venues[venueID]; !ok {
		return unknownVenue(venueID)
	}
	delete(vr.venues, venueID)
	delete(vr.venueOpts, venueID)
	if vr.retrain != nil {
		vr.retrain.reset(venueID)
	}
	return nil
}

// Engine returns the venue's current engine, or ErrUnknownVenue.
func (vr *VenueRegistry) Engine(venueID string) (*Engine, error) {
	vr.mu.RLock()
	defer vr.mu.RUnlock()
	e, ok := vr.venues[venueID]
	if !ok {
		return nil, unknownVenue(venueID)
	}
	return e, nil
}

// Venues returns the loaded venue IDs, sorted.
func (vr *VenueRegistry) Venues() []string {
	vr.mu.RLock()
	defer vr.mu.RUnlock()
	out := make([]string, 0, len(vr.venues))
	for id := range vr.venues {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of loaded venues.
func (vr *VenueRegistry) Len() int {
	vr.mu.RLock()
	defer vr.mu.RUnlock()
	return len(vr.venues)
}

// engines snapshots the venue map for iteration outside the lock.
func (vr *VenueRegistry) engines() map[string]*Engine {
	vr.mu.RLock()
	defer vr.mu.RUnlock()
	out := make(map[string]*Engine, len(vr.venues))
	for id, e := range vr.venues {
		out[id] = e
	}
	return out
}

// AnnotateCtx routes a one-shot annotation to the venue's engine.
func (vr *VenueRegistry) AnnotateCtx(ctx context.Context, venueID string, p *PSequence) (Labels, MSSequence, error) {
	e, err := vr.Engine(venueID)
	if err != nil {
		return Labels{}, MSSequence{}, err
	}
	return e.AnnotateCtx(ctx, p)
}

// AnnotateAllCtx routes a batch annotation to the venue's engine.
func (vr *VenueRegistry) AnnotateAllCtx(ctx context.Context, venueID string, ps []PSequence) ([]MSSequence, error) {
	e, err := vr.Engine(venueID)
	if err != nil {
		return nil, err
	}
	return e.AnnotateAllCtx(ctx, ps)
}

// Feed routes one positioning record to the venue's stream of
// objectID. The (venue, object) pair keys the stream, so the same
// object ID active in two venues segments independently.
func (vr *VenueRegistry) Feed(venueID, objectID string, r Record) error {
	e, err := vr.Engine(venueID)
	if err != nil {
		return err
	}
	return e.Feed(objectID, r)
}

// FeedAll routes a record batch to the venue's stream of objectID and
// reports how many completed sequences it caused to be emitted.
func (vr *VenueRegistry) FeedAll(venueID, objectID string, records []Record) (int, error) {
	e, err := vr.Engine(venueID)
	if err != nil {
		return 0, err
	}
	return e.FeedAll(objectID, records)
}

// Flush completes one venue's open stream fragments.
func (vr *VenueRegistry) Flush(venueID string) error {
	e, err := vr.Engine(venueID)
	if err != nil {
		return err
	}
	return e.Flush()
}

// FlushAll flushes every venue, in venue-ID order; per-venue errors
// are joined, and every venue is flushed even when an earlier one
// fails.
func (vr *VenueRegistry) FlushAll() error {
	engines := vr.engines()
	ids := make([]string, 0, len(engines))
	for id := range engines {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var errs []error
	for _, id := range ids {
		if err := engines[id].Flush(); err != nil {
			errs = append(errs, fmt.Errorf("venue %q: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// snapshotExt is the on-disk suffix of per-venue snapshot files.
const snapshotExt = ".c2mnsnap"

// SnapshotPath returns the file a venue's snapshot lives at inside a
// snapshot directory. The venue ID is path-escaped, so IDs containing
// separators or dots cannot climb out of the directory.
func SnapshotPath(dir, venueID string) string {
	return filepath.Join(dir, url.PathEscape(venueID)+snapshotExt)
}

// SnapshotVenue captures one venue's live serving state — open stream
// fragments, the live m-semantics store and the pipeline counters —
// into SnapshotPath(dir, venueID), and returns that path. The capture
// takes the shard's read locks only briefly; serving continues
// throughout. The write is atomic (temp file, fsync, rename), so a
// crash mid-snapshot leaves the previous snapshot intact and a reader
// never observes a torn file.
func (vr *VenueRegistry) SnapshotVenue(venueID, dir string) (string, error) {
	e, err := vr.Engine(venueID)
	if err != nil {
		return "", err
	}
	path := SnapshotPath(dir, venueID)
	if err := snapshot.WriteFile(path, e.snapshotFile(time.Now().Unix())); err != nil {
		return "", fmt.Errorf("c2mn: snapshot venue %q: %w", venueID, err)
	}
	return path, nil
}

// SnapshotAll snapshots every loaded venue into dir, in venue-ID
// order. Every venue is attempted even when an earlier one fails; the
// per-venue errors are joined. It returns the paths written.
func (vr *VenueRegistry) SnapshotAll(dir string) ([]string, error) {
	var paths []string
	var errs []error
	for _, id := range vr.Venues() {
		p, err := vr.SnapshotVenue(id, dir)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		paths = append(paths, p)
	}
	return paths, errors.Join(errs...)
}

// RestoreVenue restores one venue's state from SnapshotPath(dir,
// venueID). The venue must already be loaded (the snapshot holds
// serving state, not the model) and must not have ingested traffic
// yet. Failure modes are typed: os.ErrNotExist when no snapshot file
// exists, ErrSnapshotVersion / ErrSnapshotCorrupt for unreadable
// files, ErrSnapshotMismatch when the snapshot was captured from a
// different venue identity (space, model — e.g. after a retrain — or
// η/ψ/retention configuration), and ErrSnapshotConflict when the
// venue already has live state. The venue is unchanged on failure.
func (vr *VenueRegistry) RestoreVenue(venueID, dir string) error {
	e, err := vr.Engine(venueID)
	if err != nil {
		return err
	}
	f, err := snapshot.ReadFile(SnapshotPath(dir, venueID))
	if err != nil {
		return wrapSnapshotError(err)
	}
	return e.restoreFile(f)
}

// RestoreAll warm-starts the registry from a snapshot directory: every
// loaded venue with a snapshot file in dir is restored; venues without
// one start cold, silently. It returns the venue IDs restored; venues
// whose restore failed (corrupt file, identity mismatch, conflict)
// contribute joined errors and keep their current — typically cold —
// state, so one bad snapshot never blocks the rest of the fleet from
// warming up.
func (vr *VenueRegistry) RestoreAll(dir string) ([]string, error) {
	var restored []string
	var errs []error
	for _, id := range vr.Venues() {
		err := vr.RestoreVenue(id, dir)
		switch {
		case err == nil:
			restored = append(restored, id)
		case errors.Is(err, os.ErrNotExist):
			// No snapshot for this venue: a cold start, not a failure.
		default:
			errs = append(errs, fmt.Errorf("venue %q: %w", id, err))
		}
	}
	return restored, errors.Join(errs...)
}

// Sequences returns a snapshot of one venue's live ms-sequences.
func (vr *VenueRegistry) Sequences(venueID string) ([]MSSequence, error) {
	e, err := vr.Engine(venueID)
	if err != nil {
		return nil, err
	}
	return e.Sequences(), nil
}

// Stats reports every venue's streaming pipeline counters, keyed by
// venue ID.
func (vr *VenueRegistry) Stats() map[string]EngineStats {
	engines := vr.engines()
	out := make(map[string]EngineStats, len(engines))
	for id, e := range engines {
		out[id] = e.Stats()
	}
	return out
}
