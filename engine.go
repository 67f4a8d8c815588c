package c2mn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"c2mn/internal/lru"
	"c2mn/internal/query"
	"c2mn/internal/seq"
	"c2mn/internal/snapshot"
)

// Engine is the serving surface of the package: a trained Annotator
// bound to its venue, plus the machinery a long-running service needs
// around it — a bounded worker pool for batch annotation, streaming
// ingestion with online η-gap segmentation, and a live m-semantics
// store the top-k queries can be answered from while records are still
// arriving.
//
// An Engine is safe for concurrent use. Batch entry points
// (AnnotateCtx, AnnotateAllCtx) are stateless; the streaming entry
// points (Feed, FeedAll, Flush) share per-object segmentation state
// and the live store. Records of one object must be fed in
// timestamp order; different objects may be fed concurrently and
// interleaved freely.
type Engine struct {
	ann         *Annotator
	venue       string
	workers     int
	eta, psi    float64
	window      int
	overlap     int
	infer       AnnotateOptions
	onSeq       func(MSSequence)
	labeledSink func(LabeledSequence) // retrain-loop tap (see withLabeledSink)
	retention   float64
	budget      chan struct{} // optional shared inference budget (see WithVenueBudget)
	feedTimeout time.Duration // bound on streaming-path budget waits (see WithFeedQueueTimeout)
	store       *query.Store
	notifier    func(venue string, gen uint64) // change-feed signal (see WithChangeNotifier)
	notified    atomic.Int64                   // generation-move signals delivered to the notifier

	mu      sync.Mutex // guards streams and fed
	streams *seq.StreamSet
	fed     int64

	// Coalesced /feed micro-batching (see annotateCoalesced): feedMu
	// guards the burst queue and the leadership flag.
	feedMu     sync.Mutex
	feedQ      []*feedJob
	feedLeader bool

	emitted atomic.Int64
	batches atomic.Int64 // leader drains, i.e. pooled-state acquisitions on the feed path

	// Generation-keyed query result cache (see queryCounts): a bounded
	// per-venue LRU of memoized top-k answers. Entries carry the store
	// generation they were computed at; a moved generation never
	// matches, so invalidation needs no bookkeeping on the write path.
	qcacheMu    sync.Mutex
	qcache      *lru.Cache[string, cachedAnswer]
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheRevals atomic.Int64 // HTTP 304s served off the generation validator
}

// cachedAnswer is one memoized query result plus the store generation
// it was computed at (captured atomically with the counts).
type cachedAnswer struct {
	gen     uint64
	regions []RegionCount
	pairs   []PairCount
}

// queryCacheEntries bounds the per-venue result cache. Dashboards poll
// a handful of distinct (kind, regions, window, k) shapes per venue;
// 256 covers them with room for ad-hoc queries without letting a
// querier with unbounded distinct windows grow the cache.
const queryCacheEntries = 256

// feedJob is one completed stream fragment waiting in the coalescing
// queue; done receives its annotation result exactly once.
type feedJob struct {
	p    *PSequence
	done chan feedResult
}

type feedResult struct {
	labels Labels
	ms     MSSequence
	err    error
}

// NewEngine wraps a trained annotator in an Engine. It returns
// ErrNoModel when the annotator is nil or has no model behind it.
func NewEngine(a *Annotator, opts ...Option) (*Engine, error) {
	if a == nil || a.model == nil {
		return nil, ErrNoModel
	}
	e := &Engine{
		ann: a,
		eta: DefaultEta,
		psi: DefaultPsi,
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	e.streams = seq.NewStreamSet(e.eta, e.psi)
	e.store = query.NewStore(e.retention)
	if e.notifier != nil {
		fn := e.notifier
		e.store.OnChange(func(gen uint64) {
			e.notified.Add(1)
			fn(e.venue, gen)
		})
	}
	e.qcache = lru.New[string, cachedAnswer](queryCacheEntries)
	return e, nil
}

// Annotator returns the wrapped annotator.
func (e *Engine) Annotator() *Annotator { return e.ann }

// Space returns the engine's venue geometry.
func (e *Engine) Space() *Space { return e.ann.Space() }

// VenueID returns the venue identifier set with WithVenueID — the
// engine's shard name inside a VenueRegistry — or "" for a
// single-venue engine.
func (e *Engine) VenueID() string { return e.venue }

// acquire takes one slot of the shared inference budget, waiting
// until one frees or ctx is canceled. A nil budget acquires nothing.
func (e *Engine) acquire(ctx context.Context) error {
	if e.budget == nil {
		return nil
	}
	select {
	case e.budget <- struct{}{}:
		return nil
	case <-ctx.Done():
		return canceled(ctx.Err())
	}
}

// release returns an acquired budget slot.
func (e *Engine) release() {
	if e.budget != nil {
		<-e.budget
	}
}

// infer applies the engine's configured inference to one sequence:
// AnnotateWindowed when WithWindowing is set, whole-sequence inference
// otherwise, both under the WithInferOptions tuning. Every Engine path
// — single, batch and streaming — funnels through here so they cannot
// diverge. Callers hold a budget slot (annotate / annotateCtx).
func (e *Engine) inferSeq(p *PSequence) (Labels, MSSequence, error) {
	if e.window > 0 {
		return e.ann.AnnotateWindowedOpts(p, e.window, e.overlap, e.infer)
	}
	return e.ann.AnnotateOpts(p, e.infer)
}

// annotateCoalesced is the streaming-path inference with micro-batch
// coalescing: fragments completed by concurrent Feed calls while one
// inference is underway queue up, and the goroutine holding the
// (budget slot, pooled inference state) pair — the burst leader —
// drains them all under that single acquisition before releasing it.
// Under production-shaped concurrency this amortizes the per-sequence
// budget wait, pool round-trip and workspace/context setup across the
// burst while the shared geometry cache stays hot; an idle engine
// degenerates to exactly one acquisition per fragment, and each
// caller still returns only when its own fragment is annotated.
//
// The budget slot is waited for without a caller context (stream
// fragments must not be dropped because one HTTP client went away) and
// held for the drain only. The wait is unbounded by default;
// WithFeedQueueTimeout bounds it, so a venue whose backlog outgrows
// the fleet budget fails fast with ErrBacklog instead of wedging its
// Feed callers — a failed wait fails the fragments queued at that
// moment, and the next burst retries with a fresh wait.
func (e *Engine) annotateCoalesced(p *PSequence) (Labels, MSSequence, error) {
	job := &feedJob{p: p, done: make(chan feedResult, 1)}
	e.feedMu.Lock()
	e.feedQ = append(e.feedQ, job)
	if e.feedLeader {
		// A leader is draining; it will pick this job up before it
		// releases its acquisition.
		e.feedMu.Unlock()
		r := <-job.done
		return r.labels, r.ms, r.err
	}
	e.feedLeader = true
	e.feedMu.Unlock()

	ctx := context.Background()
	if e.budget != nil && e.feedTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.feedTimeout)
		defer cancel()
	}
	acquireErr := e.acquire(ctx)
	var st *inferState
	if acquireErr == nil {
		st = e.ann.pool.Get().(*inferState)
		e.batches.Add(1)
	}
	for {
		e.feedMu.Lock()
		if len(e.feedQ) == 0 {
			e.feedLeader = false
			e.feedMu.Unlock()
			break
		}
		j := e.feedQ[0]
		copy(e.feedQ, e.feedQ[1:])
		e.feedQ = e.feedQ[:len(e.feedQ)-1]
		e.feedMu.Unlock()
		var r feedResult
		if acquireErr != nil {
			r.err = fmt.Errorf("%w: no inference slot within %v", ErrBacklog, e.feedTimeout)
		} else {
			r.labels, r.ms, r.err = e.ann.annotateWith(st, j.p, e.window, e.overlap, e.infer)
		}
		j.done <- r
	}
	if st != nil {
		e.ann.pool.Put(st)
	}
	if acquireErr == nil {
		e.release()
	}
	r := <-job.done
	return r.labels, r.ms, r.err
}

// annotateCtx is the request-path inference: waiting for a budget
// slot is cancellable, and cancellation is re-checked after the wait
// so a request that went dead in the queue never runs inference.
func (e *Engine) annotateCtx(ctx context.Context, p *PSequence) (Labels, MSSequence, error) {
	if err := e.acquire(ctx); err != nil {
		return Labels{}, MSSequence{}, err
	}
	defer e.release()
	if err := ctx.Err(); err != nil {
		return Labels{}, MSSequence{}, canceled(err)
	}
	return e.inferSeq(p)
}

// AnnotateCtx labels one p-sequence under the engine's configuration.
// It honours ctx cancellation (ErrCanceled) and rejects empty
// sequences (ErrEmptySequence); cancellation is observed before
// inference starts — including while queued for a shared venue budget
// slot — not within it.
func (e *Engine) AnnotateCtx(ctx context.Context, p *PSequence) (Labels, MSSequence, error) {
	if err := e.ann.guard(ctx, p); err != nil {
		return Labels{}, MSSequence{}, err
	}
	return e.annotateCtx(ctx, p)
}

// AnnotateAllCtx annotates a batch on the engine's worker pool (see
// WithWorkers), returning ms-sequences in input order under the
// engine's configured inference. On context cancellation it stops
// promptly (between sequences, or while waiting for a shared budget
// slot) and returns an error wrapping ErrCanceled; an empty sequence
// in the batch fails with ErrEmptySequence.
func (e *Engine) AnnotateAllCtx(ctx context.Context, ps []PSequence) ([]MSSequence, error) {
	return e.ann.annotateAllFunc(ctx, ps, e.workers, func(p *PSequence) (Labels, MSSequence, error) {
		return e.annotateCtx(ctx, p)
	})
}

// Feed appends one positioning record to objectID's stream. When the
// record's gap from the object's previous record exceeds η, the
// buffered fragment is completed exactly as batch Preprocess would
// complete it (same split, same ψ filter, same "#k" sub-sequence ID),
// annotated, added to the live store, and handed to the WithOnSequence
// callback. Records of one object must arrive in timestamp order; a
// record older than the object's last buffered one is rejected with an
// error and not ingested.
func (e *Engine) Feed(objectID string, r Record) error {
	_, err := e.feed(objectID, r)
	return err
}

// FeedAll feeds a slice of records of one object in order and reports
// how many completed sequences they caused to be emitted. Every record
// is ingested even when an earlier completed fragment fails annotation
// — a bad fragment must not drop the rest of a delivery batch — and
// the fragments' errors are joined.
func (e *Engine) FeedAll(objectID string, records []Record) (int, error) {
	emitted := 0
	var errs []error
	for i := range records {
		done, err := e.feed(objectID, records[i])
		if err != nil {
			errs = append(errs, err)
		}
		if done {
			emitted++
		}
	}
	return emitted, errors.Join(errs...)
}

// feed ingests one record and reports whether it completed (and
// emitted) a sequence. An out-of-order record is rejected here, where
// it is attributable, rather than buffered to poison the whole
// fragment at annotation time.
func (e *Engine) feed(objectID string, r Record) (bool, error) {
	e.mu.Lock()
	s := e.streams.Get(seq.StreamKey{Venue: e.venue, Object: objectID})
	if last, buffered := s.Last(); buffered && r.T < last {
		e.mu.Unlock()
		return false, fmt.Errorf("c2mn: stream %s: record at t=%.3f out of order (last t=%.3f)",
			e.streamName(objectID), r.T, last)
	}
	p, done := s.Feed(r)
	e.fed++
	e.mu.Unlock()
	if !done {
		return false, nil
	}
	if err := e.process(&p); err != nil {
		return false, err
	}
	return true, nil
}

// Flush completes every object's trailing fragment — as batch
// Preprocess does at end of input — and annotates and emits the
// fragments that survive the ψ filter, in object-ID order. Per-object
// stream state is released afterwards, so a long-running server that
// flushes periodically does not accumulate one entry per object ID
// ever seen; a stream that keeps feeding after a Flush restarts its
// fragment numbering at "#0", exactly like a fresh Preprocess call.
// All fragments are processed even if some fail; their errors are
// joined.
func (e *Engine) Flush() error {
	e.mu.Lock()
	done := e.streams.FlushAll()
	e.mu.Unlock()
	var errs []error
	for i := range done {
		if err := e.process(&done[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// streamName qualifies an object ID with the venue for error messages.
func (e *Engine) streamName(objectID string) string {
	if e.venue == "" {
		return objectID
	}
	return e.venue + "/" + objectID
}

// process annotates one completed fragment — through the coalescing
// micro-batcher — and emits its m-semantics.
func (e *Engine) process(p *PSequence) error {
	labels, ms, err := e.annotateCoalesced(p)
	if err != nil {
		return fmt.Errorf("c2mn: stream %s: %w", e.streamName(p.ObjectID), err)
	}
	e.store.Add(ms)
	e.emitted.Add(1)
	if e.onSeq != nil {
		e.onSeq(ms)
	}
	if e.labeledSink != nil {
		// The sink gets the raw inference output — the (sequence,
		// labels) pair the retrain loop's drift detector and stream
		// reservoir feed on. Same goroutine/contract as onSeq.
		e.labeledSink(LabeledSequence{P: *p, Labels: labels})
	}
	return nil
}

// queryCounts is the single per-shard query executor: every query
// entry point — the engine's TopK* compatibility wrappers and the
// per-venue fan-out behind VenueRegistry.Query — funnels through it.
// Callers resolve the k default first (defaultK here, the normalized
// Query on the registry path); the every-region default — an empty
// regions — is resolved here, so venue-scoped and fleet-scoped answers
// cannot diverge. It answers one kind over the live store with counts
// truncated at k; pass query.AllCounts for the untruncated lists a
// cross-venue merge needs.
//
// Results are memoized in a bounded LRU keyed by the canonical query
// encoding, validated by the store generation captured atomically with
// the counts: a repeat of the same query at an unchanged generation
// returns the memoized slices without touching the index, and any
// store mutation (add, eviction, restore) moves the generation so
// stale entries can never match. Returned slices are shared between
// the cache and every caller at the same generation; all downstream
// consumers (merge, truncate, pagination, JSON encoding) only read or
// re-slice them.
//
// The returned generation is exact for the returned counts — captured
// under the store lock with them (or validated equal on a cache hit),
// never sampled before or after execution — so a freshness label built
// from it can neither understate nor overstate the bytes it stamps.
// The watch plane's Last-Event-ID resume-skip is only sound because of
// this: a label sampled racily against concurrent writes could mark
// newer bytes with an older generation and silently diverge a resumed
// subscriber.
func (e *Engine) queryCounts(kind QueryKind, regions []RegionID, w Window, k int) ([]RegionCount, []PairCount, uint64) {
	key := queryCacheKey(kind, regions, w, k)
	gen := e.store.Generation()
	e.qcacheMu.Lock()
	if ans, ok := e.qcache.Get(key); ok && ans.gen == gen {
		e.qcacheMu.Unlock()
		e.cacheHits.Add(1)
		return ans.regions, ans.pairs, ans.gen
	}
	e.qcacheMu.Unlock()
	e.cacheMisses.Add(1)
	if len(regions) == 0 {
		regions = e.Space().Regions()
	}
	var ans cachedAnswer
	switch kind {
	case QueryFrequentPairs:
		ans.pairs, ans.gen = e.store.TopKFrequentPairsGen(regions, w, k)
	default:
		ans.regions, ans.gen = e.store.TopKPopularRegionsGen(regions, w, k)
	}
	e.qcacheMu.Lock()
	e.qcache.Put(key, ans)
	e.qcacheMu.Unlock()
	return ans.regions, ans.pairs, ans.gen
}

// queryCacheKey canonically encodes one query shape. The region set is
// sorted and deduplicated first — the top-k queries treat regions as a
// set, so permuted or repeated region lists must share a cache slot —
// and the window bounds are encoded as raw float bits so distinct
// windows can never collide. The every-region default (empty regions)
// is encoded as a marker no region list can produce, not expanded: an
// engine's space never changes, and the default is what most queries —
// cache hits included — ask for.
func queryCacheKey(kind QueryKind, regions []RegionID, w Window, k int) string {
	rs := slices.Clone(regions)
	slices.Sort(rs)
	buf := make([]byte, 0, 48+8*len(rs))
	buf = append(buf, kind...)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, math.Float64bits(w.Start), 16)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, math.Float64bits(w.End), 16)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(k), 10)
	if len(rs) == 0 {
		buf = append(buf, "|*"...)
	}
	for i, r := range rs {
		if i > 0 && r == rs[i-1] {
			continue
		}
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(r), 10)
	}
	return string(buf)
}

// ModelHash returns the content hash of the model this engine serves
// with — the identity the snapshot guard checks and the retrain plane
// reports over the admin API. It is stable for the engine's lifetime;
// a hot swap installs a new engine rather than mutating this one.
func (e *Engine) ModelHash() string {
	_, modelH := e.ann.hashes()
	return modelH
}

// SpaceHash returns the content hash of the venue geometry the engine
// serves with.
func (e *Engine) SpaceHash() string {
	spaceH, _ := e.ann.hashes()
	return spaceH
}

// StoreGeneration returns the live store's content generation — the
// value behind the ETag validator on the HTTP query surface. It moves
// strictly forward on every store mutation; equal generations imply
// byte-identical answers to every query over this venue.
func (e *Engine) StoreGeneration() uint64 {
	return e.store.Generation()
}

// RecordQueryRevalidation counts one successful HTTP revalidation (a
// conditional request answered 304 off the generation validator). The
// serving layer calls it so cache observability covers both tiers.
func (e *Engine) RecordQueryRevalidation() {
	e.cacheRevals.Add(1)
}

// defaultK applies the unified k default to the TopK* wrappers'
// argument: k == 0 means DefaultQueryK, as Query.Normalized applies it
// on the VenueRegistry path (the every-region default for an empty
// region set is queryCounts' own). A negative k stays negative and
// yields an empty list downstream (the error-returning registry path
// rejects it with ErrInvalidQuery; the errorless engine wrappers
// degrade to the empty answer instead).
func defaultK(k int) int {
	if k == 0 {
		return DefaultQueryK
	}
	return k
}

// TopKPopularRegions answers a TkPRQ over the live store. It is a
// compatibility wrapper over the unified query path — an empty q
// means every region of the venue, k == 0 means DefaultQueryK, a
// negative k yields an empty list; prefer VenueRegistry.Query in
// multi-venue deployments.
func (e *Engine) TopKPopularRegions(q []RegionID, w Window, k int) []RegionCount {
	rcs, _, _ := e.queryCounts(QueryPopularRegions, q, w, defaultK(k))
	return rcs
}

// TopKFrequentPairs answers a TkFRPQ over the live store. It is a
// compatibility wrapper over the unified query path, with the same
// empty-q and k defaults as TopKPopularRegions; prefer
// VenueRegistry.Query in multi-venue deployments.
func (e *Engine) TopKFrequentPairs(q []RegionID, w Window, k int) []PairCount {
	_, pcs, _ := e.queryCounts(QueryFrequentPairs, q, w, defaultK(k))
	return pcs
}

// Sequences returns a snapshot of the live store's ms-sequences.
func (e *Engine) Sequences() []MSSequence { return e.store.Snapshot() }

// snapshotFile captures the engine's live serving state as a snapshot
// file: identity header (venue ID plus space/model hashes), the η/ψ/
// retention configuration, the pipeline counters, the open stream
// fragments and the query-index state. Both sections are captured
// under the ingestion lock — fragment completion requires it, so no
// fragment can move from the stream buffers into the store between
// the two captures and end up in both (a double count after restore).
// A fragment completed just before the capture whose annotation is
// still in flight appears in neither section: the snapshot simply
// predates it, and a later snapshot picks it up.
func (e *Engine) snapshotFile(nowUnix int64) *snapshot.File {
	spaceH, modelH := e.ann.hashes()
	e.mu.Lock()
	fed := e.fed
	emitted := e.emitted.Load()
	streams := e.streams.SnapshotState()
	ixState := e.store.SnapshotState()
	e.mu.Unlock()
	return &snapshot.File{
		Header: snapshot.Header{
			Venue:       e.venue,
			SpaceHash:   spaceH,
			ModelHash:   modelH,
			CreatedUnix: nowUnix,
		},
		Engine: snapshot.EngineSection{
			Eta:                     e.eta,
			Psi:                     e.psi,
			Retention:               e.retention,
			FedRecords:              fed,
			EmittedSequences:        emitted,
			FeedBatches:             e.batches.Load(),
			QueryCacheHits:          e.cacheHits.Load(),
			QueryCacheMisses:        e.cacheMisses.Load(),
			QueryCacheRevalidations: e.cacheRevals.Load(),
		},
		Streams: snapshot.EncodeStreams(streams),
		Index:   snapshot.EncodeIndex(ixState),
	}
}

// WriteSnapshot serialises the engine's live serving state — open
// stream fragments, the live m-semantics store, pipeline counters —
// in the versioned c2mn-snapshot format. The snapshot records the
// venue's identity (space and model hashes), so RestoreSnapshot can
// refuse to load it into a venue it was not captured from. Use
// VenueRegistry.SnapshotVenue for atomic on-disk snapshots.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	return snapshot.Write(w, e.snapshotFile(time.Now().Unix()))
}

// RestoreSnapshot installs a snapshot written by WriteSnapshot,
// resuming the captured sliding windows: the store answers queries
// warm and restored streams continue segmenting where they left off
// (same open fragments, same "#k" numbering). Failure modes are
// typed: ErrSnapshotVersion (future format), ErrSnapshotCorrupt
// (truncated or checksum-failed file), ErrSnapshotMismatch (snapshot
// of a different venue, space, model or η/ψ/retention configuration)
// and ErrSnapshotConflict (the engine already has live state). On any
// failure the engine is left unchanged.
func (e *Engine) RestoreSnapshot(r io.Reader) error {
	f, err := snapshot.Read(r)
	if err != nil {
		return wrapSnapshotError(err)
	}
	return e.restoreFile(f)
}

// wrapSnapshotError maps the snapshot package's sentinels onto the
// public typed errors; other errors (e.g. os.ErrNotExist from a
// missing file) pass through matchable.
func wrapSnapshotError(err error) error {
	switch {
	case errors.Is(err, snapshot.ErrVersion):
		return fmt.Errorf("%w: %w", ErrSnapshotVersion, err)
	case errors.Is(err, snapshot.ErrFormat), errors.Is(err, snapshot.ErrCorrupt):
		return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	default:
		return err
	}
}

// restoreFile guards and installs a decoded snapshot; see
// RestoreSnapshot for the contract.
func (e *Engine) restoreFile(f *snapshot.File) error {
	if f.Venue != e.venue {
		return snapshotMismatch("snapshot is of venue %q, engine serves %q", f.Venue, e.venue)
	}
	spaceH, modelH := e.ann.hashes()
	if f.SpaceHash != spaceH {
		return snapshotMismatch("venue %q: space hash %.12s.., snapshot captured %.12s..", e.venue, spaceH, f.SpaceHash)
	}
	if f.ModelHash != modelH {
		return snapshotMismatch("venue %q: model hash %.12s.., snapshot captured %.12s.. (retrained model?)",
			e.venue, modelH, f.ModelHash)
	}
	if f.Engine.Eta != e.eta || f.Engine.Psi != e.psi || f.Engine.Retention != e.retention {
		return snapshotMismatch("venue %q: engine configured (η=%g, ψ=%g, retention=%g), snapshot captured (η=%g, ψ=%g, retention=%g)",
			e.venue, e.eta, e.psi, e.retention, f.Engine.Eta, f.Engine.Psi, f.Engine.Retention)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if seqs, _ := e.store.Len(); e.fed > 0 || e.emitted.Load() > 0 || e.streams.Len() > 0 || seqs > 0 {
		return fmt.Errorf("%w: venue %q already ingested traffic (%d records fed, %d sequences stored)",
			ErrSnapshotConflict, e.venue, e.fed, seqs)
	}
	// Validate the stream section on a scratch set before touching the
	// engine, so a bad snapshot cannot leave it half-restored.
	streams := seq.NewStreamSet(e.eta, e.psi)
	if err := streams.RestoreState(snapshot.DecodeStreams(f.Streams)); err != nil {
		return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	// The store is empty (freshness above), so a failed index restore
	// leaves it empty — still unchanged.
	if err := e.store.RestoreState(snapshot.DecodeIndex(f.Index)); err != nil {
		return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	e.streams = streams
	// Memoized answers predate the restore; the restored store's jumped
	// generation guarantees they could never match again, so dropping
	// them only reclaims the memory.
	e.qcacheMu.Lock()
	e.qcache.Purge()
	e.qcacheMu.Unlock()
	e.fed = f.Engine.FedRecords
	e.emitted.Store(f.Engine.EmittedSequences)
	e.batches.Store(f.Engine.FeedBatches)
	e.cacheHits.Store(f.Engine.QueryCacheHits)
	e.cacheMisses.Store(f.Engine.QueryCacheMisses)
	e.cacheRevals.Store(f.Engine.QueryCacheRevalidations)
	return nil
}

// EngineStats is a point-in-time view of the streaming pipeline.
type EngineStats struct {
	// FedRecords counts records accepted by Feed.
	FedRecords int64
	// PendingObjects counts objects with a buffered open fragment.
	PendingObjects int
	// PendingRecords counts records buffered in open fragments.
	PendingRecords int
	// EmittedSequences counts ms-sequences emitted so far.
	EmittedSequences int64
	// FeedBatches counts the pooled-state acquisitions the streaming
	// path made; EmittedSequences/FeedBatches is the mean coalesced
	// micro-batch size (1.0 when feeds never overlap).
	FeedBatches int64
	// StoredSequences and StoredSemantics size the live store (after
	// retention eviction).
	StoredSequences int
	StoredSemantics int
	// QueryCacheHits and QueryCacheMisses count generation-keyed result
	// cache lookups; hits/(hits+misses) is the cache hit ratio.
	QueryCacheHits   int64
	QueryCacheMisses int64
	// QueryCacheRevalidations counts conditional HTTP requests answered
	// 304 off the generation validator (the serving tier's cache hits).
	QueryCacheRevalidations int64
	// StoreNotifications counts generation-move signals delivered to the
	// change notifier (see WithChangeNotifier) — the push plane's event
	// source. Zero when no notifier is installed. Like the cache
	// counters it is process-local operational state: snapshots neither
	// persist nor restore it.
	StoreNotifications int64
}

// Add accumulates o into s field by field — the fleet totals both
// serving tiers report on /v1/stats. A counter left out here silently
// vanishes from those totals; TestEngineStatsAddCoversEveryField
// fails on the omission.
func (s *EngineStats) Add(o EngineStats) {
	s.FedRecords += o.FedRecords
	s.PendingObjects += o.PendingObjects
	s.PendingRecords += o.PendingRecords
	s.EmittedSequences += o.EmittedSequences
	s.FeedBatches += o.FeedBatches
	s.StoredSequences += o.StoredSequences
	s.StoredSemantics += o.StoredSemantics
	s.QueryCacheHits += o.QueryCacheHits
	s.QueryCacheMisses += o.QueryCacheMisses
	s.QueryCacheRevalidations += o.QueryCacheRevalidations
	s.StoreNotifications += o.StoreNotifications
}

// Stats reports the streaming pipeline's counters.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		EmittedSequences:        e.emitted.Load(),
		FeedBatches:             e.batches.Load(),
		QueryCacheHits:          e.cacheHits.Load(),
		QueryCacheMisses:        e.cacheMisses.Load(),
		QueryCacheRevalidations: e.cacheRevals.Load(),
		StoreNotifications:      e.notified.Load(),
	}
	e.mu.Lock()
	st.FedRecords = e.fed
	st.PendingObjects, st.PendingRecords = e.streams.Pending()
	e.mu.Unlock()
	st.StoredSequences, st.StoredSemantics = e.store.Len()
	return st
}
