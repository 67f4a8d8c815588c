package core

import (
	"math"
	"math/rand"

	"c2mn/internal/features"
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// Workspace holds every mutable buffer one inference run needs — the
// R/E label slices, the candidate logits, feature scratch vectors and
// a maintained running score — so that repeated annotation reuses the
// same memory. A zero Workspace is ready to use; Annotate grows the
// buffers to the bound sequence and performs no steady-state
// allocation beyond the returned labels.
//
// The running score is updated incrementally: every accepted move adds
// the exact Markov-blanket score delta of that move. The label runs of
// the current configuration are maintained state too: ix is built once
// by Reset and repaired only by the moves that are actually applied
// (applyRegionMove, applyEventMove, applyBlockMove and the annealer's
// sampled moves), so the scoring kernels look segment extents up
// instead of rescanning them for every candidate.
//
// A Workspace is not safe for concurrent use. The public layer keeps a
// sync.Pool of them, one handed to each annotation worker.
type Workspace struct {
	m   *Model
	ctx *features.SeqContext

	// score is the running w·f(P, R, E) of the current configuration.
	score     float64
	initScore float64

	// R/E are the current configuration; initR/initE preserve the
	// deterministic initialisation for the annealed restart; bestR/bestE
	// hold the best fixed point found so far.
	R     []indoor.RegionID
	E     []seq.Event
	ix    features.RunIndex // run extents of (R, E); its setters write R/E
	initR []indoor.RegionID
	initE []seq.Event
	bestR []indoor.RegionID
	bestE []seq.Event

	// Scratch: per-candidate feature buffers, logits and the raw
	// (untempered) potentials of the annealed sweeps.
	buf    []float64
	logits []float64
	raw    []float64
	scores []float64
	tried  []indoor.RegionID

	// Convergence worklists. dirtyR[i]/dirtyE[i] mark nodes whose
	// Markov blanket may have changed since their last ICM evaluation;
	// clean nodes re-evaluate to the same argmax, so sweeps skip them
	// without changing the move sequence. dirtyB[i] is the analogous
	// flag for block-ICM run pricing: a run all of whose nodes are
	// clean re-prices to the same (non-improving) deltas and is
	// skipped. Every accepted move re-marks a conservative superset of
	// its influence range, so the invariant "clean ⟹ conditional
	// unchanged since last evaluation" holds across phases.
	dirtyR []bool
	dirtyE []bool
	dirtyB []bool

	stats SweepStats
}

// SweepStats counts the work of one Annotate: what the worklists let
// through and what the search accepted.
type SweepStats struct {
	// Sweeps and BlockSweeps count node-level and run-level passes.
	Sweeps, BlockSweeps int
	// RegionEvals and EventEvals count node evaluations (one scoring of
	// all candidates of a node); RunPricings counts (run, label) pairs
	// priced by block moves.
	RegionEvals, EventEvals, RunPricings int
	// RegionMoves, EventMoves and BlockMoves count accepted (or, while
	// annealing, sampled) label changes.
	RegionMoves, EventMoves, BlockMoves int
}

// Stats returns the work counters of the last Annotate.
func (ws *Workspace) Stats() SweepStats { return ws.stats }

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset binds the workspace to a model and a prepared sequence
// context, loads the deterministic initialisation (maximum-overlap
// regions, density-tag events) into R/E and computes the starting
// score with one full feature pass — the only full pass of the run.
func (ws *Workspace) Reset(m *Model, ctx *features.SeqContext) {
	n := ctx.Len()
	ws.m, ws.ctx = m, ctx
	ws.R = grow(ws.R, n)
	ws.E = grow(ws.E, n)
	ws.initR = grow(ws.initR, n)
	ws.initE = grow(ws.initE, n)
	ws.bestR = grow(ws.bestR, n)
	ws.bestE = grow(ws.bestE, n)
	ws.buf = grow(ws.buf, features.Dim)
	ws.scores = grow(ws.scores, seq.NumEvents)
	ws.dirtyR = grow(ws.dirtyR, n)
	ws.dirtyE = grow(ws.dirtyE, n)
	ws.dirtyB = grow(ws.dirtyB, n)
	ws.markAllDirty()
	ws.stats = SweepStats{}
	InitRegionsInto(ctx, ws.R)
	InitEventsInto(ctx, ws.E)
	ws.ix.Reset(ctx, ws.R, ws.E)
	copy(ws.initR, ws.R)
	copy(ws.initE, ws.E)
	ctx.TotalFeatures(ws.R, ws.E, ws.buf)
	ws.score = dot(m.Weights, ws.buf)
	ws.initScore = ws.score
}

// load replaces the current configuration wholesale and re-indexes it.
func (ws *Workspace) load(R []indoor.RegionID, E []seq.Event, score float64) {
	copy(ws.R, R)
	copy(ws.E, E)
	ws.score = score
	ws.ix.Reset(ws.ctx, ws.R, ws.E)
}

// Score returns the running score of the current configuration. It
// equals m.Score(ctx, R, E) up to floating-point association, which
// the workspace tests assert.
func (ws *Workspace) Score() float64 { return ws.score }

// Labels returns a copy of the current configuration that outlives the
// workspace.
func (ws *Workspace) Labels() seq.Labels {
	return seq.Labels{
		Regions: append([]indoor.RegionID{}, ws.R...),
		Events:  append([]seq.Event{}, ws.E...),
	}
}

// Annotate runs the full inference pipeline of Model.Annotate on the
// workspace's buffers and returns an owned copy of the best labels.
func (ws *Workspace) Annotate(m *Model, ctx *features.SeqContext, opts InferOptions) seq.Labels {
	ws.annotate(m, ctx, opts)
	return ws.Labels()
}

// annotate is Annotate leaving the result in ws.R/ws.E (and ws.score)
// without copying it out; the windowed path reads it in place.
func (ws *Workspace) annotate(m *Model, ctx *features.SeqContext, opts InferOptions) {
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = 20
	}
	ws.Reset(m, ctx)
	if ctx.Len() == 0 {
		return
	}

	// First candidate: ICM from the deterministic initialisation.
	ws.icm(opts.MaxSweeps)
	ws.blockICM(opts.MaxSweeps)

	// Second candidate: annealed Gibbs from the initialisation, then
	// ICM; keep whichever fixed point scores higher. The annealing
	// escapes local optima near region boundaries that greedy ICM
	// cannot leave.
	if opts.AnnealSweeps > 0 {
		bestScore := ws.score
		copy(ws.bestR, ws.R)
		copy(ws.bestE, ws.E)
		ws.load(ws.initR, ws.initE, ws.initScore)
		ws.anneal(opts)
		ws.icm(opts.MaxSweeps)
		ws.blockICM(opts.MaxSweeps)
		if !(ws.score > bestScore) {
			ws.load(ws.bestR, ws.bestE, bestScore)
		}
	}
}

// icm runs coordinate-ascent sweeps over R and E in place until a
// fixed point; every accepted move increases the running score by its
// exact Markov-blanket delta (the local feature deltas equal the
// global ones), so the loop terminates.
//
// Sweeps are convergence-aware: only dirty nodes are re-evaluated. A
// clean node's conditional scores are unchanged since its last
// evaluation, where it did not move (a moved node's own conditional
// never depends on its own label, so the move itself keeps it clean),
// so skipping it preserves the exact move sequence — and therefore the
// exact labels — of the full sweep. MaxSweeps stays a ceiling with
// identical counting: a sweep over an all-clean worklist makes zero
// moves and terminates exactly where a full no-move sweep would.
func (ws *Workspace) icm(maxSweeps int) {
	ctx, w, ix := ws.ctx, ws.m.Weights, &ws.ix
	R, E, buf := ws.R, ws.E, ws.buf
	n := ctx.Len()
	for sweep := 0; sweep < maxSweeps; sweep++ {
		ws.stats.Sweeps++
		changed := false
		for i := 0; i < n; i++ {
			if !ws.dirtyR[i] {
				continue
			}
			ws.dirtyR[i] = false
			cands := ctx.Candidates[i]
			if len(cands) == 0 {
				continue
			}
			ws.scores = grow(ws.scores, len(cands))
			scores := ws.scores[:len(cands)]
			ws.stats.RegionEvals++
			ix.RegionCandScores(w, i, scores)
			cur := R[i]
			best, bestV := cur, math.Inf(-1)
			curV := math.Inf(-1)
			for k, r := range cands {
				v := scores[k]
				if r == cur {
					curV = v
				}
				if v > bestV {
					best, bestV = r, v
				}
			}
			if best != cur {
				if math.IsInf(curV, -1) {
					// The current label came from a block move over a
					// neighbour's candidate set and is not in this
					// record's; score it explicitly for the delta.
					ctx.LocalRegionFeatures(R, E, i, cur, buf)
					curV = dot(w, buf)
				}
				ws.applyRegionMove(i, best)
				ws.score += bestV - curV
				changed = true
			}
		}
		for i := 0; i < n; i++ {
			if !ws.dirtyE[i] {
				continue
			}
			ws.dirtyE[i] = false
			scores := ws.scores[:seq.NumEvents]
			ws.stats.EventEvals++
			ix.EventCandScores(w, i, scores)
			cur := E[i]
			best, bestV := cur, math.Inf(-1)
			curV := 0.0
			for e := 0; e < seq.NumEvents; e++ {
				v := scores[e]
				if seq.Event(e) == cur {
					curV = v
				}
				if v > bestV {
					best, bestV = seq.Event(e), v
				}
			}
			if best != cur {
				ws.applyEventMove(i, best)
				ws.score += bestV - curV
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// markAllDirty re-arms every worklist, used after Reset and after the
// annealed sweeps rewrote the configuration wholesale.
func (ws *Workspace) markAllDirty() {
	for i := range ws.dirtyR {
		ws.dirtyR[i] = true
	}
	for i := range ws.dirtyE {
		ws.dirtyE[i] = true
	}
	for i := range ws.dirtyB {
		ws.dirtyB[i] = true
	}
}

// markRange marks nodes in [lo, hi] (clamped) dirty on all worklists.
func (ws *Workspace) markRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi >= len(ws.dirtyR) {
		hi = len(ws.dirtyR) - 1
	}
	for x := lo; x <= hi; x++ {
		ws.dirtyR[x] = true
		ws.dirtyE[x] = true
		ws.dirtyB[x] = true
	}
}

// applyRegionMove assigns R[i] = r and marks the conservative
// influence range of the move: the union of the old and new region-run
// spans around i, each extended by the adjacent run and one node, plus
// the event run around i (whose segmentation statistics read region
// labels) extended by one node.
func (ws *Workspace) applyRegionMove(i int, r indoor.RegionID) {
	ix := &ws.ix
	loO, hiO := ix.RegionReach(ix.RegionRun(i))
	ix.SetRegion(i, r)
	loN, hiN := ix.RegionReach(ix.RegionRun(i))
	ea, eb := ix.EventRun(i)
	ws.markRange(min(loO, loN, ea)-1, max(hiO, hiN, eb)+1)
	ws.stats.RegionMoves++
}

// applyEventMove is the event-label analogue of applyRegionMove: the
// influence range unions the old and new event-run spans (extended by
// the adjacent run and one node) with the region run around i.
func (ws *Workspace) applyEventMove(i int, e seq.Event) {
	ix := &ws.ix
	loO, hiO := ix.EventReach(ix.EventRun(i))
	ix.SetEvent(i, e)
	loN, hiN := ix.EventReach(ix.EventRun(i))
	ra, rb := ix.RegionRun(i)
	ws.markRange(min(loO, loN, ra)-1, max(hiO, hiN, rb)+1)
	ws.stats.EventMoves++
}

// applyBlockMove relabels the segment [a, b] to r and marks its
// influence range, mirroring applyRegionMove with the whole segment as
// the changed span.
func (ws *Workspace) applyBlockMove(a, b int, r indoor.RegionID) {
	ix := &ws.ix
	loO, hiO := ix.RegionReach(a, b)
	ix.SetRegionRun(a, b, r)
	loN, hiN := ix.RegionReach(ix.RegionRun(a))
	ea, _ := ix.EventRun(a)
	_, eb := ix.EventRun(b)
	ws.markRange(min(loO, loN, ea)-1, max(hiO, hiN, eb)+1)
	ws.stats.BlockMoves++
}

// blockICM interleaves run-level region moves with node-level sweeps:
// each maximal same-region run is tentatively relabeled as a whole to
// every candidate of its records, keeping score-improving moves.
// Single-node ICM cannot make these moves once transition potentials
// lock a run into a uniform (possibly wrong) label; relabeling the
// block escapes that local optimum. All tentative labels of a run are
// priced by one RunIndex.RegionRunCandScores call on the run's Markov
// blanket instead of full O(n·Dim) rescores. Every accepted move
// increases the running score, so the procedure terminates.
func (ws *Workspace) blockICM(maxSweeps int) {
	ctx, w, ix := ws.ctx, ws.m.Weights, &ws.ix
	R := ws.R
	n := ctx.Len()
	if n == 0 {
		return
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		ws.stats.BlockSweeps++
		improved := false
		for a := 0; a < n; {
			// The segment starts at a even when a move just merged the
			// preceding run into this one.
			_, b := ix.RegionRun(a)
			// Skip runs whose Markov blanket is untouched since they were
			// last priced: the same extent re-prices to the same
			// non-improving deltas, so the full sweep would make no move
			// here either.
			dirty := false
			for x := a; x <= b; x++ {
				if ws.dirtyB[x] {
					dirty = true
				}
				ws.dirtyB[x] = false
			}
			if !dirty {
				a = b + 1
				continue
			}
			orig := R[a]
			// Candidate labels: union over the run's records.
			tried := append(ws.tried[:0], orig)
			for x := a; x <= b; x++ {
				for _, r := range ctx.Candidates[x] {
					if !containsRegion(tried, r) {
						tried = append(tried, r)
					}
				}
			}
			ws.tried = tried
			labels := tried[1:]
			ws.scores = grow(ws.scores, len(labels))
			deltas := ws.scores[:len(labels)]
			ws.stats.RunPricings += len(labels)
			ix.RegionRunCandScores(w, a, b, labels, deltas)
			bestLabel, bestDelta := orig, 0.0
			for k, d := range deltas {
				if d > bestDelta {
					bestLabel, bestDelta = labels[k], d
				}
			}
			if bestLabel != orig {
				ws.applyBlockMove(a, b, bestLabel)
				ws.score += bestDelta
				improved = true
			}
			a = b + 1
		}
		if !improved {
			break
		}
		// Let node-level moves refine boundaries after block changes.
		ws.icm(maxSweeps)
	}
}

// anneal runs tempered Gibbs sweeps over R and E in place, keeping the
// running score in step with every sampled move. Every node is visited
// every sweep — the sampler's RNG stream is part of the deterministic
// contract, so no convergence skipping applies here — but each visit
// prices its candidates through the fused fast-score path, which
// produces bitwise-identical raw potentials and therefore an identical
// sample stream. The wholesale rewrite invalidates the ICM worklists,
// so anneal ends by re-arming them.
func (ws *Workspace) anneal(opts InferOptions) {
	ctx, w, ix := ws.ctx, ws.m.Weights, &ws.ix
	R, E, buf := ws.R, ws.E, ws.buf
	n := ctx.Len()
	rng := rand.New(rand.NewSource(opts.Seed + 0x5eed))
	for sweep := 0; sweep < opts.AnnealSweeps; sweep++ {
		temp := 2.0 * float64(opts.AnnealSweeps-sweep) / float64(opts.AnnealSweeps)
		for i := 0; i < n; i++ {
			cands := ctx.Candidates[i]
			if len(cands) > 1 {
				ws.raw = grow(ws.raw, len(cands))
				ws.logits = grow(ws.logits, len(cands))
				raw := ws.raw[:len(cands)]
				logits := ws.logits[:len(cands)]
				ws.stats.RegionEvals++
				ix.RegionCandScores(w, i, raw)
				rawOld := math.Inf(-1)
				maxL := math.Inf(-1)
				for k, r := range cands {
					rv := raw[k]
					if r == R[i] {
						rawOld = rv
					}
					v := rv / temp
					logits[k] = v
					if v > maxL {
						maxL = v
					}
				}
				normalizeExp(logits, maxL)
				k := sampleIndex(logits, rng)
				if cands[k] != R[i] {
					if math.IsInf(rawOld, -1) {
						ctx.LocalRegionFeatures(R, E, i, R[i], buf)
						rawOld = dot(w, buf)
					}
					ix.SetRegion(i, cands[k])
					ws.stats.RegionMoves++
					ws.score += raw[k] - rawOld
				}
			}
			ws.raw = grow(ws.raw, seq.NumEvents)
			ws.logits = grow(ws.logits, seq.NumEvents)
			raw := ws.raw[:seq.NumEvents]
			logits := ws.logits[:seq.NumEvents]
			ws.stats.EventEvals++
			ix.EventCandScores(w, i, raw)
			rawOld := 0.0
			maxL := math.Inf(-1)
			for e := 0; e < seq.NumEvents; e++ {
				rv := raw[e]
				if seq.Event(e) == E[i] {
					rawOld = rv
				}
				v := rv / temp
				logits[e] = v
				if v > maxL {
					maxL = v
				}
			}
			normalizeExp(logits, maxL)
			k := sampleIndex(logits, rng)
			if seq.Event(k) != E[i] {
				ix.SetEvent(i, seq.Event(k))
				ws.stats.EventMoves++
				ws.score += raw[k] - rawOld
			}
		}
	}
	ws.markAllDirty()
}

// AnnotateWindowed is Model.AnnotateWindowed on reusable buffers: ctx
// is re-bound to each chunk in turn and ws annotates it, so a pooled
// (ctx, ws) pair serves day-long sequences without per-chunk
// allocation beyond the output labels.
func (ws *Workspace) AnnotateWindowed(m *Model, ctx *features.SeqContext, p *seq.PSequence, opts WindowOptions) seq.Labels {
	opts = opts.fill()
	n := p.Len()
	if n <= opts.Window+2*opts.Overlap {
		ctx.Reset(p, nil)
		return ws.Annotate(m, ctx, opts.Infer)
	}
	out := seq.NewLabels(n)
	chunk := seq.PSequence{ObjectID: p.ObjectID}
	for start := 0; start < n; start += opts.Window {
		end := start + opts.Window
		if end > n {
			end = n
		}
		lo := start - opts.Overlap
		if lo < 0 {
			lo = 0
		}
		hi := end + opts.Overlap
		if hi > n {
			hi = n
		}
		chunk.Records = p.Records[lo:hi]
		ctx.Reset(&chunk, nil)
		ws.annotate(m, ctx, opts.Infer)
		copy(out.Regions[start:end], ws.R[start-lo:end-lo])
		copy(out.Events[start:end], ws.E[start-lo:end-lo])
	}
	return out
}

func containsRegion(rs []indoor.RegionID, r indoor.RegionID) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// grow returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
