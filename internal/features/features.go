// Package features implements the eight clique-template feature
// functions of the paper's Table II, their aggregation into empirical
// feature vectors, and the exact node-local ("Markov blanket") feature
// computation that the learning and inference procedures of C2MN rely
// on.
//
// The weight vector w has Dim = 12 components:
//
//	index 0      fsm  — spatial matching          (matching, region)
//	index 1      fem  — event matching            (matching, event)
//	index 2      fst  — space transition          (transition, region)
//	index 3      fet  — event transition          (transition, event)
//	index 4      fsc  — spatial consistency       (synchronization, region)
//	index 5      fec  — event consistency         (synchronization, event)
//	index 6..8   fes  — event-based segmentation  (segmentation, 3 features)
//	index 9..11  fss  — space-based segmentation  (segmentation, 3 features)
//
// Segmentation feature values are normalised to [-1, 1] by run length
// (the paper states fes/fss values "need to be normalized" without
// fixing the scheme; per-record normalisation keeps every feature
// bounded regardless of sequence length).
package features

import (
	"fmt"
	"math"

	"c2mn/internal/cluster"
	"c2mn/internal/geom"
	"c2mn/internal/indoor"
	"c2mn/internal/seq"
)

// Weight vector layout.
const (
	IdxSM = 0 // spatial matching
	IdxEM = 1 // event matching
	IdxST = 2 // space transition
	IdxET = 3 // event transition
	IdxSC = 4 // spatial consistency
	IdxEC = 5 // event consistency
	IdxES = 6 // event-based segmentation (3 components)
	IdxSS = 9 // space-based segmentation (3 components)

	// Dim is the dimensionality of the weight vector.
	Dim = 12
)

// Names returns human-readable names for the weight components.
func Names() [Dim]string {
	return [Dim]string{
		"fsm", "fem", "fst", "fet", "fsc", "fec",
		"fes.regions", "fes.speed", "fes.turns",
		"fss.eventRuns", "fss.eventChanges", "fss.boundaryPass",
	}
}

// CliqueSet selects which clique templates are active; ablations of
// §V-A (C2MN/Tran, /Syn, /ES, /SS and CMN) disable subsets.
type CliqueSet uint8

// Clique template groups.
const (
	Matching CliqueSet = 1 << iota
	Transition
	Synchronization
	SegmentationES
	SegmentationSS

	// AllCliques enables the complete C2MN structure.
	AllCliques = Matching | Transition | Synchronization | SegmentationES | SegmentationSS
)

// Has reports whether all cliques in q are enabled.
func (c CliqueSet) Has(q CliqueSet) bool { return c&q == q }

// Params holds the feature hyper-parameters. The defaults follow the
// paper's tuned real-data values (§V-B1).
type Params struct {
	// V is the uncertainty-region radius of fsm, meters.
	V float64
	// Alpha and Beta are the fem constants for border points,
	// 0 < Beta < Alpha < 1.
	Alpha, Beta float64
	// GammaST is the fst distance scale in (0,1).
	GammaST float64
	// GammaEC is the fec/fes speed scale.
	GammaEC float64
	// TimeDecayST is the optional γ' of Eq. 4's time-decay extension;
	// zero disables it.
	TimeDecayST float64
	// TimeDecaySC is the optional γ'' of Eq. 5's time-decay extension;
	// zero disables it.
	TimeDecaySC float64
	// Cluster parameterises the st-DBSCAN pass that tags record
	// densities for fem.
	Cluster cluster.Params
	// Cliques selects the active clique templates.
	Cliques CliqueSet
	// RegionPrior optionally holds a per-region popularity multiplier
	// for fsm, indexed by RegionID and normalised to max 1 — the
	// paper's §III-B (1) alternative design ("include the normalized
	// historical region frequency as a multiplier"). Empty disables
	// the prior.
	RegionPrior []float64
}

// DefaultParams returns the paper's tuned configuration: v = 15 m,
// α = 0.8, β = 0.6, γst = 0.1, γec = 0.2, st-DBSCAN(εs = 8 m,
// εt = 60 s, ptm = 4), all cliques enabled.
func DefaultParams() Params {
	return Params{
		V:       15,
		Alpha:   0.8,
		Beta:    0.6,
		GammaST: 0.1,
		GammaEC: 0.2,
		Cluster: cluster.Params{EpsS: 8, EpsT: 60, MinPts: 4},
		Cliques: AllCliques,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.V <= 0 {
		return fmt.Errorf("features: V must be positive, got %g", p.V)
	}
	if !(0 < p.Beta && p.Beta < p.Alpha && p.Alpha < 1) {
		return fmt.Errorf("features: need 0 < beta < alpha < 1, got alpha=%g beta=%g", p.Alpha, p.Beta)
	}
	if p.GammaST <= 0 || p.GammaST >= 1 {
		return fmt.Errorf("features: GammaST must be in (0,1), got %g", p.GammaST)
	}
	if p.GammaEC <= 0 {
		return fmt.Errorf("features: GammaEC must be positive, got %g", p.GammaEC)
	}
	return p.Cluster.Validate()
}

// Extractor computes features against one indoor space.
type Extractor struct {
	Space  *indoor.Space
	Params Params

	// cache is the venue geometry memoization for radius Params.V:
	// grid-quantized candidate lookup plus precomputed centroids and
	// adjacency. Built once per (Space, V) by NewExtractor; nil on
	// hand-assembled Extractors, which fall back to the R-tree path.
	cache *indoor.SpaceCache
	// stExp[ra*nr+rb] is the precomputed fst kernel
	// exp(−γst·E[dI(ra,rb)]): 1 on the diagonal (identical labels score
	// 1 by definition), 0 for unreachable pairs. With it the space
	// transition feature is a single array lookup per edge.
	stExp []float64
	nr    int
}

// NewExtractor builds an Extractor after validating params, together
// with the venue-level memoizations the inference hot path leans on:
// the geometry cache for Params.V and the fst distance-kernel matrix.
func NewExtractor(space *indoor.Space, params Params) (*Extractor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ex := &Extractor{Space: space, Params: params}
	ex.cache = space.GeometryCache(params.V)
	nr := space.NumRegions()
	ex.nr = nr
	ex.stExp = make([]float64, nr*nr)
	for a := 0; a < nr; a++ {
		for b := 0; b < nr; b++ {
			if a == b {
				ex.stExp[a*nr+b] = 1
				continue
			}
			d := space.RegionDist(indoor.RegionID(a), indoor.RegionID(b))
			if math.IsInf(d, 1) {
				continue // unreachable pairs keep the zero value
			}
			ex.stExp[a*nr+b] = math.Exp(-params.GammaST * d)
		}
	}
	return ex, nil
}

// Cache returns the extractor's venue geometry cache (nil on
// hand-assembled extractors that skipped NewExtractor).
func (ex *Extractor) Cache() *indoor.SpaceCache { return ex.cache }

// SeqContext caches the label-independent computations for one
// p-sequence: density tags, candidate regions, fsm overlaps, distance
// and turn prefix sums.
//
// A SeqContext has a reset-and-reuse lifecycle: Reset re-binds it to a
// new p-sequence, reusing every internal buffer (candidate arenas,
// density tags, clustering scratch, prefix sums), so a pooled context
// performs zero steady-state allocation per sequence. A SeqContext is
// not safe for concurrent use.
type SeqContext struct {
	Ex *Extractor
	P  *seq.PSequence

	// Density holds each record's st-DBSCAN tag.
	Density []cluster.Density
	// Candidates holds each record's candidate region labels.
	Candidates [][]indoor.RegionID

	// overlap[i][k] is fsm(θi, Candidates[i][k]).
	overlap [][]float64
	// dist[i] is dE(θi.l, θi+1.l); n-1 entries.
	dist []float64
	// dt[i] is θi+1.t − θi.t; n-1 entries.
	dt []float64
	// speedNorm[i] is min(1, γec · dist[i]/dt[i]); n-1 entries.
	speedNorm []float64
	// distCum[k] = Σ_{x<k} dist[x]; n entries.
	distCum []float64
	// turnCum[k] = number of turn points among 1..k; n entries.
	turnCum []int

	// Reusable backing storage. candArena/ovArena hold every record's
	// candidates/overlaps contiguously; candOff[i] is record i's offset
	// (n+1 entries). Candidates/overlap above are re-sliced views into
	// the arenas on every Reset.
	candArena      []indoor.RegionID
	candOff        []int
	ovArena        []float64
	pts            []cluster.Point
	clusterRes     cluster.Result
	clusterScratch cluster.Scratch
	// seenScratch and seenScratch2 back the distinct-region counts of ES.
	seenScratch, seenScratch2 []indoor.RegionID
	// idsScratch backs the R-tree lookups of the candidate search.
	idsScratch []int

	// Per-edge memos for the fused scoring path (fastscore.go).
	// ecExp[3i+s] = exp(−|speedNorm[i] − s/2|), the three possible fec
	// values of edge i (s = passInd(ea)+passInd(eb) ∈ {0,1,2}).
	ecExp []float64
	// stDecay/scDecay are the optional per-edge time-decay multipliers
	// exp(−γ'·Δt) of fst/fsc; empty when the decay is disabled.
	stDecay []float64
	scDecay []float64
	// scMemo holds the fsc values of edge i at scOff[i], one per pair of
	// candidate slots (row-major, Candidates[i] × Candidates[i+1]); −1
	// marks a pair not computed yet.
	scMemo []float64
	scOff  []int
	// scoreBuf is the Dim-vector the fused path assembles feature
	// values into before the dot product; runOld holds the old side of a
	// block move's per-record differences.
	scoreBuf []float64
	runOld   []float64
}

// NewSeqContext precomputes the context of one p-sequence. When
// truth is non-nil its regions are force-included in the candidate
// sets so that training labels are always representable.
func (ex *Extractor) NewSeqContext(p *seq.PSequence, truth []indoor.RegionID) *SeqContext {
	c := &SeqContext{Ex: ex}
	c.Reset(p, truth)
	return c
}

// Reset re-binds the context to a new p-sequence, recomputing every
// cached quantity while reusing the context's internal buffers. The
// semantics are identical to building a fresh context with
// NewSeqContext; c.Ex must be set.
func (c *SeqContext) Reset(p *seq.PSequence, truth []indoor.RegionID) {
	ex := c.Ex
	n := p.Len()
	c.P = p
	c.Candidates = growSlice(c.Candidates, n)
	c.overlap = growSlice(c.overlap, n)
	c.dist = growSlice(c.dist, max(0, n-1))
	c.dt = growSlice(c.dt, max(0, n-1))
	c.speedNorm = growSlice(c.speedNorm, max(0, n-1))
	c.distCum = growSlice(c.distCum, n)
	c.turnCum = growSlice(c.turnCum, n)
	c.candOff = growSlice(c.candOff, n+1)

	// st-DBSCAN density tags.
	c.pts = growSlice(c.pts, n)
	for i, rec := range p.Records {
		c.pts[i] = cluster.Point{X: rec.Loc.X, Y: rec.Loc.Y, Floor: rec.Loc.Floor, T: rec.T}
	}
	if err := cluster.RunScratch(c.pts, ex.Params.Cluster, &c.clusterRes, &c.clusterScratch); err != nil {
		// Params were validated at construction; this is unreachable
		// except for programmer error.
		panic(fmt.Sprintf("features: st-DBSCAN: %v", err))
	}
	c.Density = c.clusterRes.Tag

	// Candidate regions into the arena. The views are sliced out only
	// after the arena stops growing: an append inside the loop may move
	// the backing array. The venue geometry cache answers the lookup
	// with one grid-cell probe when it matches the configured radius;
	// the R-tree path is the fallback and returns identical slices.
	cache := ex.cache
	if cache != nil && cache.V != ex.Params.V {
		cache = nil
	}
	c.candArena = c.candArena[:0]
	for i, rec := range p.Records {
		c.candOff[i] = len(c.candArena)
		if cache != nil {
			c.candArena = cache.CandidateRegions(rec.Loc, c.candArena)
		} else {
			c.candArena, c.idsScratch = ex.Space.CandidateRegionsScratch(rec.Loc, ex.Params.V, c.candArena, c.idsScratch)
		}
		if truth != nil && truth[i] != indoor.NoRegion && !containsRegion(c.candArena[c.candOff[i]:], truth[i]) {
			c.candArena = insertRegion(c.candArena, c.candOff[i], truth[i])
		}
	}
	c.candOff[n] = len(c.candArena)

	// fsm overlaps, arena-backed like the candidates.
	c.ovArena = growSlice(c.ovArena, len(c.candArena))
	for i, rec := range p.Records {
		lo, hi := c.candOff[i], c.candOff[i+1]
		c.Candidates[i] = c.candArena[lo:hi:hi]
		ov := c.ovArena[lo:hi:hi]
		for k, r := range c.Candidates[i] {
			ov[k] = ex.Space.UncertaintyOverlap(rec.Loc, ex.Params.V, r)
		}
		c.overlap[i] = ov
	}

	// Pairwise distances, times and speeds.
	for i := 0; i+1 < n; i++ {
		a, b := p.Records[i], p.Records[i+1]
		c.dist[i] = a.Loc.Dist(b.Loc)
		c.dt[i] = b.T - a.T
		speed := 0.0
		if c.dt[i] > 0 {
			speed = c.dist[i] / c.dt[i]
		}
		c.speedNorm[i] = math.Min(1, ex.Params.GammaEC*speed)
	}

	// Per-edge memos for the fused scoring path: the three possible fec
	// values per edge and the optional fst/fsc time-decay multipliers.
	// Each stores exactly the value the reference feature function
	// computes, so fused scores stay bitwise-identical.
	c.ecExp = growSlice(c.ecExp, 3*max(0, n-1))
	for i := 0; i+1 < n; i++ {
		c.ecExp[3*i] = math.Exp(-math.Abs(c.speedNorm[i] - 0))
		c.ecExp[3*i+1] = math.Exp(-math.Abs(c.speedNorm[i] - 0.5))
		c.ecExp[3*i+2] = math.Exp(-math.Abs(c.speedNorm[i] - 1))
	}
	if g := ex.Params.TimeDecayST; g > 0 {
		c.stDecay = growSlice(c.stDecay, max(0, n-1))
		for i := 0; i+1 < n; i++ {
			c.stDecay[i] = math.Exp(-g * c.dt[i])
		}
	} else {
		c.stDecay = c.stDecay[:0]
	}
	if g := ex.Params.TimeDecaySC; g > 0 {
		c.scDecay = growSlice(c.scDecay, max(0, n-1))
		for i := 0; i+1 < n; i++ {
			c.scDecay[i] = math.Exp(-g * c.dt[i])
		}
	} else {
		c.scDecay = c.scDecay[:0]
	}
	// The fsc memo starts empty: one slot per candidate pair of each edge,
	// filled by the first evaluation that asks for it.
	c.scOff = growSlice(c.scOff, max(0, n-1))
	pairs := 0
	for i := 0; i+1 < n; i++ {
		c.scOff[i] = pairs
		pairs += len(c.Candidates[i]) * len(c.Candidates[i+1])
	}
	c.scMemo = growSlice(c.scMemo, pairs)
	for k := range c.scMemo {
		c.scMemo[k] = -1
	}
	if n > 0 {
		c.distCum[0] = 0
		c.turnCum[0] = 0
	}
	for i := 1; i < n; i++ {
		c.distCum[i] = c.distCum[i-1] + c.dist[i-1]
	}
	// Turn points (footnote 4: heading change > 90°).
	for i := 1; i < n; i++ {
		c.turnCum[i] = c.turnCum[i-1]
		if i+1 < n && geom.IsTurn(p.Records[i-1].Loc.Point(), p.Records[i].Loc.Point(), p.Records[i+1].Loc.Point()) {
			c.turnCum[i]++
		}
	}
}

// growSlice returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func containsRegion(rs []indoor.RegionID, r indoor.RegionID) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// insertRegion appends r and insertion-sorts it into the suffix
// rs[start:], keeping the per-record candidate views ordered.
func insertRegion(rs []indoor.RegionID, start int, r indoor.RegionID) []indoor.RegionID {
	rs = append(rs, r)
	for i := len(rs) - 1; i > start && rs[i] < rs[i-1]; i-- {
		rs[i], rs[i-1] = rs[i-1], rs[i]
	}
	return rs
}

// Len returns the sequence length.
func (c *SeqContext) Len() int { return c.P.Len() }

// ---- individual feature functions (Table II) ----

// SM is feature (1), fsm(θi, r): the overlap ratio between the
// uncertainty disk of record i and region r, optionally scaled by the
// historical region-frequency prior.
func (c *SeqContext) SM(i int, r indoor.RegionID) float64 {
	return c.smAt(i, r, c.candIndex(i, r))
}

// smAt is SM(i, r) given r's slot k in Candidates[i] (−1 when absent).
func (c *SeqContext) smAt(i int, r indoor.RegionID, k int) float64 {
	if k >= 0 {
		return c.overlap[i][k] * c.prior(r)
	}
	if r == indoor.NoRegion {
		return 0
	}
	// Non-candidate regions still get their true (typically zero)
	// overlap.
	return c.Ex.Space.UncertaintyOverlap(c.P.Records[i].Loc, c.Ex.Params.V, r) * c.prior(r)
}

// prior returns the fsm multiplier for region r (1 when no prior is
// configured or r is out of range).
func (c *SeqContext) prior(r indoor.RegionID) float64 {
	p := c.Ex.Params.RegionPrior
	if len(p) == 0 || r < 0 || int(r) >= len(p) {
		return 1
	}
	return p[r]
}

// EM is feature (2), fem(θi, e): the density/event compatibility.
func (c *SeqContext) EM(i int, e seq.Event) float64 {
	switch {
	case e == seq.Stay && c.Density[i] == cluster.Core:
		return 1
	case e == seq.Pass && c.Density[i] == cluster.Noise:
		return 1
	case e == seq.Stay && c.Density[i] == cluster.Border:
		return c.Ex.Params.Alpha
	case e == seq.Pass && c.Density[i] == cluster.Border:
		return c.Ex.Params.Beta
	default:
		return 0
	}
}

// ST is feature (3), fst(ri, ri+1) for the pair starting at record i:
// exp(−γst · E[dI]) with the optional time-decay multiplier. Identical
// consecutive labels score 1 (the paper's Fig. 4 example sets
// fst(rC, rC) = 1).
func (c *SeqContext) ST(i int, ra, rb indoor.RegionID) float64 {
	v := 1.0
	if ra != rb {
		d := c.Ex.Space.RegionDist(ra, rb)
		if math.IsInf(d, 1) {
			return 0
		}
		v = math.Exp(-c.Ex.Params.GammaST * d)
	}
	if g := c.Ex.Params.TimeDecayST; g > 0 {
		v *= math.Exp(-g * c.dt[i])
	}
	return v
}

// ET is feature (4), fet(ei, ei+1): event label smoothness.
func (c *SeqContext) ET(ea, eb seq.Event) float64 {
	if ea == eb {
		return 1
	}
	return 0
}

// SC is feature (5), fsc(θi, θi+1, ri, ri+1):
// exp(−|E[dI] − dE|), the consistency between region-level and raw
// distances, with the optional time decay.
func (c *SeqContext) SC(i int, ra, rb indoor.RegionID) float64 {
	d := c.Ex.Space.RegionDist(ra, rb)
	if math.IsInf(d, 1) {
		return 0
	}
	v := math.Exp(-math.Abs(d - c.dist[i]))
	if g := c.Ex.Params.TimeDecaySC; g > 0 {
		v *= math.Exp(-g * c.dt[i])
	}
	return v
}

// EC is feature (6), fec(θi, θi+1, ei, ei+1): consistency between the
// observed speed and the pass-ness of the two event labels.
func (c *SeqContext) EC(i int, ea, eb seq.Event) float64 {
	return math.Exp(-math.Abs(c.speedNorm[i] - (passInd(ea)+passInd(eb))/2))
}

func passInd(e seq.Event) float64 {
	if e == seq.Pass {
		return 1
	}
	return 0
}

// segDist returns Σ dE(θx, θx+1) for a ≤ x < b.
func (c *SeqContext) segDist(a, b int) float64 { return c.distCum[b] - c.distCum[a] }

// segTurns returns the number of turn points strictly inside [a, b].
func (c *SeqContext) segTurns(a, b int) int {
	if b-a < 2 {
		return 0
	}
	return c.turnCum[b-1] - c.turnCum[a]
}

// segSpeedNorm returns the normalised average speed over [a, b].
func (c *SeqContext) segSpeedNorm(a, b int) float64 {
	if a >= b {
		return 0
	}
	dur := c.P.Records[b].T - c.P.Records[a].T
	if dur <= 0 {
		return 0
	}
	return math.Min(1, c.Ex.Params.GammaEC*c.segDist(a, b)/dur)
}

// ES is feature (7), fes over the event-based segmentation covering
// records [a, b] that all carry event e. The three components are
// sign·(distinct regions, speed, −turns), each normalised by run
// length, where sign = 2·I(e)−1 (+1 for pass, −1 for stay). reg gives
// the region label of a record.
func (c *SeqContext) ES(a, b int, e seq.Event, reg func(int) indoor.RegionID, out *[3]float64) {
	sign := 2*passInd(e) - 1
	// Count distinct region labels over the run. The distinct set is
	// small (bounded by the candidate regions around the run), so a
	// linear scan over a reused scratch slice beats a map — and
	// allocates nothing, which matters on the inference hot path.
	seen := c.seenScratch[:0]
	for x := a; x <= b; x++ {
		r := reg(x)
		found := false
		for _, s := range seen {
			if s == r {
				found = true
				break
			}
		}
		if !found {
			seen = append(seen, r)
		}
	}
	c.seenScratch = seen
	runLen := float64(b - a + 1)
	out[0] = sign * float64(len(seen)) / runLen
	out[1] = sign * c.segSpeedNorm(a, b)
	out[2] = -sign * float64(c.segTurns(a, b)) / runLen
}

// SS is feature (8), fss over the space-based segmentation covering
// records [a, b] that all carry the same region label. The components
// are (−event runs, −event changes, boundary pass indicators), each
// normalised by run length (the last by 2). ev gives the event label
// of a record.
func (c *SeqContext) SS(a, b int, ev func(int) seq.Event, out *[3]float64) {
	runs := 1
	changes := 0
	for x := a; x < b; x++ {
		if ev(x) != ev(x+1) {
			changes++
			runs++
		}
	}
	runLen := float64(b - a + 1)
	out[0] = -float64(runs) / runLen
	out[1] = -float64(changes) / runLen
	out[2] = (passInd(ev(a)) + passInd(ev(b))) / 2
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
