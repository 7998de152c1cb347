// Package engine provides the long-lived planner around the SyCCL
// synthesis pipeline: a concurrency-safe Engine that owns persistent
// caches surviving across requests and serves Plan(ctx, ...) with
// cooperative cancellation and anytime semantics.
//
// Two caches back the engine:
//
//   - a sketch cache mapping topology fingerprint (plus collective shape,
//     root, and search options) to the enumerated sketch set, so repeat
//     plans on the same fabric skip the §4.1 search entirely;
//   - a sub-schedule cache keyed by the canonical sub-demand signature
//     plus the solve-option signature, sharded and LRU-bounded. An exact
//     signature hit returns the stored solution verbatim — warm re-plans
//     are bit-identical to the cold run — while demands that are
//     isomorphic to a stored one (but relabeled) are served through
//     isomorph.FindFullMapping/MapSchedule.
//
// The caches plug into core.Options through the core.SolveCache and
// core.SketchCache interfaces, so core carries no engine dependency and
// core.Synthesize keeps working cache-free.
package engine

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/isomorph"
	"syccl/internal/lru"
	"syccl/internal/obs"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// Options configures an Engine.
type Options struct {
	// SketchCacheEntries bounds the sketch cache (whole search results;
	// default 64).
	SketchCacheEntries int
	// SolveCacheEntries bounds the sub-schedule cache across all shards
	// (default 4096).
	SolveCacheEntries int
	// BoundCacheEntries bounds the flow-bound cache (scalar lower bounds
	// per sub-demand; default 4096). Warm requests prune candidates
	// without re-solving the bound LPs.
	BoundCacheEntries int
	// Shards is the lock-striping factor of the sub-schedule cache,
	// rounded up to a power of two (default 16). Isomorphic demands land
	// in the same shard, so iso-fallback lookups stay shard-local.
	Shards int
	// Persist optionally backs the sub-schedule cache with a disk tier
	// (internal/persist): LRU misses fall through to Persist.Load (the
	// hit is promoted into the memory tier), and first-time stores are
	// written through with Persist.Put. Solved symmetry classes thereby
	// survive process restarts — a rebooted engine replays previously
	// synthesized plans bit-identically with zero solver calls. Nil
	// disables the tier.
	Persist PersistTier
	// Metrics optionally receives labeled production metrics
	// (syccl_engine_plans_total{outcome},
	// syccl_engine_cache_lookups_total{cache,result},
	// syccl_engine_cache_evictions_total{cache}) for Prometheus
	// exposition. Nil disables them at zero cost.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SketchCacheEntries <= 0 {
		o.SketchCacheEntries = 64
	}
	if o.SolveCacheEntries <= 0 {
		o.SolveCacheEntries = 4096
	}
	if o.BoundCacheEntries <= 0 {
		o.BoundCacheEntries = 4096
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	return o
}

// PersistTier is the disk tier behind the sub-schedule cache. Load
// returns a stored solution for the demand (exact replay or iso-class
// mapping onto it) or nil; Put stores a newly solved sub-schedule,
// first write wins. Implementations must be safe for concurrent use.
// *persist.Store satisfies this interface.
type PersistTier interface {
	Load(d *solve.Demand, sig string) *solve.SubSchedule
	Put(d *solve.Demand, sig string, sub *solve.SubSchedule) error
}

// Stats is a snapshot of the engine's lifetime counters. The JSON field
// names are part of the serving API (`GET /statsz` in internal/serve
// embeds a Stats verbatim), so they are stable snake_case.
//
// Contract: every counter is marshaled explicitly, including zeros — no
// omitempty. Scrapers (and the loadtest's /statsz deltas) subtract
// successive snapshots, which only works when every field is present in
// every scrape; a field that appears only once non-zero would read as a
// reset. New counters may be added, but existing fields are never
// renamed, retyped, or made omittable. TestStatsJSONGolden pins the
// exact zero-value shape.
type Stats struct {
	// Plans is the number of Plan calls accepted.
	Plans int64 `json:"plans"`
	// Cancelled counts plans cut short by their context (both anytime
	// Partial results and outright ctx errors).
	Cancelled int64 `json:"cancelled"`
	// SolveHits / SolveMisses count cross-request sub-schedule cache
	// lookups. ExactHits (verbatim replays) plus IsoHits (served through
	// an isomorphism mapping) sum to SolveHits.
	SolveHits   int64 `json:"solve_hits"`
	SolveMisses int64 `json:"solve_misses"`
	ExactHits   int64 `json:"exact_hits"`
	IsoHits     int64 `json:"iso_hits"`
	// Evictions counts LRU evictions from the sub-schedule cache.
	Evictions int64 `json:"evictions"`
	// SketchHits / SketchMisses count sketch cache lookups.
	SketchHits   int64 `json:"sketch_hits"`
	SketchMisses int64 `json:"sketch_misses"`
	// BoundHits / BoundMisses count flow-bound cache lookups; BoundsPruned
	// and BoundsProved aggregate the candidates eliminated (and fine
	// passes skipped) by the flow lower bound across all plans.
	BoundHits    int64 `json:"bound_hits"`
	BoundMisses  int64 `json:"bound_misses"`
	BoundsPruned int64 `json:"bounds_pruned"`
	BoundsProved int64 `json:"bounds_proved"`
	// PersistHits / PersistMisses count disk-tier lookups (only demands
	// that already missed the memory tier reach the disk tier, so these
	// never double-count SolveHits).
	PersistHits   int64 `json:"persist_hits"`
	PersistMisses int64 `json:"persist_misses"`
	// Replans counts Replan calls (including failed ones); ReplanReused
	// aggregates the sub-demands those replans served from the
	// cross-request cache tiers, and ReplanInvalidated the cache entries
	// selective invalidation dropped as unreachable on the degraded
	// fabric.
	Replans           int64 `json:"replans"`
	ReplanReused      int64 `json:"replan_reused"`
	ReplanInvalidated int64 `json:"replan_invalidated"`
}

// Engine is a long-lived, concurrency-safe planner. The zero value is not
// usable; construct with New. An Engine may serve any number of
// concurrent Plan calls over arbitrary topologies and collectives; its
// caches are shared across all of them.
type Engine struct {
	opts   Options
	shards []solveShard
	mask   uint32

	// boundMu guards bounds and its iso index boundIso; sketchMu guards
	// sketches.
	boundMu  sync.Mutex
	bounds   *lru.Cache[string, *boundEntry]
	boundIso map[string]*boundEntry
	sketchMu sync.Mutex
	sketches *lru.Cache[string, []*sketch.Sketch]

	plans         atomic.Int64
	cancelled     atomic.Int64
	solveHits     atomic.Int64
	solveMisses   atomic.Int64
	exactHits     atomic.Int64
	isoHits       atomic.Int64
	evictions     atomic.Int64
	sketchHits    atomic.Int64
	sketchMisses  atomic.Int64
	boundHits     atomic.Int64
	boundMisses   atomic.Int64
	boundsPruned  atomic.Int64
	boundsProved  atomic.Int64
	persistHits   atomic.Int64
	persistMisses atomic.Int64

	replans           atomic.Int64
	replansErr        atomic.Int64
	replanReused      atomic.Int64
	replanInvalidated atomic.Int64

	// Labeled metric children, resolved once at construction so the cache
	// hot paths pay a single nil-safe atomic add per event.
	mPlanOK, mPlanPartial, mPlanError       *obs.Counter
	mSolveExact, mSolveIso, mSolveMiss      *obs.Counter
	mSketchHit, mSketchMiss                 *obs.Counter
	mBoundExact, mBoundIso, mBoundMiss      *obs.Counter
	mEvictSolve, mEvictSketch, mEvictBound  *obs.Counter
	mBoundPruned, mBoundKept, mBoundsProved *obs.Counter
	mPersistHit, mPersistMiss               *obs.Counter
	mReplanOK, mReplanPartial, mReplanError *obs.Counter
	mReplanReuse                            *obs.Histogram
}

// New builds an Engine with the given options.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	shards := 1
	for shards < opts.Shards {
		shards <<= 1
	}
	perShard := (opts.SolveCacheEntries + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	e := &Engine{
		opts: opts,
		mask: uint32(shards - 1),
	}
	e.shards = make([]solveShard, shards)
	for i := range e.shards {
		s := &e.shards[i]
		s.byIso = make(map[string][]*solveEntry)
		s.lru = lru.New(perShard, func(_ string, victim *solveEntry) {
			s.unindex(victim)
			e.evicted(e.mEvictSolve)
		})
	}
	e.boundIso = make(map[string]*boundEntry)
	e.bounds = lru.New(opts.BoundCacheEntries, func(_ string, victim *boundEntry) {
		e.unindexBound(victim)
		e.evicted(e.mEvictBound)
	})
	e.sketches = lru.New(opts.SketchCacheEntries, func(string, []*sketch.Sketch) {
		e.evicted(e.mEvictSketch)
	})
	// A nil registry hands out nil vectors and nil children, so every
	// metric update below stays a no-op when telemetry is off.
	plans := opts.Metrics.Counter("syccl_engine_plans_total",
		"Engine plan calls by outcome.", "outcome")
	e.mPlanOK = plans.With("ok")
	e.mPlanPartial = plans.With("partial")
	e.mPlanError = plans.With("error")
	lookups := opts.Metrics.Counter("syccl_engine_cache_lookups_total",
		"Cross-request cache lookups by cache and result.", "cache", "result")
	e.mSolveExact = lookups.With("solve", "exact")
	e.mSolveIso = lookups.With("solve", "iso")
	e.mSolveMiss = lookups.With("solve", "miss")
	e.mSketchHit = lookups.With("sketch", "hit")
	e.mSketchMiss = lookups.With("sketch", "miss")
	e.mBoundExact = lookups.With("bound", "exact")
	e.mBoundIso = lookups.With("bound", "iso")
	e.mBoundMiss = lookups.With("bound", "miss")
	e.mPersistHit = lookups.With("persist", "hit")
	e.mPersistMiss = lookups.With("persist", "miss")
	evict := opts.Metrics.Counter("syccl_engine_cache_evictions_total",
		"LRU evictions by cache.", "cache")
	e.mEvictSolve = evict.With("solve")
	e.mEvictSketch = evict.With("sketch")
	e.mEvictBound = evict.With("bound")
	boundsTotal := opts.Metrics.Counter("syccl_solver_bounds_total",
		"Candidate flow lower bounds by outcome: pruned (candidate eliminated), kept (bound insufficient to prune), proved_optimal (fine pass skipped).",
		"result")
	e.mBoundPruned = boundsTotal.With("pruned")
	e.mBoundKept = boundsTotal.With("kept")
	e.mBoundsProved = boundsTotal.With("proved_optimal")
	replans := opts.Metrics.Counter("syccl_replan_total",
		"Fault-reactive replans by outcome.", "result")
	e.mReplanOK = replans.With("ok")
	e.mReplanPartial = replans.With("partial")
	e.mReplanError = replans.With("error")
	e.mReplanReuse = opts.Metrics.Histogram("syccl_replan_reuse_ratio",
		"Fraction of replanned sub-demands served from cache.",
		[]float64{0, 0.25, 0.5, 0.75, 0.9, 1}).With()
	return e
}

// Plan synthesizes a schedule for the collective on the topology, serving
// as much of the request as possible from the engine's caches and storing
// what it had to compute. Cancellation is cooperative and anytime: when
// ctx is cancelled or its deadline expires mid-synthesis, Plan returns
// promptly with the best fully-validated candidate found so far
// (Result.Partial=true) if at least one candidate completed the coarse
// pass, and ctx.Err() otherwise. Results from cancelled plans are never
// written into the caches.
//
// The engine installs its caches into opts; any caller-provided
// SolveCache/SketchCache values are replaced. All other options pass
// through to the pipeline unchanged.
func (e *Engine) Plan(ctx context.Context, top *topology.Topology, col *collective.Collective, opts core.Options) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.plans.Add(1)
	opts.SolveCache = solveCacheAdapter{e}
	opts.SketchCache = sketchCacheAdapter{e}
	opts.BoundCache = boundCacheAdapter{e}
	res, err := core.SynthesizeContext(ctx, top, col, opts)
	if (err != nil && ctx.Err() != nil) || (res != nil && res.Partial) {
		e.cancelled.Add(1)
	}
	if res != nil {
		if pruned := int64(res.Stats.PrunedLB); pruned > 0 {
			e.boundsPruned.Add(pruned)
			e.mBoundPruned.Add(float64(pruned))
		}
		if kept := int64(res.Stats.BoundsComputed - res.Stats.PrunedLB); kept > 0 {
			e.mBoundKept.Add(float64(kept))
		}
		if res.Stats.ProvedOptimal {
			e.boundsProved.Add(1)
			e.mBoundsProved.Inc()
		}
	}
	switch {
	case err != nil:
		e.mPlanError.Inc()
	case res != nil && res.Partial:
		e.mPlanPartial.Inc()
	default:
		e.mPlanOK.Inc()
	}
	return res, err
}

// Stats returns a snapshot of the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Plans:             e.plans.Load(),
		Cancelled:         e.cancelled.Load(),
		SolveHits:         e.solveHits.Load(),
		SolveMisses:       e.solveMisses.Load(),
		ExactHits:         e.exactHits.Load(),
		IsoHits:           e.isoHits.Load(),
		Evictions:         e.evictions.Load(),
		SketchHits:        e.sketchHits.Load(),
		SketchMisses:      e.sketchMisses.Load(),
		BoundHits:         e.boundHits.Load(),
		BoundMisses:       e.boundMisses.Load(),
		BoundsPruned:      e.boundsPruned.Load(),
		BoundsProved:      e.boundsProved.Load(),
		PersistHits:       e.persistHits.Load(),
		PersistMisses:     e.persistMisses.Load(),
		Replans:           e.replans.Load(),
		ReplanReused:      e.replanReused.Load(),
		ReplanInvalidated: e.replanInvalidated.Load(),
	}
}

// --- sub-schedule cache ---

// solveEntry is one cached per-demand solution, stored in its shard's
// LRU under the exact key. The demand clone is kept for the iso-fallback
// path, which needs the concrete piece sets to find a mapping onto the
// queried demand.
type solveEntry struct {
	exactKey string
	isoKey   string
	demand   *solve.Demand
	sub      *solve.SubSchedule
}

// solveShard is one lock stripe of the sub-schedule cache; byIso indexes
// the LRU's entries by isomorphism class.
type solveShard struct {
	mu    sync.Mutex
	lru   *lru.Cache[string, *solveEntry]
	byIso map[string][]*solveEntry
}

// unindex drops an entry that left the LRU from the iso index.
func (s *solveShard) unindex(victim *solveEntry) {
	bucket := s.byIso[victim.isoKey]
	for i, v := range bucket {
		if v == victim {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.byIso, victim.isoKey)
	} else {
		s.byIso[victim.isoKey] = bucket
	}
}

func hashKey(k string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(k))
	return h.Sum32()
}

// evicted counts one LRU eviction from the cache whose metric child is c.
func (e *Engine) evicted(c *obs.Counter) {
	e.evictions.Add(1)
	c.Inc()
}

// solveCacheAdapter implements core.SolveCache on the engine.
type solveCacheAdapter struct{ e *Engine }

func (a solveCacheAdapter) Lookup(d *solve.Demand, sig string) *solve.SubSchedule {
	e := a.e
	exact := isomorph.ExactKey(d) + "|" + sig
	iso := isomorph.Key(d) + "|" + sig
	if sub := e.memLookup(d, exact, iso); sub != nil {
		return sub
	}
	// Memory miss: consult the disk tier (outside any shard lock — disk
	// reads must not serialize unrelated lookups).
	if e.opts.Persist != nil {
		if sub := e.opts.Persist.Load(d, sig); sub != nil {
			e.persistHits.Add(1)
			e.mPersistHit.Inc()
			// Promote into the memory tier. No write-back: the bytes just
			// came from disk (or from an iso sibling already on disk).
			e.memInsert(d, exact, iso, sub)
			return sub
		}
		e.persistMisses.Add(1)
		e.mPersistMiss.Inc()
	}
	e.solveMisses.Add(1)
	e.mSolveMiss.Inc()
	return nil
}

// memLookup probes the in-memory solve LRU (exact, then iso-class) and
// counts hits; misses are not counted here so the persist tier can be
// consulted before the lookup is declared a miss.
func (e *Engine) memLookup(d *solve.Demand, exact, iso string) *solve.SubSchedule {
	s := &e.shards[hashKey(iso)&e.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, ok := s.lru.Get(exact); ok {
		e.solveHits.Add(1)
		e.exactHits.Add(1)
		e.mSolveExact.Inc()
		return cloneSub(ent.sub)
	}
	for _, ent := range s.byIso[iso] {
		if m := isomorph.FindFullMapping(ent.demand, d); m != nil {
			s.lru.Get(ent.exactKey)
			e.solveHits.Add(1)
			e.isoHits.Add(1)
			e.mSolveIso.Inc()
			// MapSchedule allocates a fresh sub-schedule; no extra clone.
			return isomorph.MapSchedule(ent.sub, *m)
		}
	}
	return nil
}

func (a solveCacheAdapter) Store(d *solve.Demand, sig string, sub *solve.SubSchedule) {
	e := a.e
	exact := isomorph.ExactKey(d) + "|" + sig
	iso := isomorph.Key(d) + "|" + sig
	if !e.memInsert(d, exact, iso, sub) {
		// First write won in memory; the disk tier enforces the same
		// rule, so nothing to write through.
		return
	}
	if e.opts.Persist != nil {
		// Write-through, outside the shard lock. A failed disk write
		// (full disk, permissions) degrades durability, never planning.
		_ = e.opts.Persist.Put(d, sig, sub)
	}
}

// memInsert adds a solved sub-schedule to the in-memory LRU, evicting
// as needed. Returns false when the exact key was already present
// (first write wins: replaying a stored solution must stay
// bit-identical, so a concurrent duplicate store is dropped).
func (e *Engine) memInsert(d *solve.Demand, exact, iso string, sub *solve.SubSchedule) bool {
	s := &e.shards[hashKey(iso)&e.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := &solveEntry{exactKey: exact, isoKey: iso, demand: cloneDemand(d), sub: cloneSub(sub)}
	if !s.lru.Add(exact, ent) {
		return false
	}
	s.byIso[iso] = append(s.byIso[iso], ent)
	return true
}

func cloneDemand(d *solve.Demand) *solve.Demand {
	out := &solve.Demand{NumGPUs: d.NumGPUs, Alpha: d.Alpha, Beta: d.Beta}
	out.Pieces = make([]solve.Piece, len(d.Pieces))
	for i, p := range d.Pieces {
		p.Srcs = append([]int(nil), p.Srcs...)
		p.Dsts = append([]int(nil), p.Dsts...)
		out.Pieces[i] = p
	}
	return out
}

func cloneSub(s *solve.SubSchedule) *solve.SubSchedule {
	out := *s
	out.Transfers = append([]solve.Transfer(nil), s.Transfers...)
	return &out
}

// --- flow-bound cache ---

// boundEntry is one cached flow lower bound. The bound is invariant
// under GPU relabeling (the isomorph keys embed α, β, and the piece
// structure), so entries are stored under their exact key and also
// served to merely-isomorphic demands through the iso index — a scalar
// needs no schedule remapping.
type boundEntry struct {
	exactKey string
	isoKey   string
	bound    float64
}

// unindexBound drops an entry that left the bound LRU from the iso
// index. Called with boundMu held.
func (e *Engine) unindexBound(victim *boundEntry) {
	if e.boundIso[victim.isoKey] == victim {
		delete(e.boundIso, victim.isoKey)
	}
}

// boundCacheAdapter implements core.BoundCache on the engine.
type boundCacheAdapter struct{ e *Engine }

func (a boundCacheAdapter) Lookup(d *solve.Demand, sig string) (float64, bool) {
	e := a.e
	exact := isomorph.ExactKey(d) + "|" + sig
	iso := isomorph.Key(d) + "|" + sig
	e.boundMu.Lock()
	defer e.boundMu.Unlock()
	if ent, ok := e.bounds.Get(exact); ok {
		e.boundHits.Add(1)
		e.mBoundExact.Inc()
		return ent.bound, true
	}
	if ent, ok := e.boundIso[iso]; ok {
		e.bounds.Get(ent.exactKey)
		e.boundHits.Add(1)
		e.mBoundIso.Inc()
		return ent.bound, true
	}
	e.boundMisses.Add(1)
	e.mBoundMiss.Inc()
	return 0, false
}

func (a boundCacheAdapter) Store(d *solve.Demand, sig string, bound float64) {
	e := a.e
	exact := isomorph.ExactKey(d) + "|" + sig
	iso := isomorph.Key(d) + "|" + sig
	e.boundMu.Lock()
	defer e.boundMu.Unlock()
	ent := &boundEntry{exactKey: exact, isoKey: iso, bound: bound}
	// First write wins, as in the solve cache.
	if !e.bounds.Add(exact, ent) {
		return
	}
	if _, ok := e.boundIso[iso]; !ok {
		e.boundIso[iso] = ent
	}
}

// --- sketch cache ---

// sketchCacheAdapter implements core.SketchCache on the engine.
type sketchCacheAdapter struct{ e *Engine }

func (a sketchCacheAdapter) Lookup(key string) ([]*sketch.Sketch, bool) {
	e := a.e
	e.sketchMu.Lock()
	defer e.sketchMu.Unlock()
	sketches, ok := e.sketches.Get(key)
	if !ok {
		e.sketchMisses.Add(1)
		e.mSketchMiss.Inc()
		return nil, false
	}
	e.sketchHits.Add(1)
	e.mSketchHit.Inc()
	return cloneSketches(sketches), true
}

func (a sketchCacheAdapter) Store(key string, sketches []*sketch.Sketch) {
	e := a.e
	e.sketchMu.Lock()
	defer e.sketchMu.Unlock()
	e.sketches.Add(key, cloneSketches(sketches))
}

func cloneSketches(in []*sketch.Sketch) []*sketch.Sketch {
	out := make([]*sketch.Sketch, len(in))
	for i, sk := range in {
		out[i] = sk.Clone()
	}
	return out
}

// Ensure the adapters satisfy core's interfaces.
var (
	_ core.SolveCache  = solveCacheAdapter{}
	_ core.SketchCache = sketchCacheAdapter{}
	_ core.BoundCache  = boundCacheAdapter{}
)
