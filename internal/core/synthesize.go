package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// Synthesize produces a schedule for the collective on the topology.
//
// All-to-one collectives (Reduce, Gather) and ReduceScatter are
// synthesized as the mirror of their one-to-all inverses (§4.1, §4.3);
// AllReduce is synthesized as ReduceScatter followed by AllGather (§4.3).
func Synthesize(top *topology.Topology, col *collective.Collective, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), top, col, opts)
}

// SynthesizeContext is Synthesize under a context, with anytime
// semantics. The expensive phases — sketch search and sub-demand solving —
// poll the context cooperatively, while the cheap finishing work (schedule
// mapping, assembly, simulation, mirroring) always runs to completion, so
// a run cancelled mid-pipeline still returns its best fully-validated
// candidate with Result.Partial set. Only a context cancelled before any
// candidate completed the coarse pass yields ctx.Err().
func SynthesizeContext(ctx context.Context, top *topology.Topology, col *collective.Collective, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Request-scoped fan-in: a caller that attached a recorder to the
	// context (the serving layer's per-flight recorder) gets the whole
	// pipeline's span tree on it without plumbing an explicit option. An
	// explicit opts.Obs always wins.
	if opts.Obs == nil {
		opts.Obs = obs.FromContext(ctx)
	}
	opts = opts.withDefaults()
	if err := col.Validate(); err != nil {
		return nil, err
	}
	if col.NumGPUs != top.NumGPUs() {
		return nil, fmt.Errorf("core: collective spans %d GPUs, topology has %d", col.NumGPUs, top.NumGPUs())
	}
	if err := opts.Hint.Validate(top.NumDims()); err != nil {
		return nil, err
	}

	root := opts.Obs.StartSpan("synthesize")
	root.SetStr("topology", top.Name)
	root.SetStr("collective", col.Kind.String())
	root.SetInt("gpus", int64(top.NumGPUs()))
	if id := obs.RequestIDFrom(ctx); id != "" {
		root.SetStr("request", id)
	}
	defer root.End()
	seedCounters(opts.Obs)

	switch col.Kind {
	case collective.KindAllReduce:
		return synthesizeAllReduce(ctx, top, col, opts, root)
	}

	forwardKind, mirrored := kindForward(col.Kind)
	forwardCol := col
	transform := identityTransform(col)
	if mirrored {
		forwardCol = forwardCollective(col, forwardKind)
		// Incumbents of a mirrored collective are finished exactly the
		// way the final result is below: mirror, validate, re-simulate.
		transform = func(fwd *schedule.Schedule, _ float64) (*schedule.Schedule, float64, bool) {
			m := mirrorSchedule(fwd, forwardCol, col)
			if m.Validate(col) != nil {
				return nil, 0, false
			}
			r, err := sim.Simulate(top, m, opts.Sim)
			if err != nil {
				return nil, 0, false
			}
			return m, r.Time, true
		}
	}
	pub := newPublisher(opts.OnIncumbent, transform)

	res, err := synthesizeForward(ctx, top, forwardCol, opts, root, pub, transform)
	if err != nil {
		return nil, err
	}
	if mirrored {
		// Mirroring and re-simulation are cheap finishing work: they run
		// even under a cancelled context so a Partial forward result still
		// becomes a complete, timed reduction schedule.
		ms := root.Child("mirror")
		res.Schedule = mirrorSchedule(res.Schedule, forwardCol, col)
		r, err := sim.Simulate(top, res.Schedule, opts.Sim)
		ms.End()
		if err != nil {
			return nil, fmt.Errorf("core: mirrored schedule: %w", err)
		}
		res.Time = r.Time
	}
	return res, nil
}

// seedCounters registers the pipeline's counter series with an initial
// zero sample, so exported traces carry every series even when a fast
// path (rotation solves, cached demands) leaves one untouched.
func seedCounters(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	for _, name := range []string{
		"cache.hits", "cache.misses", "lp.pivots", "milp.nodes",
		"sketch.nodes", "sketch.emitted", "candidates", "candidates.pruned",
		"candidates.pruned_lb", "sim.events",
	} {
		rec.Count(name, 0)
	}
}

// synthesizeForward runs the two-phase pipeline for forward (non-reduce)
// collectives. The parent span (nil-safe) roots the per-phase spans. pub
// (nil-safe) receives every improving candidate as it completes
// simulation; publication is observation only and never influences which
// candidate wins. transform finishes forward schedules into the
// caller-visible collective (identity for forward kinds) — the winner at
// every return site is the candidate whose finished time is minimal,
// which is the same criterion the publisher's improvement gate uses.
func synthesizeForward(ctx context.Context, top *topology.Topology, col *collective.Collective, opts Options, parent *obs.Span, pub *publisher, transform transformFunc) (*Result, error) {
	res := &Result{}

	// Phase 1a: sketch search (§4.1).
	searchSpan := parent.Child("search")
	t0 := time.Now()
	var sketches []*sketch.Sketch
	allToAll := false
	scatter := false
	switch col.Kind {
	case collective.KindSendRecv:
		// One-to-one needs no sketch machinery: the shortest route —
		// direct if a dimension connects the pair, otherwise a PXN-style
		// relay — is optimal under the port model.
		searchSpan.End()
		sched, err := sendRecvSchedule(top, col)
		if err != nil {
			return nil, err
		}
		r, err := sim.SimulateCtx(ctx, top, sched, opts.Sim)
		if err != nil {
			return nil, err
		}
		pub.offer(sched, r.Time, "direct", "", nil)
		res.Schedule, res.Time = sched, r.Time
		return res, validateForward(sched, col)
	case collective.KindBroadcast:
		sketches = searchCached(ctx, top, col.Root, false, opts)
	case collective.KindScatter:
		sketches = searchCached(ctx, top, col.Root, true, opts)
		scatter = true
	case collective.KindAllGather:
		sketches = searchCached(ctx, top, 0, false, opts)
		allToAll = true
	case collective.KindAlltoAll:
		sketches = searchCached(ctx, top, 0, true, opts)
		allToAll = true
		scatter = true
	default:
		return nil, fmt.Errorf("core: unsupported forward collective %v", col.Kind)
	}
	searchSpan.SetInt("sketches", int64(len(sketches)))
	searchSpan.End()
	if len(sketches) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: no sketches found for %v on %s", col.Kind, top.Name)
	}
	res.Phases.Search = time.Since(t0)
	res.Stats.Sketches = len(sketches)

	// Phase 1b: combinations (§4.2, §4.3).
	combineSpan := parent.Child("combine")
	t0 = time.Now()
	combos := buildCombinations(ctx, top, col, sketches, allToAll, scatter, opts)
	res.Phases.Combine = time.Since(t0)
	res.Stats.Candidates = len(combos)
	combineSpan.SetInt("candidates", int64(len(combos)))
	combineSpan.End()
	opts.Obs.Count("candidates", float64(len(combos)))
	if len(combos) == 0 {
		return nil, fmt.Errorf("core: no sketch combinations for %v", col.Kind)
	}

	// Phase 2a: coarse synthesis of every candidate. The coarse pass
	// trades accuracy for speed twice over: large epochs (E1) and the
	// greedy engine; the fine pass then runs the configured engine
	// (exact MILP where tractable) on the surviving candidates (§5.3).
	coarseSpan := parent.Child("solve.coarse")
	t0 = time.Now()
	e1, eng1 := opts.E1, solve.EngineGreedy
	if opts.DisableTwoStep {
		e1, eng1 = opts.E2, opts.fineEngine()
	}
	if opts.Engine != solve.EngineAuto {
		eng1 = opts.Engine
	}
	coarse := realizeAll(ctx, top, col, combos, e1, eng1, opts, &res.Stats, coarseSpan, pub, "coarse")
	cands := make([]*candidate, 0, len(combos))
	for ci, combo := range combos {
		if coarse[ci].ok {
			cands = append(cands, &candidate{
				combo: combo, sched: coarse[ci].sched, time: coarse[ci].time,
				source: "coarse", engine: eng1.String(),
			})
		}
	}
	// The ring family lives in the untruncated sketch space (K up to
	// |V|−1 stages) that the stage-bounded search cannot reach; include
	// it as an explicit candidate so deep-pipeline schedules stay in
	// contention where they win (large sizes on ring-friendly fabrics).
	if col.Kind == collective.KindAllGather {
		if ring, err := nccl.AllGather(top, col); err == nil {
			if r, err := sim.Simulate(top, ring, opts.Sim); err == nil {
				pub.offer(ring, r.Time, "ring", "", nil)
				cands = append(cands, &candidate{sched: ring, time: r.Time, source: "ring"})
			}
		}
	}
	res.Phases.Solve1 = time.Since(t0)
	coarseSpan.SetInt("realized", int64(len(cands)))
	coarseSpan.End()
	if len(cands) == 0 {
		// Nothing completed the coarse pass: a cancelled run has no
		// anytime result to offer, so report the cancellation itself.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: all %d candidates failed to realize", len(combos))
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].time < cands[b].time })

	if opts.DisableTwoStep {
		best := pickWinner(cands, transform, pub)
		res.Schedule, res.Time, res.Combination = best.sched, best.time, best.combo
		res.Partial = ctx.Err() != nil
		return res, validateForward(res.Schedule, col)
	}

	// Anytime exit: the deadline passed during (or right after) the coarse
	// pass. The surviving candidates are complete, simulated schedules —
	// return the best of them instead of starting the fine pass.
	if ctx.Err() != nil {
		best := pickWinner(cands, transform, pub)
		res.Schedule, res.Time, res.Combination = best.sched, best.time, best.combo
		res.Partial = true
		return res, validateForward(res.Schedule, col)
	}

	// Filter: keep candidates within R1 of the best, at most R2 (§5.3).
	keep := cands[:0:0]
	limit := cands[0].time * (1 + opts.R1)
	for _, c := range cands {
		if c.time <= limit && len(keep) < opts.R2 {
			keep = append(keep, c)
		}
	}
	opts.Obs.Count("candidates.pruned", float64(len(cands)-len(keep)))

	// Flow-bound filter between the passes: drop survivors whose flow
	// lower bound proves they cannot beat the incumbent, and detect when
	// the incumbent's own bound proves the coarse schedule optimal. See
	// bound.go; pruning never changes the fine-pass winner.
	proved := false
	incLB := 0.0
	if opts.SolverMode != SolverExact {
		keep, proved, incLB = pruneByBound(ctx, top, col, keep, opts, &res.Stats, parent)
		pub.setBound(incLB)
	}
	res.Stats.Refined = len(keep)

	// Phase 2b: fine synthesis of the survivors. Injected fixed schedules
	// (nil combo, e.g. the ring) pass through realizeAll untouched and
	// keep their coarse-pass result.
	fineSpan := parent.Child("solve.fine")
	fineSpan.SetInt("survivors", int64(len(keep)))
	if proved {
		// The incumbent met its own lower bound and every rival is
		// pruned: no MILP can improve on the coarse schedule, so the
		// fine pass has nothing to do.
		fineSpan.SetStr("outcome", "proved-optimal")
		fineSpan.End()
		res.Stats.ProvedOptimal = true
		best := pickWinner(cands, transform, pub)
		res.Schedule, res.Time, res.Combination = best.sched, best.time, best.combo
		res.Partial = ctx.Err() != nil
		return res, validateForward(res.Schedule, col)
	}
	// Early termination (the StopWithin knob): the incumbent is already
	// within the requested gap of its flow lower bound, so skip the fine
	// pass. The check sits at this deterministic boundary — never inside
	// a pass — so results stay byte-identical across Workers settings.
	// Not Partial: the caller asked for exactly this trade.
	if opts.StopWithin > 0 && incLB > 0 && keep[0].time <= incLB*(1+opts.StopWithin) {
		fineSpan.SetStr("outcome", "stopped-early")
		fineSpan.End()
		res.Stats.StoppedEarly = true
		best := pickWinner(cands, transform, pub)
		res.Schedule, res.Time, res.Combination = best.sched, best.time, best.combo
		res.Partial = ctx.Err() != nil
		return res, validateForward(res.Schedule, col)
	}
	t0 = time.Now()
	fineCombos := make([]*sketch.Combination, len(keep))
	for i, c := range keep {
		fineCombos[i] = c.combo
	}
	fine := realizeAll(ctx, top, col, fineCombos, opts.E2, opts.fineEngine(), opts, &res.Stats, fineSpan, pub, "fine")
	finalists := make([]*candidate, 0, len(cands)+len(keep))
	finalists = append(finalists, cands...)
	fineName := opts.fineEngine().String()
	for ci, c := range keep {
		if fine[ci].ok {
			finalists = append(finalists, &candidate{
				combo: c.combo, sched: fine[ci].sched, time: fine[ci].time,
				source: "fine", engine: fineName,
			})
		}
	}
	best := pickWinner(finalists, transform, pub)
	res.Phases.Solve2 = time.Since(t0)
	fineSpan.End()
	res.Schedule, res.Time, res.Combination = best.sched, best.time, best.combo
	// A cancellation mid-fine-pass degrades gracefully: candidates whose
	// fine solves did not finish keep their coarse-pass schedules, and the
	// result is flagged Partial.
	res.Partial = ctx.Err() != nil
	return res, validateForward(res.Schedule, col)
}

// pickWinner selects the pipeline's result by caller-visible time: each
// finalist's forward schedule is finished through the transform and the
// minimal finished time wins, first in order on ties. Ranking by forward
// time instead would be wrong for AllReduce — the concatenated
// ReduceScatter+AllGather time is not monotone in the AllGather-phase
// time, so the forward-best candidate can finish into a schedule worse
// than one already published on the incumbent stream. The chosen winner
// is force-offered to the publisher (no-op when it was already the best
// published), which is what keeps the stream's last event equal to the
// returned result. Finalists whose transform fails are skipped; if none
// survives, forward order decides and the caller surfaces the transform
// error. Deterministic: a pure fold over a deterministic finalist list.
func pickWinner(finalists []*candidate, transform transformFunc, pub *publisher) *candidate {
	best := finalists[0]
	bestT := math.Inf(1)
	var bestOut *schedule.Schedule
	for _, f := range finalists {
		out, t, ok := transform(f.sched, f.time)
		if !ok {
			continue
		}
		if t < bestT {
			best, bestT, bestOut = f, t, out
		}
	}
	if bestOut == nil {
		return finalists[0]
	}
	pub.publishFinal(bestOut, bestT, best.source, best.engine, best.combo)
	return best
}

// searchCached serves the sketch search from opts.SketchCache when one is
// wired. Only complete (non-cancelled) searches are stored: a search
// truncated by cancellation would poison later requests with a partial
// sketch set.
func searchCached(ctx context.Context, top *topology.Topology, root int, scatter bool, opts Options) []*sketch.Sketch {
	var key string
	if opts.SketchCache != nil {
		key = sketchCacheKey(top, root, scatter, opts.Search)
		if cached, ok := opts.SketchCache.Lookup(key); ok {
			return cached
		}
	}
	var out []*sketch.Sketch
	if scatter {
		out = sketch.SearchScatter(ctx, top, root, opts.Search)
	} else {
		out = sketch.SearchBroadcast(ctx, top, root, opts.Search)
	}
	if opts.SketchCache != nil && ctx.Err() == nil {
		opts.SketchCache.Store(key, out)
	}
	return out
}

// sketchCacheKey identifies a search by topology fingerprint, shape, root,
// and every search option that influences the result set (Rec is
// instrumentation only and excluded).
func sketchCacheKey(top *topology.Topology, root int, scatter bool, so sketch.SearchOptions) string {
	shape := "b"
	if scatter {
		shape = "s"
	}
	key := fmt.Sprintf("%s|%s%d|k%d,n%d,m%d,c%d,p1:%t,p2:%t,ff:%t",
		top.Fingerprint(), shape, root,
		so.MaxStages, so.MaxNodes, so.MaxSketches, so.MaxCountChoices,
		so.DisablePrune1, so.DisablePrune2, so.FullFanoutOnly)
	// A hint filters the result set, so hinted searches get their own
	// entries; unhinted keys keep their historical format.
	if h := so.Hint.Canonical(); h != "" {
		key += "|h=" + h
	}
	return key
}

// sendRecvSchedule routes a one-to-one transfer: direct where a shared
// dimension exists, else through the sender's server-mate on the
// receiver's rail.
func sendRecvSchedule(top *topology.Topology, col *collective.Collective) (*schedule.Schedule, error) {
	src := col.Chunks[0].Src
	dst := col.Chunks[0].Dsts[0]
	s := &schedule.Schedule{NumGPUs: top.NumGPUs()}
	p := s.AddPiece(col.ChunkSize, 0)
	dimFor := func(a, b int) int {
		for d := 0; d < top.NumDims(); d++ {
			if top.SameGroup(d, a, b) {
				return d
			}
		}
		return -1
	}
	if d := dimFor(src, dst); d >= 0 {
		s.AddTransfer(schedule.Transfer{Src: src, Dst: dst, Piece: p, Dim: d})
		return s, nil
	}
	g := top.Sym.Local.N
	relay := (src/g)*g + dst%g
	d1, d2 := dimFor(src, relay), dimFor(relay, dst)
	if d1 < 0 || d2 < 0 {
		return nil, fmt.Errorf("core: no route %d→%d", src, dst)
	}
	first := s.AddTransfer(schedule.Transfer{Src: src, Dst: relay, Piece: p, Dim: d1})
	s.AddTransfer(schedule.Transfer{Src: relay, Dst: dst, Piece: p, Dim: d2, Deps: []int{first}, Order: 1})
	return s, nil
}

func validateForward(s *schedule.Schedule, col *collective.Collective) error {
	if err := s.Validate(col); err != nil {
		return fmt.Errorf("core: synthesized schedule invalid: %w", err)
	}
	return nil
}

// realized is the outcome of one candidate slot in a realization pass.
type realized struct {
	sched *schedule.Schedule
	time  float64
	ok    bool
}

// realizeAll realizes every candidate combination of one pass at
// accuracy e with the given engine. It replaces the per-candidate
// keyed solve cache with whole-pass isomorphism batching:
//
//  1. build each candidate's assembly in parallel;
//  2. pool the sub-demands of ALL candidates (in candidate-then-cell
//     order), partition them into isomorphism classes globally, and
//     solve one representative per class in parallel;
//  3. map each remaining sub-demand from its representative's
//     sub-schedule, then assemble and simulate each candidate in
//     parallel.
//
// Every result is written into a slot indexed by candidate or demand
// position and the shared counters are reduced in deterministic order,
// so schedules, times, and Stats are byte-identical for any Workers
// setting. Nil combinations (injected fixed schedules) and failed
// candidates yield ok=false for their slot only; a failed
// representative solve marks exactly the candidates that depend on it.
//
// When opts.SolveCache is wired, each pooled sub-demand is first offered
// to the cross-request cache; only the representatives of classes with no
// hit reach the solver, and every freshly computed per-demand
// sub-schedule is stored back (unless the context was cancelled, since a
// truncated exact solve may have returned its greedy incumbent, which
// must not masquerade as the converged solution in later requests).
func realizeAll(ctx context.Context, top *topology.Topology, col *collective.Collective, combos []*sketch.Combination,
	e float64, engine solve.Engine, opts Options, stats *Stats, span *obs.Span, pub *publisher, source string) []realized {

	engineName := engine.String()
	n := len(combos)
	out := make([]realized, n)
	asms := make([]*assembly, n)
	parallelFor(n, opts.Workers, func(ci int) {
		if combos[ci] == nil {
			return
		}
		a, err := newAssembly(top, col, combos[ci])
		if err != nil {
			cs := span.ChildLane("candidate")
			cs.SetInt("index", int64(ci))
			cs.SetStr("outcome", "unrealizable")
			cs.End()
			return // a candidate may be unrealizable; skip it
		}
		asms[ci] = a
	})

	// Pool every candidate's sub-demands; offs[ci] locates candidate
	// ci's cells inside the flat list.
	var demands []*solve.Demand
	offs := make([]int, n)
	for ci, a := range asms {
		offs[ci] = len(demands)
		if a == nil {
			continue
		}
		for _, k := range a.keys {
			demands = append(demands, a.cells[k].demand)
		}
	}

	// Cross-request cache: consult the engine-owned store per demand
	// before class batching. An exact-signature hit returns the stored
	// solution verbatim, which is what makes warm re-plans bit-identical
	// to the cold run that populated the cache.
	// SolverExact disables the flow bound inside the exact engine, which
	// changes which horizons are searched (and thus the node budget
	// spent), so the flag is part of the cache signature.
	noFlow := opts.SolverMode == SolverExact
	solveSig := fmt.Sprintf("e%.9g|g%d|t%d|s%d|fb%t",
		e, engine, opts.SolveTimeLimit.Nanoseconds(), opts.Seed, noFlow)
	// Hinted plans carry the hint in their signature so hinted and
	// unhinted solutions never collide in the memory or persist tiers.
	// Unhinted signatures are unchanged, keeping existing persisted
	// corpora valid.
	if h := opts.Hint.Canonical(); h != "" {
		solveSig += "|h=" + h
	}
	cached := make([]*solve.SubSchedule, len(demands))
	if opts.SolveCache != nil {
		parallelFor(len(demands), opts.Workers, func(i int) {
			cached[i] = opts.SolveCache.Lookup(demands[i], solveSig)
		})
		for i := range cached {
			if cached[i] != nil {
				stats.CrossCacheHits++
			}
		}
	}

	var repOf []int
	var mapFromRep []isomorph.Mapping
	if opts.DisableIsomorphCache {
		repOf = make([]int, len(demands))
		mapFromRep = make([]isomorph.Mapping, len(demands))
		for i, d := range demands {
			repOf[i] = i
			mapFromRep[i] = isomorph.Identity(d)
		}
	} else {
		repOf, mapFromRep = isomorph.Classes(demands)
	}
	reps := make([]int, 0, len(demands))
	for i := range demands {
		if repOf[i] == i {
			reps = append(reps, i)
		}
	}

	solveOpts := solve.Options{
		E:                e,
		Engine:           engine,
		TimeLimit:        opts.SolveTimeLimit,
		Seed:             opts.Seed,
		DisableFlowBound: noFlow,
	}

	// Solve each class representative once, in parallel; representatives
	// already served by the cross-request cache are skipped. Durations are
	// collected per slot and reduced serially below so MaxSolve does not
	// depend on goroutine interleaving.
	solved := make([]*solve.SubSchedule, len(demands))
	toSolve := make([]int, 0, len(reps))
	for _, i := range reps {
		if cached[i] != nil {
			solved[i] = cached[i]
		} else {
			toSolve = append(toSolve, i)
		}
	}
	durs := make([]time.Duration, len(demands))
	errs := make([]error, len(demands))
	parallelFor(len(toSolve), opts.Workers, func(k int) {
		i := toSolve[k]
		ws := span.ChildLane("solve.subdemand")
		ws.SetInt("demand", int64(i))
		so := solveOpts
		so.Span = ws
		start := time.Now()
		sub, err := solve.SolveCtx(ctx, demands[i], so)
		durs[i] = time.Since(start)
		ws.End()
		if err != nil {
			errs[i] = err // the class stays unsolved; its candidates drop out
			return
		}
		solved[i] = sub
	})
	for _, i := range toSolve {
		if solved[i] == nil {
			// Surface why the class failed, in deterministic demand
			// order, instead of silently dropping its candidates.
			// Cancellation is not an error condition (anytime path).
			if err := errs[i]; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				var tle *solve.TooLargeError
				if errors.As(err, &tle) {
					stats.TooLarge++
				}
				if msg := err.Error(); len(stats.SolveErrors) < maxSolveErrors && !containsString(stats.SolveErrors, msg) {
					stats.SolveErrors = append(stats.SolveErrors, msg)
				}
			}
			continue
		}
		stats.SolverCalls++
		stats.CacheMisses++
		opts.Obs.Count("cache.misses", 1)
		if durs[i] > stats.MaxSolve {
			stats.MaxSolve = durs[i]
		}
	}
	// Non-representatives whose class solved are served by mapping (the
	// in-run isomorphism cache; cross-request hits are counted by the
	// engine, not here).
	for i := range demands {
		if repOf[i] != i && cached[i] == nil && solved[repOf[i]] != nil {
			stats.CacheHits++
			opts.Obs.Count("cache.hits", 1)
		}
	}

	// Map, assemble, and simulate each candidate.
	parallelFor(n, opts.Workers, func(ci int) {
		a := asms[ci]
		if a == nil {
			return
		}
		cs := span.ChildLane("candidate")
		cs.SetInt("index", int64(ci))
		bycell := make(map[cellKey]*solve.SubSchedule, len(a.keys))
		for local, k := range a.keys {
			g := offs[ci] + local
			var sub *solve.SubSchedule
			switch {
			case cached[g] != nil:
				sub = cached[g]
			case repOf[g] == g:
				sub = solved[g]
			case solved[repOf[g]] != nil:
				sub = isomorph.MapSchedule(solved[repOf[g]], mapFromRep[g])
			}
			if sub == nil {
				cs.SetStr("outcome", "unrealizable")
				cs.End()
				return
			}
			// Each pooled demand belongs to exactly one candidate, so this
			// store runs once per demand. Cancelled passes skip the store:
			// see the function comment.
			if opts.SolveCache != nil && cached[g] == nil && ctx.Err() == nil {
				opts.SolveCache.Store(demands[g], solveSig, sub)
			}
			bycell[k] = sub
		}
		sched, err := a.build(bycell)
		if err != nil {
			cs.SetStr("outcome", "unrealizable")
			cs.End()
			return
		}
		// Simulation of an assembled candidate is cheap and bounded;
		// honoring the context here would discard completed solver work
		// and break the anytime guarantee, so it runs to completion.
		r, err := sim.Simulate(top, sched, opts.Sim)
		if err != nil {
			cs.SetStr("outcome", "sim-failed")
			cs.End()
			return
		}
		cs.SetFloat("time", r.Time)
		cs.End()
		out[ci] = realized{sched: sched, time: r.Time, ok: true}
		// Publish as soon as the candidate is simulated: the stream is
		// anytime, so waiting for the pass barrier would only delay it.
		pub.offer(sched, r.Time, source, engineName, combos[ci])
	})
	return out
}

// maxSolveErrors caps the distinct solver errors surfaced per pass so a
// pathological run cannot grow Stats without bound.
const maxSolveErrors = 8

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// parallelFor runs fn(0..n-1) on up to workers goroutines, pulling
// indices from a shared atomic counter. Callers write results into
// index-slotted arrays, so scheduling order never leaks into outputs.
func parallelFor(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
