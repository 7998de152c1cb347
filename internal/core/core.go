// Package core implements the SyCCL synthesizer: the two-phase pipeline
// of Fig 6 that explores sketches (§4), synthesizes sub-schedules with the
// epoch solver (§5.1), merges them into complete schedules, ranks them
// with the α-β simulator (§5.2), and accelerates everything with two-step
// synthesis, isomorphism caching, and parallel solving (§5.3).
package core

import (
	"fmt"
	"runtime"
	"time"

	"syccl/internal/collective"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/sim"
	"syccl/internal/sketch"
	"syccl/internal/solve"
)

// Options configures a synthesis run. The defaults match the paper's
// evaluation setup (§7.1): E1=3.0, E2=0.5, R1=20%, R2=8.
type Options struct {
	// E1 is the coarse-pass epoch knob, E2 the fine-pass one.
	E1, E2 float64
	// R1 is the relative-performance filter after the coarse pass: drop
	// candidates more than R1 worse than the best.
	R1 float64
	// R2 caps the candidates refined in the fine pass.
	R2 int
	// Workers bounds the synthesis-level parallelism: candidate
	// assembly/simulation and sub-demand solving all fan out over this
	// many goroutines (default GOMAXPROCS). Results are deterministic
	// for any value.
	Workers int
	// MaxCombos caps the candidate combinations evaluated (default 12).
	MaxCombos int
	// Search configures sketch exploration (pruning toggles, stage
	// limits — the Fig 17 ablations).
	Search sketch.SearchOptions
	// Engine overrides the sub-demand solving engine (default auto).
	Engine solve.Engine
	// SolverMode selects the solver strategy family (the -solver CLI
	// knob). SolverAuto (default) runs the exact MILP with
	// flow-relaxation bound pruning — candidates and horizons the LP
	// bound proves hopeless are skipped — and hands instances over the
	// MaxBinaries gate to the flow backend. SolverExact disables every
	// flow component (pure MILP; oversized demands fail their candidates
	// and surface in Stats). SolverFlow uses the flow backend for every
	// sub-demand. An explicit Engine override takes precedence over the
	// engine the mode implies.
	SolverMode SolverMode
	// SolveTimeLimit, when positive, wall-clock-caps each exact
	// sub-demand solve (truncated refinement keeps the greedy
	// incumbent). The default 0 leaves the exact engine bounded only by
	// its deterministic effort limits (the MaxBinaries size gate plus
	// per-solve node and simplex-pivot budgets), which is what keeps schedules
	// byte-identical across Workers counts: wall-clock truncation fires
	// at load-dependent points, so setting this trades reproducibility
	// for a hard per-solve latency bound.
	SolveTimeLimit time.Duration
	// Seed drives randomized components.
	Seed int64
	// DisableTwoStep solves every candidate at E2 directly (ablation).
	DisableTwoStep bool
	// DisableIsomorphCache solves every sub-demand separately (§5.3
	// ablation).
	DisableIsomorphCache bool
	// Sim configures the ranking simulator.
	Sim sim.Options
	// Obs optionally records the run: hierarchical spans over every
	// pipeline phase, solver and cache counters, and per-candidate
	// timings, exportable as a Chrome trace (internal/obs). Nil disables
	// all instrumentation at zero cost.
	Obs *obs.Recorder
	// SolveCache optionally serves sub-demand solutions across synthesis
	// requests (internal/engine owns the implementation). Nil disables
	// cross-request reuse; the per-run isomorphism batching is unaffected.
	SolveCache SolveCache
	// SketchCache optionally serves sketch-search results across requests,
	// keyed by topology fingerprint. Nil disables reuse.
	SketchCache SketchCache
	// BoundCache optionally serves flow lower bounds across requests
	// (internal/engine owns the implementation), so warm requests prune
	// candidates without re-solving the bound LPs. Nil disables reuse.
	BoundCache BoundCache
	// OnIncumbent, when non-nil, receives every incumbent the pipeline
	// publishes: a fully validated schedule for the requested collective
	// that strictly beats every previously published one. Calls are
	// serialized (never concurrent) but may come from worker goroutines,
	// so the callback must be fast and must not call back into the
	// synthesizer. The stream is opportunistic — which intermediate
	// incumbents appear can vary run to run with Workers — but each
	// published Time strictly decreases, and the synthesis result itself
	// stays byte-identical: publication never influences candidate
	// selection. No final event is emitted; the returned Result is the
	// final incumbent (its Time is ≤ the last published one).
	OnIncumbent func(Incumbent)
	// Hint optionally constrains the sketch search (TACCL-style
	// communication sketches): dimension order, per-stage group sizes,
	// algorithm family. withDefaults folds it into Search.Hint; it is
	// validated against the topology before search. Hinted runs use
	// distinct solve/sketch cache signatures (see Hint.Canonical), so
	// hinted and unhinted plans never collide in shared caches.
	Hint *sketch.Hint
	// StopWithin, when positive, enables early termination at the
	// coarse/fine boundary: if the coarse incumbent's simulated time is
	// within StopWithin (relative, e.g. 0.05 = 5%) of its flow lower
	// bound, the fine pass is skipped and the coarse schedule returned
	// with Stats.StoppedEarly set. The check runs at a deterministic
	// pipeline boundary, so results remain byte-identical across Workers.
	// No-op under SolverExact (no flow bounds are computed).
	StopWithin float64
}

// Incumbent is one published best-so-far schedule: a complete, validated
// schedule for the requested collective together with its provenance.
// Streamed through Options.OnIncumbent.
type Incumbent struct {
	// Schedule is fully validated against the requested collective (for
	// mirrored and AllReduce collectives it is the finished mirrored or
	// concatenated schedule, not the internal forward one).
	Schedule *schedule.Schedule
	// Time is the simulator-predicted completion time in seconds;
	// strictly decreasing across the published stream.
	Time float64
	// Bound is the best known flow lower bound for the plan at publish
	// time (0 until bounds are computed, and always 0 under SolverExact).
	Bound float64
	// Source names the pipeline stage that produced the schedule:
	// "direct" (routed one-to-one), "coarse", "ring" (injected NCCL
	// ring), or "fine".
	Source string
	// Engine is the sub-demand engine of the producing pass ("greedy",
	// "exact", "flow", ...), or "" where no solver ran.
	Engine string
	// Combination is the sketch combination behind the schedule (nil for
	// injected or routed schedules, and for mirrored/concatenated
	// collectives where the forward combination applied).
	Combination *sketch.Combination
	// Seq numbers the stream from 1.
	Seq int
}

// SolverMode selects the solver strategy family for sub-demand solving.
type SolverMode int

// Solver modes (the -solver CLI knob).
const (
	// SolverAuto: exact MILP with flow-bound pruning, flow backend
	// fallback above the MaxBinaries gate.
	SolverAuto SolverMode = iota
	// SolverExact: exact MILP only; no flow bounds, no fallback.
	SolverExact
	// SolverFlow: flow-relaxation backend for every sub-demand.
	SolverFlow
)

func (m SolverMode) String() string {
	switch m {
	case SolverAuto:
		return "auto"
	case SolverExact:
		return "exact"
	case SolverFlow:
		return "flow"
	default:
		return "unknown"
	}
}

// ParseSolverMode parses the -solver flag value.
func ParseSolverMode(s string) (SolverMode, error) {
	switch s {
	case "", "auto":
		return SolverAuto, nil
	case "exact":
		return SolverExact, nil
	case "flow":
		return SolverFlow, nil
	}
	return 0, fmt.Errorf("core: unknown solver mode %q (want auto, exact, or flow)", s)
}

// BoundCache is a cross-request store of flow lower bounds, keyed by
// demand identity plus a bound-formulation signature. Implementations
// must be safe for concurrent use and must not retain the caller's
// demand after either call returns.
type BoundCache interface {
	Lookup(d *solve.Demand, sig string) (float64, bool)
	Store(d *solve.Demand, sig string, bound float64)
}

// SolveCache is a cross-request store of solved sub-schedules. Lookup
// must return a sub-schedule that satisfies d under the given solve-option
// signature — verbatim for an exact signature match (this is what makes
// warm re-plans bit-identical), or remapped by the implementation for an
// isomorphic match — and nil on a miss. Implementations must be safe for
// concurrent use and must not retain or mutate the caller's arguments
// after Store returns.
type SolveCache interface {
	Lookup(d *solve.Demand, optsSig string) *solve.SubSchedule
	Store(d *solve.Demand, optsSig string, s *solve.SubSchedule)
}

// SketchCache is a cross-request store of sketch-search results. Lookup
// reports a hit with ok=true (an empty sketch list is a valid cached
// result). Returned sketches may be read freely but must not be mutated.
// Implementations must be safe for concurrent use.
type SketchCache interface {
	Lookup(key string) (sketches []*sketch.Sketch, ok bool)
	Store(key string, sketches []*sketch.Sketch)
}

func (o Options) withDefaults() Options {
	if o.E1 <= 0 {
		o.E1 = 3.0
	}
	if o.E2 <= 0 {
		o.E2 = 0.5
	}
	if o.R1 <= 0 {
		o.R1 = 0.20
	}
	if o.R2 <= 0 {
		o.R2 = 8
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxCombos <= 0 {
		o.MaxCombos = 12
	}
	if o.Sim.IsZero() {
		o.Sim = sim.DefaultOptions()
	}
	if o.Hint != nil && o.Search.Hint == nil {
		o.Search.Hint = o.Hint
	}
	// Fan the recorder out to the sub-systems that accept one, unless the
	// caller wired its own.
	if o.Obs != nil {
		if o.Sim.Rec == nil {
			o.Sim.Rec = o.Obs
		}
		if o.Search.Rec == nil {
			o.Search.Rec = o.Obs
		}
	}
	return o
}

// Phases records where synthesis time went (Fig 16b).
type Phases struct {
	Search  time.Duration // sketch exploration (§4.1)
	Combine time.Duration // replication + integration (§4.2/4.3)
	Solve1  time.Duration // coarse-pass sub-schedule synthesis
	Solve2  time.Duration // fine-pass sub-schedule synthesis
}

// Total sums all phases.
func (p Phases) Total() time.Duration { return p.Search + p.Combine + p.Solve1 + p.Solve2 }

// Stats reports synthesis internals.
type Stats struct {
	Sketches    int // sketches emitted by the search
	Candidates  int // combinations evaluated in the coarse pass
	Refined     int // combinations refined in the fine pass
	SolverCalls int // sub-demand solves actually executed
	CacheHits   int // sub-demands served by isomorphism mapping
	CacheMisses int // sub-demands that fell through to a solver call
	// CrossCacheHits counts sub-demands served directly by the
	// cross-request solve cache (the engine's memory/persist tiers)
	// before any in-run solving; replan reuse accounting reads it.
	CrossCacheHits int
	MaxSolve       time.Duration // longest single sub-demand solve (Fig 17c)
	// BoundsComputed counts candidate flow lower bounds evaluated
	// between the coarse and fine passes; PrunedLB counts the candidates
	// those bounds eliminated before any fine-pass MILP was built.
	BoundsComputed int
	PrunedLB       int
	// ProvedOptimal reports that the fine pass was skipped entirely:
	// the coarse incumbent met its own flow lower bound and every rival
	// was bound-pruned, so no schedule under the port model can do
	// better.
	ProvedOptimal bool
	// StoppedEarly reports that Options.StopWithin fired: the coarse
	// incumbent was within the configured gap of its flow lower bound,
	// so the fine pass was skipped. The result is complete (not
	// Partial) — the knob trades potential fine-pass improvement for
	// latency, deterministically.
	StoppedEarly bool
	// TooLarge counts sub-demand solves rejected at the exact engine's
	// MaxBinaries size gate (SolverExact mode — SolverAuto reroutes
	// these to the flow backend instead). SolveErrors carries the
	// distinct solver error messages behind failed candidates, in
	// deterministic order, so oversized instances are diagnosable
	// instead of silently dropping candidates.
	TooLarge    int
	SolveErrors []string
}

// Result is a synthesized schedule with its predicted performance.
type Result struct {
	Schedule *schedule.Schedule
	// Time is the simulator-predicted completion time in seconds.
	Time float64
	// Combination is the winning sketch combination (nil for mirrored
	// or concatenated schedules where the forward combination applied).
	Combination *sketch.Combination
	Phases      Phases
	Stats       Stats
	// Partial marks an anytime result: the context was cancelled or its
	// deadline expired mid-synthesis, and Schedule is the best fully
	// validated candidate found by then rather than the full pipeline's
	// choice. Partial schedules are still complete, correct schedules.
	Partial bool
}

// fineEngine resolves the sub-demand engine for accuracy-critical passes
// (the fine pass, and every pass when two-step synthesis is disabled):
// an explicit Engine override wins, otherwise the solver mode decides.
// The coarse pass stays on greedy regardless of mode — it only ranks
// candidates, and mode selection concerns how survivors are refined.
func (o Options) fineEngine() solve.Engine {
	if o.Engine != solve.EngineAuto {
		return o.Engine
	}
	switch o.SolverMode {
	case SolverExact:
		return solve.EngineExact
	case SolverFlow:
		return solve.EngineFlow
	default:
		return solve.EngineAuto
	}
}

// candidate is one sketch combination under evaluation. source and
// engine record which pass produced the schedule — provenance for the
// incumbent published when the candidate wins the pipeline.
type candidate struct {
	combo  *sketch.Combination
	sched  *schedule.Schedule
	time   float64
	source string
	engine string
}

func kindForward(k collective.Kind) (forward collective.Kind, mirrored bool) {
	switch k {
	case collective.KindReduce:
		return collective.KindBroadcast, true
	case collective.KindGather:
		return collective.KindScatter, true
	case collective.KindReduceScatter:
		return collective.KindAllGather, true
	default:
		return k, false
	}
}
