package core

import (
	"context"
	"math"

	"syccl/internal/collective"
	"syccl/internal/isomorph"
	"syccl/internal/obs"
	"syccl/internal/sketch"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// Flow-relaxation candidate pruning: between the coarse and fine passes,
// each surviving candidate gets a provable lower bound on the simulated
// completion time of ANY schedule realizing its combination. Candidates
// whose bound already exceeds the incumbent's simulated coarse time can
// never win the fine pass (fine times only count when strictly better
// than the incumbent's), so their MILPs are never built. When the
// incumbent itself meets its own bound and every rival is pruned, the
// fine pass is skipped entirely — the coarse schedule is optimal under
// the port model and the run reports ProvedOptimal.
//
// The bound combines three sound ingredients:
//
//   - per cell, the seconds-domain flow relaxation solve.FlowTimeBound
//     (LP port work in β·b units plus one α tail), valid against the α-β
//     simulator regardless of epoch discretization or block pipelining,
//     since every required delivery still moves its full payload through
//     the destination's ingress port;
//   - across stages, required-delivery ingress load summed per physical
//     (dimension, GPU) port: cells of different stages in the same
//     dimension contend for the same ports, so their loads add;
//   - per piece, an arrival chain: a stage's transfer of a piece cannot
//     start before some designated source holds it, so walking cells in
//     stage order and propagating min-over-sources arrival plus one
//     α+β·b hop lower-bounds the piece's last delivery. Unknown sources
//     (original holders) contribute 0, keeping the chain conservative.
//
// Pruning is deterministic (the LP is) and strictly conservative: a
// candidate is dropped only when its bound strictly exceeds the
// incumbent's achieved time, so the fine-pass winner — and the final
// schedule bytes — are identical with and without pruning, for any
// Workers setting. A cancelled bound LP yields 0 (no bound, keep the
// candidate); anytime semantics are unaffected.

// boundSig versions the seconds-domain bound in the engine's bound
// cache. The bound depends only on the demand (isomorph keys embed α, β,
// and the piece structure), so the signature is a formulation tag.
const boundSig = "sec1"

// boundMemo is the BoundCache of a run without a cross-request one.
// Symmetric cells (one per server, say) carry literally identical
// demands, so without it every candidate re-solves the same flow LP once
// per copy. Keys match the engine's bound cache, so a memoized run
// prunes exactly as an engine-backed one does. Not safe for concurrent
// use: pruneByBound computes bounds sequentially.
type boundMemo map[string]float64

func (m boundMemo) Lookup(d *solve.Demand, sig string) (float64, bool) {
	v, ok := m[isomorph.ExactKey(d)+"|"+sig]
	return v, ok
}

func (m boundMemo) Store(d *solve.Demand, sig string, bound float64) {
	m[isomorph.ExactKey(d)+"|"+sig] = bound
}

// demandTimeBound returns the cached-or-computed seconds lower bound for
// one cell demand, or 0 when unavailable (cancelled LP).
func demandTimeBound(ctx context.Context, d *solve.Demand, opts Options) float64 {
	if opts.BoundCache != nil {
		if v, ok := opts.BoundCache.Lookup(d, boundSig); ok {
			return v
		}
	}
	sec, _, err := solve.FlowTimeBound(ctx, d)
	if err != nil {
		return 0
	}
	if opts.BoundCache != nil && ctx.Err() == nil {
		opts.BoundCache.Store(d, boundSig, sec)
	}
	return sec
}

// candidateTimeBound bounds the simulated completion time of any
// schedule realizing the combination, or returns 0 when no bound is
// available (nil combination — injected fixed schedules — or an
// unrealizable assembly).
func candidateTimeBound(ctx context.Context, top *topology.Topology, col *collective.Collective,
	combo *sketch.Combination, opts Options) float64 {

	if combo == nil {
		return 0
	}
	a, err := newAssembly(top, col, combo)
	if err != nil {
		return 0
	}
	best := 0.0
	type port struct{ dim, gpu int }
	type delivery struct{ dim, piece, gpu int }
	type arrival struct{ piece, gpu int }
	load := make(map[port]float64)
	alphaOf := make(map[port]float64)
	seen := make(map[delivery]bool)
	arr := make(map[arrival]float64)
	// a.keys is sorted by ascending stage, so arrival chains propagate
	// forward; same-stage cells processed out of dependency order only
	// loosen the chain (unseen sources read as 0), never tighten it.
	for _, k := range a.keys {
		cd := a.cells[k]
		if sec := demandTimeBound(ctx, cd.demand, opts); sec > best {
			best = sec
		}
		dim := top.Dim(k.dim)
		alpha, beta := dim.AlphaOf(k.group), dim.BetaOf(k.group)
		for _, p := range cd.demand.Pieces {
			start := math.Inf(1)
			for _, s := range p.Srcs {
				if v := arr[arrival{p.ID, cd.gpus[s]}]; v < start {
					start = v
				}
			}
			if math.IsInf(start, 1) {
				start = 0
			}
			hop := start + alpha + beta*p.Bytes
			for _, j := range p.Dsts {
				d := delivery{k.dim, p.ID, cd.gpus[j]}
				if !seen[d] {
					seen[d] = true
					pk := port{k.dim, cd.gpus[j]}
					load[pk] += beta * p.Bytes
					alphaOf[pk] = alpha
				}
				ak := arrival{p.ID, cd.gpus[j]}
				if old, ok := arr[ak]; !ok || hop < old {
					arr[ak] = hop
				}
			}
		}
	}
	for pt, l := range load {
		if v := l + alphaOf[pt]; v > best {
			best = v
		}
	}
	for _, v := range arr {
		if v > best {
			best = v
		}
	}
	return best
}

// pruneByBound drops every non-incumbent candidate whose flow bound
// proves it cannot beat the incumbent's coarse simulated time, and
// reports whether the incumbent's optimality is proved (its own bound
// met and no rival left). keep must be sorted by ascending time with at
// least one entry; the returned slice preserves order. The incumbent's
// own lower bound is returned (0 when unavailable) for the StopWithin
// gate and for incumbent-stream events.
func pruneByBound(ctx context.Context, top *topology.Topology, col *collective.Collective,
	keep []*candidate, opts Options, stats *Stats, parent *obs.Span) ([]*candidate, bool, float64) {

	bs := parent.Child("solve.bound")
	defer bs.End()
	if opts.BoundCache == nil {
		opts.BoundCache = boundMemo{}
	}
	incumbent := keep[0]
	incLB := candidateTimeBound(ctx, top, col, incumbent.combo, opts)
	if incLB > 0 {
		stats.BoundsComputed++
	}
	kept := keep[:1:1]
	for _, c := range keep[1:] {
		lb := candidateTimeBound(ctx, top, col, c.combo, opts)
		if lb > 0 {
			stats.BoundsComputed++
		}
		if lb > incumbent.time {
			stats.PrunedLB++
			continue
		}
		kept = append(kept, c)
	}
	opts.Obs.Count("candidates.pruned_lb", float64(stats.PrunedLB))
	bs.SetInt("bounds", int64(stats.BoundsComputed))
	bs.SetInt("pruned", int64(stats.PrunedLB))
	bs.SetFloat("incumbent-lb", incLB)
	proved := incLB > 0 && incumbent.time <= incLB*(1+1e-9) && len(kept) == 1
	if proved {
		bs.SetStr("outcome", "proved-optimal")
	}
	return kept, proved, incLB
}
