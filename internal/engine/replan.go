package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
)

// InvalidatingTier is optionally implemented by a PersistTier that can
// drop stored entries whose keys match a set of prefixes (persist.Store
// implements it). Replan uses it to extend selective invalidation to the
// disk tier.
type InvalidatingTier interface {
	InvalidateMatching(prefixes []string) int
}

// ReplanResult carries a replanned schedule plus the fault-reactive
// bookkeeping: what the delta touched, what was invalidated, and how much
// of the new plan was replayed from cache.
type ReplanResult struct {
	*core.Result

	// Degraded is the topology after the delta; the Result's schedule is
	// valid on (and simulated against) this topology.
	Degraded *topology.Topology

	// TouchedGroups / TotalGroups count dimension groups of the base
	// topology whose membership or α/β the delta changed, over all groups.
	TouchedGroups int
	TotalGroups   int

	// Invalidated counts cache entries dropped across the memory and
	// persist tiers because their demand shape no longer exists anywhere
	// in the degraded fabric.
	Invalidated int

	// ReusedSubs counts sub-demands of the replanned schedule served
	// directly from the cross-request cache tiers; SolvedSubs counts
	// those that required a fresh solver call. Untouched groups reuse,
	// touched groups solve.
	ReusedSubs int
	SolvedSubs int
}

// ReuseRatio is the fraction of sub-demands replayed from cache, in
// [0, 1]; zero when the plan pooled no sub-demands.
func (r *ReplanResult) ReuseRatio() float64 {
	total := r.ReusedSubs + r.SolvedSubs
	if total == 0 {
		return 0
	}
	return float64(r.ReusedSubs) / float64(total)
}

// Replan is the fault-reactive fast path: apply a topology delta to a
// base topology, selectively invalidate the cache entries the delta made
// unreachable, and synthesize the collective on the degraded topology.
//
// Sub-demands are content-addressed by (group size, α, β, pieces), so
// groups the delta did not touch hash to their healthy keys and replay
// bit-identically from the engine's memory/persist tiers with zero
// solver calls; only the touched groups' new demand shapes reach the
// solver. Invalidation is a staleness policy, never a correctness
// requirement: an entry is dropped only when no group of the degraded
// topology can still produce its demand prefix (an entry shared with an
// untouched group — the common single-fault case — is kept, because the
// untouched groups still replay through it).
func (e *Engine) Replan(ctx context.Context, base *topology.Topology, delta *topology.Delta, col *collective.Collective, opts core.Options) (*ReplanResult, error) {
	e.replans.Add(1)
	degraded, err := delta.Apply(base)
	if err != nil {
		e.replansErr.Add(1)
		e.mReplanError.Inc()
		return nil, fmt.Errorf("replan: %w", err)
	}

	touched, total, stale := diffGroups(base, degraded)
	invalidated := 0
	if len(stale) > 0 {
		invalidated = e.Invalidate(stale)
	}

	res, err := e.Plan(ctx, degraded, col, opts)
	rr := &ReplanResult{
		Result:        res,
		Degraded:      degraded,
		TouchedGroups: touched,
		TotalGroups:   total,
		Invalidated:   invalidated,
	}
	if res != nil {
		rr.ReusedSubs = res.Stats.CrossCacheHits
		rr.SolvedSubs = res.Stats.SolverCalls
	}

	e.replanReused.Add(int64(rr.ReusedSubs))
	e.replanInvalidated.Add(int64(invalidated))
	switch {
	case err != nil:
		e.replansErr.Add(1)
		e.mReplanError.Inc()
	case res != nil && res.Partial:
		e.mReplanPartial.Inc()
	default:
		e.mReplanOK.Inc()
	}
	if err != nil {
		return rr, err
	}
	e.mReplanReuse.Observe(rr.ReuseRatio())
	return rr, nil
}

// diffGroups compares the base and degraded topologies group by group.
// It returns the number of base groups the delta touched (membership or
// α/β changed, or the whole dimension collapsed), the total base group
// count, and the key prefixes — exact and iso — of touched demand shapes
// that no surviving group can still produce (the stale set to
// invalidate).
func diffGroups(base, degraded *topology.Topology) (touched, total int, stale []string) {
	type shape struct {
		n    int
		a, b float64
	}
	groupSig := func(d *topology.Dim, g int) string {
		var sb strings.Builder
		for _, gpu := range d.Groups[g] {
			fmt.Fprintf(&sb, "%d.", gpu)
		}
		fmt.Fprintf(&sb, "a%.17g,b%.17g", d.AlphaOf(g), d.BetaOf(g))
		return sb.String()
	}

	degByTier := make(map[int]*topology.Dim, degraded.NumDims())
	for _, d := range degraded.Dims {
		degByTier[d.Tier] = d
	}

	// Every demand shape the degraded fabric can still produce stays live.
	live := make(map[shape]bool)
	for _, d := range degraded.Dims {
		for g := range d.Groups {
			live[shape{len(d.Groups[g]), d.AlphaOf(g), d.BetaOf(g)}] = true
		}
	}

	staleShapes := make(map[shape]bool)
	for _, bd := range base.Dims {
		dd := degByTier[bd.Tier]
		degSigs := make(map[string]bool)
		if dd != nil {
			for g := range dd.Groups {
				degSigs[groupSig(dd, g)] = true
			}
		}
		for g := range bd.Groups {
			total++
			if dd != nil && degSigs[groupSig(bd, g)] {
				continue
			}
			touched++
			sh := shape{len(bd.Groups[g]), bd.AlphaOf(g), bd.BetaOf(g)}
			if !live[sh] {
				staleShapes[sh] = true
			}
		}
	}

	for sh := range staleShapes {
		// Prefixes of isomorph.ExactKey and isomorph.Key respectively;
		// cache keys are <demand key>|<solve signature>, so a prefix match
		// covers every signature variant.
		stale = append(stale,
			fmt.Sprintf("n%d;a%.9g;b%.9g;", sh.n, sh.a, sh.b),
			fmt.Sprintf("n%d;a%.6g;b%.6g;", sh.n, sh.a, sh.b),
		)
	}
	sort.Strings(stale)
	return touched, total, stale
}

// Invalidate drops every solve-cache and bound-cache entry (memory and,
// when the persist tier supports it, disk) whose exact or iso key starts
// with one of the prefixes. It returns the number of entries removed.
// Dropping entries never affects correctness — caches are
// content-addressed — only warm-start coverage.
func (e *Engine) Invalidate(prefixes []string) int {
	if len(prefixes) == 0 {
		return 0
	}
	matches := func(exactKey, isoKey string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(exactKey, p) || strings.HasPrefix(isoKey, p) {
				return true
			}
		}
		return false
	}

	removed := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for _, victim := range s.lru.RemoveIf(func(exact string, ent *solveEntry) bool { return matches(exact, ent.isoKey) }) {
			s.unindex(victim)
			removed++
		}
		s.mu.Unlock()
	}

	e.boundMu.Lock()
	for _, victim := range e.bounds.RemoveIf(func(exact string, ent *boundEntry) bool { return matches(exact, ent.isoKey) }) {
		e.unindexBound(victim)
		removed++
	}
	e.boundMu.Unlock()

	if it, ok := e.opts.Persist.(InvalidatingTier); ok && e.opts.Persist != nil {
		removed += it.InvalidateMatching(prefixes)
	}
	return removed
}
