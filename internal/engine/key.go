package engine

import (
	"fmt"
	"hash/fnv"
	"strings"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
)

// PlanKey returns a canonical identity string for a Plan request: two
// requests with equal keys are guaranteed to produce byte-identical
// schedules on a warm engine, so the key is safe to use for request
// coalescing (internal/serve single-flights concurrent duplicates on it)
// and for addressing stored results.
//
// The key covers everything that influences the synthesized schedule:
// the topology fingerprint, the full collective demand (kind, shape,
// chunk size, root, and the exact chunk source/destination sets), and
// the solve-relevant options. Options.Workers is deliberately excluded —
// schedules are byte-identical across worker counts (see
// Options.SolveTimeLimit) — as are the pure observability
// and cache-wiring fields (Obs, SolveCache, SketchCache, Sim ranking
// options are fixed by the caller, not the request).
//
// Callers that accept user-supplied options should normalize them (fill
// defaults) before keying: PlanKey hashes the literal field values, so
// E1=0 ("use the default") and E1=3.0 (the default, spelled out) produce
// different keys even though they run identically.
func PlanKey(top *topology.Topology, col *collective.Collective, opts core.Options) string {
	var sb strings.Builder
	sb.WriteString(top.Fingerprint())
	fmt.Fprintf(&sb, "|%s|n%d|s%.9g|root%d|red%t|c%016x",
		col.Kind, col.NumGPUs, col.ChunkSize, col.Root, col.Reduce, chunkDigest(col))
	fmt.Fprintf(&sb, "|e1=%.9g|e2=%.9g|r1=%.9g|r2=%d|mc=%d|seed=%d|eng=%d|tl=%d|2s=%t|iso=%t",
		opts.E1, opts.E2, opts.R1, opts.R2, opts.MaxCombos, opts.Seed,
		int(opts.Engine), int64(opts.SolveTimeLimit), opts.DisableTwoStep, opts.DisableIsomorphCache)
	// A sketch hint filters the candidate space and StopWithin can end
	// the pipeline at the coarse/fine boundary, so both are part of plan
	// identity. Appended only when set: unhinted keys keep their
	// historical format, so stored-schedule snapshots from older runs
	// stay addressable.
	if h := opts.Hint.Canonical(); h != "" {
		fmt.Fprintf(&sb, "|hint=%s", h)
	}
	if opts.StopWithin > 0 {
		fmt.Fprintf(&sb, "|sw=%.9g", opts.StopWithin)
	}
	return sb.String()
}

// chunkDigest hashes the collective's chunk structure (ID, source, and
// destination set per chunk) so demands that differ only in their F_s/F_d
// maps key differently without embedding the full chunk list.
func chunkDigest(col *collective.Collective) uint64 {
	h := fnv.New64a()
	for _, ch := range col.Chunks {
		fmt.Fprintf(h, "%d:%d:", ch.ID, ch.Src)
		for _, d := range ch.Dsts {
			fmt.Fprintf(h, "%d,", d)
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}
