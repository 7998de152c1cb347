package engine

import (
	"testing"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
)

// TestPlanKeyCoalescingContract pins what PlanKey must and must not
// distinguish: worker counts coalesce (schedules are byte-identical
// across them), while anything that changes the synthesized schedule —
// topology shape, demand, seed, epoch knobs — must split the key.
func TestPlanKeyCoalescingContract(t *testing.T) {
	top := topology.SingleServer(4)
	col := collective.AllGather(4, 1<<20)
	base := core.Options{E1: 3.0, E2: 0.5, Workers: 1}

	key := PlanKey(top, col, base)
	if key == "" {
		t.Fatal("empty key")
	}

	// Same request, rebuilt values: identical key.
	if k := PlanKey(topology.SingleServer(4), collective.AllGather(4, 1<<20), base); k != key {
		t.Fatalf("rebuilt request keyed differently:\n%s\n%s", key, k)
	}

	// The worker count is excluded: it never changes the schedule.
	w8 := base
	w8.Workers = 8
	if k := PlanKey(top, col, w8); k != key {
		t.Fatal("Workers changed the key")
	}

	// Everything schedule-relevant must split the key.
	diff := map[string]string{
		"topology": PlanKey(topology.SingleServer(8), collective.AllGather(8, 1<<20), base),
		"kind":     PlanKey(top, collective.ReduceScatter(4, 1<<20), base),
		"size":     PlanKey(top, collective.AllGather(4, 1<<21), base),
		"root":     PlanKey(top, collective.Broadcast(4, 1, 1<<20), base),
	}
	seedOpts := base
	seedOpts.Seed = 7
	diff["seed"] = PlanKey(top, col, seedOpts)
	e1Opts := base
	e1Opts.E1 = 2.0
	diff["e1"] = PlanKey(top, col, e1Opts)
	seen := map[string]string{key: "base"}
	for what, k := range diff {
		if prev, ok := seen[k]; ok {
			t.Fatalf("%s collides with %s: %s", what, prev, k)
		}
		seen[k] = what
	}

	// Two Broadcasts from different roots differ only in the chunk maps:
	// the digest must separate them.
	b0 := PlanKey(top, collective.Broadcast(4, 0, 1<<20), base)
	b1 := PlanKey(top, collective.Broadcast(4, 1, 1<<20), base)
	if b0 == b1 {
		t.Fatal("chunk digest missed a root change")
	}
}
