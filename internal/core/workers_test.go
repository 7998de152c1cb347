package core

import (
	"fmt"
	"testing"

	"syccl/internal/collective"
	"syccl/internal/solve"
	"syccl/internal/topology"
)

// scheduleFingerprint renders every transfer so two schedules can be
// compared byte-for-byte, not just by predicted time.
func scheduleFingerprint(res *Result) string {
	s := fmt.Sprintf("time=%.12g epochs? n=%d\n", res.Time, res.Schedule.NumGPUs)
	for i, tr := range res.Schedule.Transfers {
		s += fmt.Sprintf("%d: %+v\n", i, tr)
	}
	return s
}

// TestSynthesizeDeterministicAcrossWorkers: candidate realization fans
// out over Workers goroutines, but schedules, predicted times, and cache
// statistics must be identical for any worker count — the contract that
// makes parallel synthesis safe to enable by default.
func TestSynthesizeDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name string
		top  *topology.Topology
		mk   func(n int) *collective.Collective
	}{
		{"allgather", topology.H800Small(2), func(n int) *collective.Collective {
			return collective.AllGather(n, 1<<20)
		}},
		{"alltoall", topology.H800Small(2), func(n int) *collective.Collective {
			return collective.AlltoAll(n, 1<<18)
		}},
		{"broadcast", topology.A100Clos(2), func(n int) *collective.Collective {
			return collective.Broadcast(n, 0, 1<<20)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := tc.mk(tc.top.NumGPUs())
			var refFP string
			var refStats Stats
			for _, workers := range []int{1, 2, 8} {
				res := synth(t, tc.top, col, Options{Seed: 7, Workers: workers})
				fp := scheduleFingerprint(res)
				if refFP == "" {
					refFP, refStats = fp, res.Stats
					continue
				}
				if fp != refFP {
					t.Errorf("workers=%d: schedule differs from workers=1", workers)
				}
				if res.Stats.SolverCalls != refStats.SolverCalls ||
					res.Stats.CacheHits != refStats.CacheHits ||
					res.Stats.CacheMisses != refStats.CacheMisses {
					t.Errorf("workers=%d: stats %+v, workers=1 gave %+v", workers, res.Stats, refStats)
				}
			}
		})
	}
}

// TestSynthesizeDeterministicAcrossMILPWorkers: with the exact
// branch-and-bound engine on every sub-demand, two runs of the same
// request synthesize the same schedule.
func TestSynthesizeDeterministicAcrossMILPWorkers(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	opts := Options{Seed: 7, Engine: solve.EngineExact}
	if a, b := scheduleFingerprint(synth(t, top, col, opts)), scheduleFingerprint(synth(t, top, col, opts)); a != b {
		t.Error("exact-engine schedule differs between runs")
	}
}
