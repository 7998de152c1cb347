package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/nccl"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/serve"
	"syccl/internal/sim"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// simTolerance is the relative gap allowed between the served
// predicted_time_s and a fresh simulation of the served schedule.
const simTolerance = 1e-9

// gate re-checks every distinct schedule the benchmark is served, always
// outside the timed intervals: the chunk-replay oracle
// (verify.CheckSchedule, or CheckAllReduce for AllReduce) must accept it,
// and sim.Simulate on the request's topology — the degraded one for
// replans — must reproduce the predicted time.
type gate struct {
	tops    map[string]*topology.Topology
	seen    map[string]bool
	checked int
	invalid []string
	checkMS []float64 // oracle time per schedule
	simMS   []float64 // simulation time per schedule
}

func newGate() *gate {
	return &gate{tops: make(map[string]*topology.Topology), seen: make(map[string]bool)}
}

// resolve builds the topology and collective a demand names.
func (g *gate) resolve(d demand) (*topology.Topology, *collective.Collective, error) {
	tk := d.Topology + "|" + d.Delta
	top, ok := g.tops[tk]
	if !ok {
		base, err := cli.ParseTopology(d.Topology)
		if err != nil {
			return nil, nil, err
		}
		top = base
		if d.Delta != "" {
			delta, err := topology.ParseDelta(d.Delta)
			if err != nil {
				return nil, nil, err
			}
			if top, err = delta.Apply(base); err != nil {
				return nil, nil, err
			}
		}
		g.tops[tk] = top
	}
	size, err := cli.ParseSize(d.Size)
	if err != nil {
		return nil, nil, err
	}
	col, err := cli.BuildCollective(d.Collective, top.NumGPUs(), size)
	return top, col, err
}

// check verifies one served schedule; key identifies it, so a schedule
// served many times is checked once. It reports whether the schedule is
// valid.
func (g *gate) check(key string, d demand, s *schedule.Schedule, predicted float64) bool {
	if g.seen[key] {
		return true
	}
	fail := func(format string, args ...interface{}) bool { return g.reject(key, d, format, args...) }
	g.seen[key] = true
	g.checked++
	top, col, err := g.resolve(d)
	if err != nil {
		return fail("resolve: %v", err)
	}
	start := time.Now()
	if col.Kind == collective.KindAllReduce {
		err = verify.CheckAllReduce(col, s)
	} else {
		err = verify.CheckSchedule(col, s)
	}
	g.checkMS = append(g.checkMS, ms(time.Since(start)))
	if err != nil {
		return fail("oracle: %v", err)
	}
	start = time.Now()
	r, err := sim.Simulate(top, s, sim.DefaultOptions())
	g.simMS = append(g.simMS, ms(time.Since(start)))
	if err != nil {
		return fail("simulate: %v", err)
	}
	if math.Abs(r.Time-predicted) > simTolerance*predicted {
		return fail("simulated %.12g s, served predicted_time_s %.12g s", r.Time, predicted)
	}
	return true
}

// fetchAndCheck reads a stored schedule with GET /v1/schedule/{id} and
// checks it; its predicted time must be one the client was served.
func (g *gate) fetchAndCheck(dm *daemon, id string, d demand, served ...float64) bool {
	if g.seen[id] {
		return true
	}
	status, b, err := dm.get("/v1/schedule/" + id)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	var resp serve.SynthesizeResponse
	if err == nil {
		err = json.Unmarshal(b, &resp)
	}
	var s *schedule.Schedule
	if err == nil {
		s, err = resp.Schedule.Schedule()
	}
	if err != nil {
		return g.reject(id, d, "fetch schedule %s: %v", id, err)
	}
	for _, p := range served {
		if p == resp.PredictedTimeS {
			return g.check(id, d, s, p)
		}
	}
	return g.reject(id, d, "stored predicted_time_s %.12g is none of the served %v", resp.PredictedTimeS, served)
}

// reject records schedule key of demand d as checked and invalid.
func (g *gate) reject(key string, d demand, format string, args ...interface{}) bool {
	if !g.seen[key] {
		g.seen[key] = true
		g.checked++
	}
	g.invalid = append(g.invalid, fmt.Sprintf("%s: ", d)+fmt.Sprintf(format, args...))
	return false
}

// quality accumulates the schedule-quality ratios of a fixed demand set.
type quality struct {
	speedups []float64 // NCCL simulated time / predicted time
	gaps     []float64 // predicted time / flow lower bound
}

// plan plans d on eng, outside any timed interval, and records its
// quality ratios. eng is a fresh engine that plans only the workload's
// fixed quality set, in a fixed order, so the ratios do not depend on the
// seed or on what the measured run left in the daemon's caches. A demand
// with a delta goes through Engine.Replan on its (already planned) base.
// The bound is the coarse incumbent's flow lower bound, which the
// pipeline records on its solve.bound span — the bound its incumbent
// events carry.
func (q *quality) plan(e *env, eng *engine.Engine, d demand) error {
	top, col, err := e.gate.resolve(d)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder()
	opts := core.Options{Obs: rec}
	var r *core.Result
	if d.Delta == "" {
		r, err = eng.Plan(context.Background(), top, col, opts)
	} else {
		var base *topology.Topology
		var delta *topology.Delta
		if base, _, err = e.gate.resolve(demand{Topology: d.Topology, Collective: d.Collective, Size: d.Size}); err == nil {
			delta, err = topology.ParseDelta(d.Delta)
		}
		var rr *engine.ReplanResult
		if err == nil {
			rr, err = eng.Replan(context.Background(), base, delta, col, opts)
		}
		if err == nil {
			r = rr.Result
		}
	}
	if err != nil {
		return fmt.Errorf("quality %s: %w", d, err)
	}
	e.gate.check(fingerprint(r.Schedule, r.Time), d, r.Schedule, r.Time)
	bound := 0.0
	for _, sp := range rec.Spans() {
		if sp.Name != "solve.bound" {
			continue
		}
		for _, a := range sp.Attrs {
			if v, ok := a.Value().(float64); ok && a.Key == "incumbent-lb" && v > bound {
				bound = v
			}
		}
	}
	if r.Time <= 0 {
		return fmt.Errorf("quality %s: non-positive predicted time %g", d, r.Time)
	}
	// NCCL is skipped where it cannot route the (degraded) topology.
	if _, t, err := nccl.Schedule(top, col, sim.DefaultOptions()); err == nil && t > 0 {
		q.speedups = append(q.speedups, t/r.Time)
	}
	if bound > 0 {
		q.gaps = append(q.gaps, r.Time/bound)
	}
	return nil
}

// report sets the two quality metrics; both must have samples.
func (q *quality) report(e *env) error {
	if len(q.speedups) == 0 || len(q.gaps) == 0 {
		return fmt.Errorf("quality set produced %d NCCL ratios and %d bound gaps", len(q.speedups), len(q.gaps))
	}
	e.set("speedup_vs_nccl.geomean", geomean(q.speedups))
	e.set("bound_gap.geomean", geomean(q.gaps))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
