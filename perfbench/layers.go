package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"time"

	"syccl/internal/engine"
	"syccl/internal/obs"
	"syccl/internal/serve"
)

// traceWindow covers the traced pass: a CPU profile of the benchmark
// process and its allocation count.
type traceWindow struct {
	buf     bytes.Buffer
	mallocs uint64
}

func beginTrace() (*traceWindow, error) {
	t := &traceWindow{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mallocs = ms.Mallocs
	return t, pprof.StartCPUProfile(&t.buf)
}

// end stops the profile, reports the cpu_share metrics and returns the
// allocations made during the window.
func (t *traceWindow) end(e *env) (uint64, error) {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - t.mallocs
	p, err := parseProfile(t.buf.Bytes())
	if err != nil {
		return allocs, err
	}
	for _, c := range cpuShares {
		e.set("cpu_share."+c.metric, p.cumulativeShare(c.prefix))
	}
	return allocs, nil
}

// stageNames maps the pipeline's stage spans (children of the
// "synthesize" root span) to their core.* metrics. Stages not listed
// (mirror) still count as accounted time.
var stageNames = map[string]string{
	"search":       "core.search_ms",
	"combine":      "core.combine_ms",
	"solve.coarse": "core.solve_coarse_ms",
	"solve.bound":  "core.solve_bound_ms",
	"solve.fine":   "core.solve_fine_ms",
}

// plans accumulates the per-plan view of a traced pass: the plan's wall
// time, its stage spans, and what the unaccounted remainder is.
type plans struct {
	wallMS      []float64
	stages      map[string][]float64
	simMS       []float64
	unaccounted []float64
	solverCalls []float64
}

func newPlans() *plans { return &plans{stages: make(map[string][]float64)} }

// add records one plan that took wallMS inside the engine and produced
// the given span tree (nil when the path records none).
func (p *plans) add(wallMS float64, spans []obs.SpanRecord, solverCalls int) {
	p.wallMS = append(p.wallMS, wallMS)
	p.solverCalls = append(p.solverCalls, float64(solverCalls))
	per := make(map[string]float64)
	accounted, simMS := 0.0, 0.0
	for _, s := range spans {
		d := ms(s.End - s.Start)
		if s.Name == "sim.simulate" {
			simMS += d
		}
		if s.Parent != "synthesize" {
			continue
		}
		accounted += d
		if m, ok := stageNames[s.Name]; ok {
			per[m] += d
		}
	}
	for _, m := range stageNames {
		p.stages[m] = append(p.stages[m], per[m])
	}
	p.simMS = append(p.simMS, simMS)
	share := 1.0
	if wallMS > 0 {
		share = 1 - accounted/wallMS
	}
	if share < 0 {
		share = 0
	}
	p.unaccounted = append(p.unaccounted, share)
}

// report sets the per-plan metrics. counters is the delta of the
// recorder counters over the traced pass; allocs the process
// allocations over it.
func (p *plans) report(e *env, counters map[string]float64, allocs uint64) {
	n := float64(len(p.wallMS))
	if n == 0 {
		return
	}
	e.set("engine.plan_ms", median(p.wallMS))
	e.set("engine.allocs_per_plan", float64(allocs)/n)
	for m, v := range p.stages {
		e.set(m, median(v))
	}
	e.set("sim.span_ms", median(p.simMS))
	e.set("core.unaccounted_share", median(p.unaccounted))
	e.set("core.solver_calls", mean(p.solverCalls))
	e.set("core.candidates", counters["candidates"]/n)
	e.set("core.iso_hit_ratio", ratio(counters["cache.hits"], counters["cache.hits"]+counters["cache.misses"]))
	e.set("core.pruned_lb_ratio", ratio(counters["candidates.pruned_lb"], counters["candidates"]))
	for _, c := range []string{"sketch.nodes", "solve.exact", "solve.greedy", "solve.flow", "milp.nodes", "lp.pivots", "sim.events"} {
		e.set(c, counters[c]/n)
	}
}

// counterDelta subtracts two recorder counter snapshots.
func counterDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// reportEngine sets the engine cache metrics from two Stats snapshots.
func reportEngine(e *env, before, after engine.Stats) {
	d := func(a, b int64) float64 { return float64(b - a) }
	hits, misses := d(before.SolveHits, after.SolveHits), d(before.SolveMisses, after.SolveMisses)
	e.set("engine.solve_hit_ratio", ratio(hits, hits+misses))
	hits, misses = d(before.SketchHits, after.SketchHits), d(before.SketchMisses, after.SketchMisses)
	e.set("engine.sketch_hit_ratio", ratio(hits, hits+misses))
	hits, misses = d(before.BoundHits, after.BoundHits), d(before.BoundMisses, after.BoundMisses)
	e.set("engine.bound_hit_ratio", ratio(hits, hits+misses))
	e.set("engine.evictions", d(before.Evictions, after.Evictions))
}

// reportServe sets the serve ratios from two /statsz snapshots.
func reportServe(e *env, before, after serve.StatsSnapshot) {
	reqs := float64(after.Server.Requests - before.Server.Requests)
	e.set("serve.store_hit_ratio", ratio(float64(after.Server.StoreHits-before.Server.StoreHits), reqs))
	e.set("serve.coalesced_ratio", ratio(float64(after.Server.Coalesced-before.Server.Coalesced), reqs))
	reportEngine(e, before.Engine, after.Engine)
}

// probeDecode times serve.DecodeRequest over the workload's request
// bodies and reports microseconds per call.
func probeDecode(e *env, bodies [][]byte) error {
	const batch = 200
	var perCall []float64
	deadline := time.Now().Add(300 * time.Millisecond)
	for len(perCall) < 15 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, aerr := serve.DecodeRequest(bytes.NewReader(bodies[i%len(bodies)]), serve.DefaultMaxBodyBytes); aerr != nil {
				return aerr
			}
		}
		perCall = append(perCall, us(time.Since(start))/batch)
	}
	e.set("serve.decode_us", median(perCall))
	return nil
}

// probeHandler calls the server's ServeHTTP in process with bodies that
// must all be store hits, and reports the handler's p50 latency and
// allocations per request.
func probeHandler(e *env, srv *serve.Server, bodies [][]byte) error {
	const n = 2000
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(bodies[i%len(bodies)]))
		recs[i] = httptest.NewRecorder()
	}
	lat := make([]float64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		start := time.Now()
		srv.ServeHTTP(recs[i], reqs[i])
		lat[i] = us(time.Since(start))
	}
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
			return fmt.Errorf("in-process handler probe: request %d: status %d, not a store hit", i, rec.Code)
		}
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return err
	}
	e.set("serve.handler_us.p50", p50)
	e.set("serve.allocs_per_req", float64(after.Mallocs-before.Mallocs)/n)
	return nil
}

// reportOverhead compares the traced pass's median op latency with the
// untraced pass that preceded it in the same process.
func reportOverhead(e *env, untraced, traced []float64) {
	if len(untraced) == 0 || len(traced) == 0 {
		return
	}
	e.set("trace.overhead_ratio", median(traced)/median(untraced)-1)
}
