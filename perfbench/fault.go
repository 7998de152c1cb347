package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"syccl/internal/cli"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/serve"
	"syccl/internal/topology"
)

// replanClients is how many ranks report each fault at once.
const replanClients = 2

// coldCompareFaults is how many traced faults are also planned cold on a
// fresh engine for engine.replan_vs_cold.
const coldCompareFaults = 4

// faultEvent is one measured fault: both clients' latencies and what the
// server answered.
type faultEvent struct {
	d     demand
	lat   []float64
	resps []*serve.SynthesizeResponse
	ids   []string // request ids
	wall  time.Duration
}

// runFaultReplan: two clients in a closed loop; for each seeded
// single-link fault both send the same POST /v1/replan at once, as two
// ranks reporting one failure would, against a daemon whose healthy base
// plans are warm in memory and on disk.
func runFaultReplan(e *env) error {
	spaces, err := faultSpaces()
	if err != nil {
		return err
	}
	var restores []float64
	rep := 0
	boot := func() (*daemon, error) {
		rep++
		dm, restore, err := bootDaemon(serve.Options{RecentRequests: 8192, StoreEntries: 4096}, filepath.Join(e.dir, "replan"+strconv.Itoa(rep)))
		if err != nil {
			return nil, err
		}
		restores = append(restores, restore.Seconds())
		for _, d := range faultBases {
			if _, err := postOK(dm, "/v1/synthesize", d); err != nil {
				dm.close()
				return nil, err
			}
		}
		return dm, nil
	}
	dm, err := repeatSetup(e, boot, (*daemon).close)
	if err != nil {
		return err
	}
	defer dm.close()
	e.set("persist.restore_s", median(restores))

	seq := faultSequence(e.seed, 2048, spaces)
	next := 0
	// event replays one fault from both clients at once.
	event := func(d demand) faultEvent {
		ev := faultEvent{d: d, lat: make([]float64, replanClients), resps: make([]*serve.SynthesizeResponse, replanClients), ids: make([]string, replanClients)}
		body := d.body(false, false)
		errs := make([]error, replanClients)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < replanClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-release
				t0 := time.Now()
				status, b, reqID, err := dm.post("/v1/replan", body)
				ev.lat[c] = ms(time.Since(t0))
				ev.ids[c] = reqID
				if err == nil {
					ev.resps[c], err = synthesized(status, b)
				}
				errs[c] = err
			}(c)
		}
		start := time.Now()
		close(release)
		wg.Wait()
		ev.wall = time.Since(start)
		for c, err := range errs {
			if err != nil {
				ev.resps[c] = nil
				e.fail(d, err)
			}
		}
		return ev
	}
	// pass runs fault events until done; each event's schedules are
	// checked between events, outside the timed intervals.
	pass := func(done func(time.Duration, int) bool) (lat []float64, measured time.Duration, evs []faultEvent, err error) {
		for !done(measured, len(lat)) {
			if next == len(seq) {
				return nil, 0, nil, fmt.Errorf("fault sequence exhausted after %d events", next)
			}
			d := seq[next]
			next++
			e.attempted += replanClients
			ev := event(d)
			measured += ev.wall
			var id string
			var served []float64
			for c, r := range ev.resps {
				if r == nil {
					continue
				}
				lat = append(lat, ev.lat[c])
				if id != "" && r.ID != id {
					e.gate.invalid = append(e.gate.invalid, fmt.Sprintf("%s: duplicate replans got schedule ids %s and %s", d, id, r.ID))
				}
				id = r.ID
				served = append(served, r.PredictedTimeS)
			}
			if len(served) == replanClients && served[0] != served[1] {
				// Concurrent duplicates can replay each other's fresh cache
				// entries; the store keeps one of the two schedules.
				e.logf("%s: duplicate replans returned %.12g s and %.12g s", d, served[0], served[1])
			}
			if id != "" {
				e.gate.fetchAndCheck(dm, id, d, served...)
			}
			evs = append(evs, ev)
		}
		return lat, measured, evs, nil
	}

	if !e.trace {
		heap := startHeapSampler()
		lat, measured, _, err := pass(e.done)
		peak, herr := heap.peakMB()
		e.set("peak_heap_mb", peak)
		if herr != nil {
			return herr
		}
		if err != nil {
			return err
		}
		e.set("ops_per_s", float64(len(lat))/measured.Seconds())
		e.set("ok_ratio", ratio(float64(e.attempted-e.failed), float64(e.attempted)))
		if err := e.setTails("op_ms", lat); err != nil {
			return err
		}
		// A replan response is the first usable schedule.
		if err := e.setTails("ttfi_ms", lat); err != nil {
			return err
		}
		var q quality
		qeng := engine.New(engine.Options{})
		for _, d := range faultBases {
			if err := q.plan(e, qeng, d); err != nil {
				return err
			}
		}
		q = quality{} // the ratios cover the faults, not their bases
		for _, d := range faultQuality(spaces) {
			if err := q.plan(e, qeng, d); err != nil {
				return err
			}
		}
		return q.report(e)
	}

	untraced, _, _, err := pass(func(m time.Duration, _ int) bool { return m >= e.seconds/3 })
	if err != nil {
		return err
	}
	before, err := dm.statsz()
	if err != nil {
		return err
	}
	counters0 := dm.rec.Counters()
	tw, err := beginTrace()
	if err != nil {
		return err
	}
	traced, _, evs, err := pass(func(m time.Duration, _ int) bool { return m >= e.seconds-e.seconds/3 })
	allocs, perr := tw.end(e)
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	after, err := dm.statsz()
	if err != nil {
		return err
	}
	counters := counterDelta(counters0, dm.rec.Counters())
	reportServe(e, before, after)
	reportOverhead(e, untraced, traced)
	faults := float64(len(evs))
	e.set("engine.replans_per_fault", float64(after.Engine.Replans-before.Engine.Replans)/faults)
	e.set("engine.replan_invalidated", float64(after.Engine.ReplanInvalidated-before.Engine.ReplanInvalidated)/faults)

	ps := newPlans()
	var reuse, applyUS, vsCold []float64
	var bodies [][]byte
	for i, ev := range evs {
		for c, r := range ev.resps {
			if r == nil {
				continue
			}
			reuse = append(reuse, r.Replan.ReuseRatio)
			rr, err := dm.debugRecord(ev.ids[c])
			if err != nil {
				return err
			}
			// The replan path records no pipeline spans, so every
			// replan is unaccounted time.
			ps.add(rr.SolveUS/1000, rr.Spans, r.SolverCalls)
		}
		bodies = append(bodies, ev.d.body(false, false))
		apply, err := timeApply(ev.d)
		if err != nil {
			return err
		}
		applyUS = append(applyUS, apply)
		if i < coldCompareFaults {
			cold, err := timeColdPlan(e, ev.d)
			if err != nil {
				return err
			}
			vsCold = append(vsCold, mean(ev.lat)/cold)
		}
	}
	ps.report(e, counters, allocs)
	e.set("engine.replan_reuse_ratio", mean(reuse))
	e.set("engine.replan_vs_cold", median(vsCold))
	e.set("topology.apply_us", median(applyUS))
	if err := probeDecode(e, bodies); err != nil {
		return err
	}
	// Replans write through to the store, so the same demand on
	// /v1/synthesize is a store hit.
	if err := probeHandler(e, dm.srv, bodies); err != nil {
		return err
	}
	e.set("sim.simulate_ms", median(e.gate.simMS))
	e.set("verify.check_ms", median(e.gate.checkMS))
	return nil
}

// timeApply times topology.Delta.Apply of a fault on its base topology,
// in microseconds (median of several applications).
func timeApply(d demand) (float64, error) {
	base, err := cli.ParseTopology(d.Topology)
	if err != nil {
		return 0, err
	}
	delta, err := topology.ParseDelta(d.Delta)
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := delta.Apply(base); err != nil {
			return 0, err
		}
		ts = append(ts, us(time.Since(start)))
	}
	return median(ts), nil
}

// timeColdPlan plans a degraded demand on a fresh engine and returns the
// wall time in milliseconds.
func timeColdPlan(e *env, d demand) (float64, error) {
	top, col, err := e.gate.resolve(d)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := engine.New(engine.Options{}).Plan(context.Background(), top, col, core.Options{}); err != nil {
		return 0, fmt.Errorf("cold plan %s: %w", d, err)
	}
	return ms(time.Since(start)), nil
}
