package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/obs"
	"syccl/internal/schedule"
	"syccl/internal/topology"
)

// runWarmEngine: a library caller repeating engine.Engine.Plan on one
// goroutine over a prewarmed demand set, so every plan is served from the
// engine's caches with zero solver calls and no HTTP is involved.
func runWarmEngine(e *env) error {
	type resolved struct {
		top *topology.Topology
		col *collective.Collective
	}
	res := make(map[demand]resolved, len(engineSet))
	for _, d := range engineSet {
		top, col, err := e.gate.resolve(d)
		if err != nil {
			return err
		}
		res[d] = resolved{top, col}
	}
	ctx := context.Background()
	boot := func() (*engine.Engine, error) {
		eng := engine.New(engine.Options{})
		for _, d := range engineSet {
			if _, err := eng.Plan(ctx, res[d].top, res[d].col, core.Options{}); err != nil {
				return nil, fmt.Errorf("prewarm %s: %w", d, err)
			}
		}
		return eng, nil
	}
	eng, err := repeatSetup(e, boot, func(*engine.Engine) {})
	if err != nil {
		return err
	}

	draw := newRounds(engineSet, e.seed)
	// pass plans until done; with ps set, each plan gets its own
	// recorder and is added to ps.
	pass := func(done func(time.Duration, int) bool, ps *plans, counters map[string]float64) ([]float64, time.Duration) {
		var lat []float64
		var measured time.Duration
		for !done(measured, len(lat)) {
			d := draw()
			e.attempted++
			opts := core.Options{}
			if ps != nil {
				opts.Obs = obs.NewRecorder()
			}
			start := time.Now()
			r, err := eng.Plan(ctx, res[d].top, res[d].col, opts)
			el := time.Since(start)
			measured += el
			if err == nil && r.Partial {
				err = fmt.Errorf("partial result")
			}
			if err != nil {
				e.fail(d, err)
				continue
			}
			lat = append(lat, ms(el))
			e.gate.check(fingerprint(r.Schedule, r.Time), d, r.Schedule, r.Time)
			if ps != nil {
				ps.add(ms(el), opts.Obs.Spans(), r.Stats.SolverCalls)
				for k, v := range opts.Obs.Counters() {
					counters[k] += v
				}
			}
		}
		return lat, measured
	}

	if !e.trace {
		heap := startHeapSampler()
		lat, measured := pass(e.done, nil, nil)
		peak, herr := heap.peakMB()
		e.set("peak_heap_mb", peak)
		if herr != nil {
			return herr
		}
		e.set("ops_per_s", float64(len(lat))/measured.Seconds())
		e.set("ok_ratio", ratio(float64(e.attempted-e.failed), float64(e.attempted)))
		if err := e.setTails("op_ms", lat); err != nil {
			return err
		}
		// Plan returns the finished schedule; there is no earlier one.
		if err := e.setTails("ttfi_ms", lat); err != nil {
			return err
		}
		var q quality
		qeng := engine.New(engine.Options{})
		for _, d := range engineSet {
			if err := q.plan(e, qeng, d); err != nil {
				return err
			}
		}
		return q.report(e)
	}

	untraced, _ := pass(func(m time.Duration, _ int) bool { return m >= e.seconds/3 }, nil, nil)
	before := eng.Stats()
	ps := newPlans()
	counters := make(map[string]float64)
	tw, err := beginTrace()
	if err != nil {
		return err
	}
	traced, _ := pass(func(m time.Duration, _ int) bool { return m >= e.seconds-e.seconds/3 }, ps, counters)
	allocs, err := tw.end(e)
	if err != nil {
		return err
	}
	reportEngine(e, before, eng.Stats())
	reportOverhead(e, untraced, traced)
	ps.report(e, counters, allocs)
	e.set("sim.simulate_ms", median(e.gate.simMS))
	e.set("verify.check_ms", median(e.gate.checkMS))
	return nil
}

// fingerprint identifies a schedule and its predicted time, so the gate
// checks each distinct one once however often it is served.
func fingerprint(s *schedule.Schedule, t float64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(s.NumGPUs))
	put(math.Float64bits(t))
	for _, p := range s.Pieces {
		put(math.Float64bits(p.Bytes))
		put(uint64(len(p.Chunks)))
		for _, c := range p.Chunks {
			put(uint64(c))
		}
	}
	for _, tr := range s.Transfers {
		put(uint64(tr.Src))
		put(uint64(tr.Dst))
		put(uint64(tr.Piece))
		put(uint64(tr.Dim))
		put(uint64(tr.Order))
		put(uint64(len(tr.Deps)))
		for _, d := range tr.Deps {
			put(uint64(d))
		}
	}
	return fmt.Sprintf("fp:%016x", h.Sum64())
}
