package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"syccl/internal/engine"
	"syccl/internal/serve"
)

// storeClients is the warm_store concurrency, one client per core of the
// 2-core reference machine.
const storeClients = 2

// runWarmStore: two clients in closed loops, each request a plain POST
// /v1/synthesize drawn uniformly from a working set the daemon restores
// from its persist directory at boot, so every request is a store hit
// and the engine never runs.
func runWarmStore(e *env) error {
	dir := filepath.Join(e.dir, "store")
	// Untimed fill: plan the working set once and drain, which writes the
	// schedule-store snapshot the measured daemon boots from.
	fill, _, err := bootDaemon(serve.Options{}, dir)
	if err != nil {
		return err
	}
	for _, d := range storeSet {
		if _, err := postOK(fill, "/v1/synthesize", d); err != nil {
			fill.close()
			return fmt.Errorf("fill: %w", err)
		}
	}
	fill.close()

	var restores []float64
	boot := func() (*daemon, error) {
		dm, restore, err := bootDaemon(serve.Options{}, dir)
		if err != nil {
			return nil, err
		}
		restores = append(restores, restore.Seconds())
		if n := dm.srv.Stats().Server.Restored; n != int64(len(storeSet)) {
			dm.close()
			return nil, fmt.Errorf("restored %d of %d working-set schedules", n, len(storeSet))
		}
		return dm, nil
	}
	dm, err := repeatSetup(e, boot, (*daemon).close)
	if err != nil {
		return err
	}
	defer dm.close()
	e.set("persist.restore_s", median(restores))

	bodies := make(map[demand][]byte, len(storeSet))
	var allBodies [][]byte
	for _, d := range storeSet {
		bodies[d] = d.body(false, false)
		allBodies = append(allBodies, bodies[d])
	}
	draws := make([]func() demand, storeClients)
	for c := range draws {
		draws[c] = newDraw(storeSet, e.seed, c)
	}
	// served maps schedule id → demand and predicted time; every hit on
	// an id must carry the same prediction.
	type hit struct {
		d         demand
		predicted float64
	}
	served := make(map[string]hit)
	var mu sync.Mutex

	pass := func(d time.Duration) ([]float64, time.Duration) {
		lats := make([][]float64, storeClients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < storeClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var attempted, failed int
				var lat []float64
				for time.Since(start) < d {
					dem := draws[c]()
					attempted++
					t0 := time.Now()
					status, b, _, err := dm.post("/v1/synthesize", bodies[dem])
					el := time.Since(t0)
					var r *serve.SynthesizeResponse
					if err == nil {
						r, err = synthesized(status, b)
					}
					mu.Lock()
					if err == nil {
						if h, ok := served[r.ID]; ok && h.predicted != r.PredictedTimeS {
							err = fmt.Errorf("id %s served %.12g s, earlier %.12g s", r.ID, r.PredictedTimeS, h.predicted)
						} else if !ok {
							served[r.ID] = hit{dem, r.PredictedTimeS}
						}
					}
					if err != nil {
						failed++
						e.logf("%s: %v", dem, err)
					}
					mu.Unlock()
					if err == nil {
						lat = append(lat, ms(el))
					}
				}
				mu.Lock()
				e.attempted += attempted
				e.failed += failed
				mu.Unlock()
				lats[c] = lat
			}(c)
		}
		wg.Wait()
		measured := time.Since(start)
		var all []float64
		for _, l := range lats {
			all = append(all, l...)
		}
		return all, measured
	}
	check := func() {
		for id, h := range served {
			e.gate.fetchAndCheck(dm, id, h.d, h.predicted)
		}
	}

	if !e.trace {
		heap := startHeapSampler()
		lat, measured := pass(e.seconds)
		peak, herr := heap.peakMB()
		e.set("peak_heap_mb", peak)
		if herr != nil {
			return herr
		}
		check()
		e.set("ops_per_s", float64(len(lat))/measured.Seconds())
		e.set("ok_ratio", ratio(float64(e.attempted-e.failed), float64(e.attempted)))
		if err := e.setTails("op_ms", lat); err != nil {
			return err
		}
		// A store hit's first usable schedule is the response itself.
		if err := e.setTails("ttfi_ms", lat); err != nil {
			return err
		}
		var q quality
		qeng := engine.New(engine.Options{})
		for _, d := range storeSet {
			if err := q.plan(e, qeng, d); err != nil {
				return err
			}
		}
		return q.report(e)
	}

	untraced, _ := pass(e.seconds / 3)
	before, err := dm.statsz()
	if err != nil {
		return err
	}
	tw, err := beginTrace()
	if err != nil {
		return err
	}
	traced, _ := pass(e.seconds - e.seconds/3)
	if _, err := tw.end(e); err != nil {
		return err
	}
	after, err := dm.statsz()
	if err != nil {
		return err
	}
	reportServe(e, before, after)
	reportOverhead(e, untraced, traced)
	check()
	if err := probeDecode(e, allBodies); err != nil {
		return err
	}
	if err := probeHandler(e, dm.srv, allBodies); err != nil {
		return err
	}
	e.set("sim.simulate_ms", median(e.gate.simMS))
	e.set("verify.check_ms", median(e.gate.checkMS))
	return nil
}
