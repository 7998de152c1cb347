package main

import (
	"fmt"
	"time"

	"syccl/internal/engine"
	"syccl/internal/serve"
)

// setupReps is how many times a run sets its workload up from nothing;
// setup_s is the median.
const setupReps = 5

// repeatSetup runs boot setupReps times, discarding all but the last
// result, and reports the median time as setup_s.
func repeatSetup[T any](e *env, boot func() (T, error), discard func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := boot()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			discard(v)
		} else {
			last = v
		}
	}
	e.set("setup_s", median(times))
	return last, nil
}

// postOK posts a non-streaming synthesis that must succeed.
func postOK(dm *daemon, path string, d demand) (*serve.SynthesizeResponse, error) {
	status, b, _, err := dm.post(path, d.body(false, false))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", d, err)
	}
	r, err := synthesized(status, b)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", d, err)
	}
	return r, nil
}

// coldServed is one measured cold request.
type coldServed struct {
	d         demand
	reqID     string
	id        string
	predicted float64
	calls     int
}

// runColdSynth: one client in a closed loop, each request a streamed
// POST /v1/synthesize for a demand no earlier request asked for, so every
// request misses the schedule store and the solve caches.
func runColdSynth(e *env) error {
	boot := func() (*daemon, error) {
		// The store and flight recorder hold every request of a run, so
		// the checks after the loop can read them back.
		dm, _, err := bootDaemon(serve.Options{StoreEntries: 4096, RecentRequests: 8192}, "")
		if err != nil {
			return nil, err
		}
		for _, d := range coldPrime {
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

	seq := coldSequence(e.seed, 4096)
	next := 0
	// pass runs the closed loop until done reports true and returns the
	// final-event and first-incumbent latencies.
	pass := func(done func(time.Duration, int) bool) (lat, ttfi []float64, measured time.Duration, served []coldServed, err error) {
		for !done(measured, len(lat)) {
			if next == len(seq) {
				return nil, nil, 0, nil, fmt.Errorf("cold sequence exhausted after %d requests", next)
			}
			d := seq[next]
			next++
			e.attempted++
			start := time.Now()
			out := dm.stream(d.body(true, false))
			measured += time.Since(start)
			if out.err == nil && (out.resp == nil || out.resp.Partial || out.resp.ID == "") {
				out.err = fmt.Errorf("partial or unstored response")
			}
			if out.err != nil {
				e.fail(d, out.err)
				continue
			}
			lat = append(lat, ms(out.final))
			ttfi = append(ttfi, ms(out.first))
			served = append(served, coldServed{d, out.reqID, out.resp.ID, out.resp.PredictedTimeS, out.resp.SolverCalls})
		}
		return lat, ttfi, measured, served, nil
	}
	check := func(served []coldServed) {
		for _, s := range served {
			e.gate.fetchAndCheck(dm, s.id, s.d, s.predicted)
		}
	}

	if !e.trace {
		heap := startHeapSampler()
		lat, ttfi, measured, served, err := pass(e.done)
		peak, herr := heap.peakMB()
		e.set("peak_heap_mb", peak)
		if herr != nil {
			return herr
		}
		if err != nil {
			return err
		}
		check(served)
		e.set("ops_per_s", float64(len(lat))/measured.Seconds())
		e.set("ok_ratio", ratio(float64(e.attempted-e.failed), float64(e.attempted)))
		if err := e.setTails("op_ms", lat); err != nil {
			return err
		}
		if err := e.setTails("ttfi_ms", ttfi); err != nil {
			return err
		}
		var q quality
		qeng := engine.New(engine.Options{})
		for _, d := range coldQuality {
			if err := q.plan(e, qeng, d); err != nil {
				return err
			}
		}
		return q.report(e)
	}

	untraced, _, _, served0, err := pass(func(m time.Duration, _ int) bool { return m >= e.seconds/3 })
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
	traced, _, _, served, err := pass(func(m time.Duration, _ int) bool { return m >= e.seconds-e.seconds/3 })
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

	ps := newPlans()
	var bodies [][]byte
	for _, s := range served {
		rr, err := dm.debugRecord(s.reqID)
		if err != nil {
			return err
		}
		ps.add(rr.SolveUS/1000, rr.Spans, s.calls)
		bodies = append(bodies, s.d.body(false, false))
	}
	ps.report(e, counters, allocs)
	check(append(served0, served...))
	if len(bodies) == 0 {
		return fmt.Errorf("traced pass served nothing")
	}
	if err := probeDecode(e, bodies); err != nil {
		return err
	}
	if err := probeHandler(e, dm.srv, bodies); err != nil {
		return err
	}
	e.set("sim.simulate_ms", median(e.gate.simMS))
	e.set("verify.check_ms", median(e.gate.checkMS))
	return nil
}
