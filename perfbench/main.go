// Command perfbench is the planner's benchmark. It drives one of four
// seeded workloads against the real program — the in-process syccl-serve
// HTTP server over loopback, or the public engine.Engine API — re-checks
// every schedule it is served, and prints one JSON result as its last
// line of output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload cold_synth --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with an obs.Recorder and a CPU profile
// attached and the result carries the per-layer metrics instead.
// Workloads, metrics and their predicted couplings are described in
// workloads.json next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// commit is stamped at build time (-ldflags "-X main.commit=...").
var commit = "unknown"

// workdir holds the run's persist stores, relative to the directory the
// benchmark runs from (the repository root), next to the build output.
const workdir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the planner sees. Every workload
// reports all of them; op_ms and ttfi_ms mean the workload's own
// operation (see workloads.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"peak_heap_mb", "MB"},
	{"op_ms.p50", "ms"},
	{"op_ms.p95", "ms"},
	{"ttfi_ms.p50", "ms"},
	{"ttfi_ms.p95", "ms"},
	{"speedup_vs_nccl.geomean", "x"},
	{"bound_gap.geomean", "x"},
}

// cpuShares maps a cpu_share metric suffix to the function-name prefix
// whose cumulative share of the traced run's CPU profile it reports.
var cpuShares = []struct{ metric, prefix string }{
	{"lp", "syccl/internal/lp."},
	{"milp", "syccl/internal/milp."},
	{"solve", "syccl/internal/solve."},
	{"sim", "syccl/internal/sim."},
	{"sketch", "syccl/internal/sketch."},
	{"engine", "syccl/internal/engine."},
	{"serve", "syccl/internal/serve."},
	{"isomorph", "syccl/internal/isomorph."},
	{"encoding_json", "encoding/json."},
	{"fmt", "fmt."},
	{"runtime.mallocgc", "runtime.mallocgc"},
}

// perLayer are the metrics of single layers, reported by traced runs.
// A layer a workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.handler_us.p50", "us"},
		{"serve.decode_us", "us"},
		{"serve.allocs_per_req", "count"},
		{"serve.store_hit_ratio", "ratio"},
		{"serve.coalesced_ratio", "ratio"},
		{"engine.plan_ms", "ms"},
		{"engine.allocs_per_plan", "count"},
		{"engine.solve_hit_ratio", "ratio"},
		{"engine.sketch_hit_ratio", "ratio"},
		{"engine.bound_hit_ratio", "ratio"},
		{"engine.evictions", "count"},
		{"engine.replans_per_fault", "count"},
		{"engine.replan_reuse_ratio", "ratio"},
		{"engine.replan_invalidated", "count"},
		{"engine.replan_vs_cold", "ratio"},
		{"core.search_ms", "ms"},
		{"core.combine_ms", "ms"},
		{"core.solve_coarse_ms", "ms"},
		{"core.solve_bound_ms", "ms"},
		{"core.solve_fine_ms", "ms"},
		{"core.candidates", "count"},
		{"core.solver_calls", "count"},
		{"core.iso_hit_ratio", "ratio"},
		{"core.pruned_lb_ratio", "ratio"},
		{"core.unaccounted_share", "ratio"},
		{"sketch.nodes", "count"},
		{"solve.exact", "count"},
		{"solve.greedy", "count"},
		{"solve.flow", "count"},
		{"milp.nodes", "count"},
		{"lp.pivots", "count"},
		{"sim.events", "count"},
		{"sim.simulate_ms", "ms"},
		{"sim.span_ms", "ms"},
		{"verify.check_ms", "ms"},
		{"topology.apply_us", "us"},
		{"persist.restore_s", "s"},
	}
	for _, c := range cpuShares {
		defs = append(defs, metricDef{"cpu_share." + c.metric, "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio"})
}()

// workloads maps --workload names to the functions that run them.
var workloads = map[string]func(*env) error{
	"cold_synth":   runColdSynth,
	"warm_store":   runWarmStore,
	"warm_engine":  runWarmEngine,
	"fault_replan": runFaultReplan,
}

// env is one benchmark run: its parameters, the gate every served
// schedule passes, and the metrics it reports.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory for persist stores, removed at exit
	log      io.Writer

	gate      *gate
	attempted int
	failed    int
	values    map[string]float64
	tails     []string // sample counts and highest supported percentiles
}

func (e *env) set(name string, v float64) { e.values[name] = v }

func (e *env) logf(format string, args ...interface{}) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// fail counts one failed operation and logs why.
func (e *env) fail(d demand, err error) {
	e.failed++
	e.logf("%s: %v", d, err)
}

// setTails reports the p50 and p95 of a latency series, and logs the
// sample count with the highest percentile it supports. Closed loops run
// until p95 is supported, so a refusal here means the run was cut short.
func (e *env) setTails(name string, samples []float64) error {
	for _, q := range []float64{0.50, 0.95} {
		v, err := percentile(samples, q)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		e.set(fmt.Sprintf("%s.p%d", name, int(q*100)), v)
	}
	if q, ok := highestSupported(len(samples)); ok {
		v, _ := percentile(samples, q)
		e.tails = append(e.tails, fmt.Sprintf("%s: n=%d, highest supported percentile p%g = %.6g", name, len(samples), q*100, v))
	}
	return nil
}

// minOps is the sample count a closed loop needs before it may stop: in
// an end-to-end run every op series reports p95.
func (e *env) minOps() int {
	if e.trace {
		return 1
	}
	return minSamples(0.95)
}

// done reports whether a closed loop has measured long enough. It runs
// past --seconds (up to three times) only to reach minOps samples.
func (e *env) done(measured time.Duration, n int) bool {
	return measured >= 3*e.seconds || (measured >= e.seconds && n >= e.minOps())
}

// stamp identifies the machine and build a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Attempted  int    `json:"attempted"`
	Checked    int    `json:"schedules_checked"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the generated requests")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: attach a recorder and CPU profile and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      dir,
		log:      stderr,
		gate:     newGate(),
		values:   make(map[string]float64),
	}
	runErr := drive(e)
	if runErr != nil {
		fmt.Fprintln(stderr, "perfbench:", runErr)
	}
	for _, msg := range e.gate.invalid {
		fmt.Fprintln(stderr, "perfbench: INVALID", msg)
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := result{
		Correct:   runErr == nil && len(e.gate.invalid) == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := e.values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		if !e.trace && runErr == nil {
			fmt.Fprintln(stderr, "perfbench: end-to-end metrics not measured:", strings.Join(missing, ", "))
			res.Correct = false
		} else {
			fmt.Fprintf(stderr, "perfbench: %s does not reach (reported as 0): %s\n", e.workload, strings.Join(missing, ", "))
		}
	}

	st := stamp{
		Workload: e.workload, Seed: e.seed, Seconds: *seconds, Trace: e.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Attempted: e.attempted, Checked: e.gate.checked,
	}
	sb, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", sb)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, t := range e.tails {
		fmt.Fprintln(stdout, t)
	}
	rb, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", rb)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// heapSampler samples the live heap every 5 ms while a measurement
// runs. Its peak is the 99th percentile of the samples: the footprint a
// workload holds at its busiest, without the single-sample extremes that
// GC timing produces.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

// heapMetric is the heap still live after the most recent GC cycle: what
// the workload holds, not how far the pacer let garbage grow.
const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/1e6)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB (1e6 bytes).
func (h *heapSampler) peakMB() (float64, error) {
	close(h.stop)
	h.wg.Wait()
	return percentile(h.samples, 0.99)
}
