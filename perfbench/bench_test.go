package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// encodeAll renders a request sequence the way the benchmark sends it.
func encodeAll(ds []demand) []byte {
	var buf bytes.Buffer
	for _, d := range ds {
		buf.Write(d.body(true, false))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func draws(seed int64, stream, n int) []demand {
	next := newDraw(storeSet, seed, stream)
	out := make([]demand, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestSequencesAreSeeded(t *testing.T) {
	spaces, err := faultSpaces()
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]func(seed int64) []demand{
		"cold":          func(seed int64) []demand { return coldSequence(seed, 600) },
		"store-client0": func(seed int64) []demand { return draws(seed, 0, 500) },
		"store-client1": func(seed int64) []demand { return draws(seed, 1, 500) },
		"fault":         func(seed int64) []demand { return faultSequence(seed, 300, spaces) },
		"engine": func(seed int64) []demand {
			next := newRounds(engineSet, seed)
			out := make([]demand, 120)
			for i := range out {
				out[i] = next()
			}
			return out
		},
	}
	for name, gen := range gens {
		a, b, c := encodeAll(gen(7)), encodeAll(gen(7)), encodeAll(gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request sequences", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request sequence", name)
		}
	}
	if bytes.Equal(encodeAll(draws(7, 0, 500)), encodeAll(draws(7, 1, 500))) {
		t.Error("the two warm_store clients draw the same sequence")
	}
}

func TestColdSequenceNeverRepeatsADemand(t *testing.T) {
	g := newGate()
	seen := make(map[demand]bool)
	for _, d := range coldSequence(3, 4096) {
		if seen[d] {
			t.Fatalf("demand %s requested twice", d)
		}
		seen[d] = true
		_, col, err := g.resolve(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		size := int(col.TotalBytes()) / sizeUnit
		if size < minUnits || size > maxUnits || reservedUnits[size] {
			t.Fatalf("%s: size outside 1-256 MiB or reserved for the quality set", d)
		}
	}
}

func TestFaultsApplyToTheirBase(t *testing.T) {
	spaces, err := faultSpaces()
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	for _, d := range append(faultSequence(1, 200, spaces), faultQuality(spaces)...) {
		if _, _, err := g.resolve(d); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
}

func TestPercentileTail(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if q, ok := highestSupported(len(samples)); !ok || q != 0.95 {
		t.Errorf("200 samples: highest supported percentile %v, want 0.95", q)
	}
	if q, _ := highestSupported(1000); q != 0.99 {
		t.Errorf("1000 samples: highest supported percentile %v, want 0.99", q)
	}
	if q, _ := highestSupported(100); q != 0.90 {
		t.Errorf("100 samples: highest supported percentile %v, want 0.90", q)
	}
	if _, ok := highestSupported(15); ok {
		t.Error("15 samples support no ladder percentile beyond... the median needs 20")
	}
	v, err := percentile(samples, 0.95)
	if err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(samples, 0.99); err == nil {
		t.Error("p99 of 200 samples must be refused: only 2 samples lie beyond it")
	}
	if _, err := percentile(samples[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples must be refused")
	}
	if minSamples(0.95) != 200 || minSamples(0.5) != 20 {
		t.Errorf("minSamples: p95 %d, p50 %d", minSamples(0.95), minSamples(0.5))
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, printed []metricDef, declared map[string]string) {
		if len(printed) != len(declared) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(printed), len(declared))
		}
		for _, m := range printed {
			if !name.MatchString(m.name) {
				t.Errorf("%s metric %q is not [A-Za-z0-9_.-]+", kind, m.name)
			}
			unit, ok := declared[m.name]
			if !ok {
				t.Errorf("%s metric %q is missing from BENCHMARK.json", kind, m.name)
			} else if unit != m.unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, m.name, m.unit, unit)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layer)

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

// workloadsFile is perfbench/workloads.json: per workload, the layers it
// stresses and bypasses and the predicted coupling from layer metrics to
// end-to-end metrics.
type workloadsFile struct {
	Workloads []struct {
		Name        string            `json:"name"`
		Why         string            `json:"why"`
		Stresses    []string          `json:"stresses"`
		Bypasses    []string          `json:"bypasses"`
		Meaning     map[string]string `json:"end_to_end_meaning"`
		Predictions []struct {
			Layer       []string `json:"layer_metrics"`
			ShouldMove  []string `json:"should_move"`
			ShouldNot   []string `json:"should_not_move"`
			Explanation string   `json:"because"`
		} `json:"predictions"`
	} `json:"workloads"`
}

func TestWorkloadRecordsAreConsistent(t *testing.T) {
	var wf workloadsFile
	readJSON(t, "workloads.json", &wf)
	layers := map[string]bool{"serve": true, "engine": true, "persist": true, "core": true, "sketch": true, "isomorph": true,
		"solve": true, "milp": true, "lp": true, "sim": true, "verify": true, "topology": true}
	e2e := make(map[string]bool)
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	layer := make(map[string]bool)
	for _, m := range perLayer {
		layer[m.name] = true
	}
	var names []string
	for _, w := range wf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Stresses) == 0 || len(w.Predictions) == 0 {
			t.Errorf("%s: needs why, stresses and predictions", w.Name)
		}
		for _, l := range append(append([]string(nil), w.Stresses...), w.Bypasses...) {
			if !layers[l] {
				t.Errorf("%s: unknown layer %q", w.Name, l)
			}
		}
		for _, p := range w.Predictions {
			for _, m := range p.Layer {
				if !layer[m] {
					t.Errorf("%s: prediction cites unknown per-layer metric %q", w.Name, m)
				}
			}
			for _, m := range append(append([]string(nil), p.ShouldMove...), p.ShouldNot...) {
				if !e2e[m] {
					t.Errorf("%s: prediction cites unknown end-to-end metric %q", w.Name, m)
				}
			}
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads.json lists %v, benchmark runs %v", names, workloadNames())
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += float64(len(coldSequence(int64(x), 60)))
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("no CPU samples collected")
	}
	name := runtime.FuncForPC(reflect.ValueOf(coldSequence).Pointer()).Name()
	if s := p.cumulativeShare(name); s < 0.1 {
		t.Errorf("coldSequence's cumulative share %.2f, want a visible share of the profile", s)
	}
	if s := p.cumulativeShare("no/such/package."); s != 0 {
		t.Errorf("absent package share %v", s)
	}
}

// TestConcurrentWorkloadsRun drives the two workloads whose clients run
// concurrently through a short traced run (traced runs need no minimum
// sample count), so `go test -race` covers their shared state.
func TestConcurrentWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the planner for several seconds")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range []string{"warm_store", "fault_replan"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1"}, &out, &errOut); code != 0 {
			t.Errorf("%s: exit %d\n%s", w, code, errOut.String())
			continue
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", w, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: result %+v", w, res)
		}
	}
}
