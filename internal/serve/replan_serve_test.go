package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"syccl/internal/cli"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

func postPath(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, raw
}

// TestSynthesizeWithTopologyDelta drives the daemon fast path: a
// synthesize request carrying a topology_delta plans on the degraded
// fabric, keys separately from the healthy plan, and the schedule passes
// the oracle on the degraded topology.
func TestSynthesizeWithTopologyDelta(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Healthy baseline.
	resp, raw := postPath(t, ts.URL, "/v1/synthesize",
		`{"topology":"dgx4","collective":"allgather","size":"1M","workers":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy: status %d: %s", resp.StatusCode, raw)
	}
	var healthy SynthesizeResponse
	if err := json.Unmarshal(raw, &healthy); err != nil {
		t.Fatal(err)
	}

	// Degraded: the NVSwitch of dgx4 is node 4; slow GPU 0's port.
	const delta = "slow:0-4*4"
	body := fmt.Sprintf(`{"topology":"dgx4","collective":"allgather","size":"1M","workers":2,"include_schedule":true,"topology_delta":%q}`, delta)
	resp, raw = postPath(t, ts.URL, "/v1/synthesize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded: status %d: %s", resp.StatusCode, raw)
	}
	var degraded SynthesizeResponse
	if err := json.Unmarshal(raw, &degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.ID == "" || degraded.ID == healthy.ID {
		t.Fatalf("degraded plan must have its own schedule ID (healthy %q, degraded %q)", healthy.ID, degraded.ID)
	}
	if degraded.PredictedTimeS <= healthy.PredictedTimeS {
		t.Errorf("slowing a link cannot speed up the collective: healthy %g, degraded %g",
			healthy.PredictedTimeS, degraded.PredictedTimeS)
	}
	if degraded.Schedule == nil {
		t.Fatal("include_schedule ignored")
	}
	sched, err := degraded.Schedule.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	base, err := cli.ParseTopology("dgx4")
	if err != nil {
		t.Fatal(err)
	}
	d, err := topology.ParseDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	degTop, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	col, err := cli.BuildCollective("allgather", degTop.NumGPUs(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckSchedule(col, sched); err != nil {
		t.Fatalf("degraded schedule fails oracle: %v", err)
	}

	// Structured rejections: bad syntax and an infeasible delta (killing
	// GPU 0's only NVLink disconnects it).
	for _, bad := range []string{"slow:0-4", "kill:0-4"} {
		body := fmt.Sprintf(`{"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":%q}`, bad)
		resp, raw := postPath(t, ts.URL, "/v1/synthesize", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("delta %q: status %d, want 400: %s", bad, resp.StatusCode, raw)
		}
		var e struct {
			Error APIError `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != CodeBadDelta {
			t.Fatalf("delta %q: want code %q, got %s", bad, CodeBadDelta, raw)
		}
	}
}

// TestReplanEndpoint exercises POST /v1/replan end to end: warm the
// engine with a healthy plan, replan under a degrade delta, and check
// the replan bookkeeping plus the write-through into the schedule store.
func TestReplanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, raw := postPath(t, ts.URL, "/v1/synthesize",
		`{"topology":"h800small","collective":"allgather","size":"1M","workers":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm synthesize: status %d: %s", resp.StatusCode, raw)
	}

	// h800small is H800Small(6): GPUs 0..23, then per-server NVSwitches —
	// node 24 is server 0's switch. Slow one NVLink port: 1 of 12 groups.
	const body = `{"topology":"h800small","collective":"allgather","size":"1M","workers":2,"topology_delta":"slow:0-24*4"}`
	resp, raw = postPath(t, ts.URL, "/v1/replan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replan: status %d: %s", resp.StatusCode, raw)
	}
	var rr SynthesizeResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Replan == nil {
		t.Fatalf("replan response missing replan bookkeeping: %s", raw)
	}
	if rr.Replan.Delta != "slow:0-24*4" {
		t.Errorf("replan echoed delta %q", rr.Replan.Delta)
	}
	// 10 groups: 6 NVSwitch servers + 4 rails of 6 GPUs.
	if rr.Replan.TouchedGroups != 1 || rr.Replan.TotalGroups != 10 {
		t.Errorf("touched %d/%d groups, want 1/10", rr.Replan.TouchedGroups, rr.Replan.TotalGroups)
	}
	if rr.Replan.ReusedSubs == 0 {
		t.Error("warm replan reused nothing")
	}
	if rr.Replan.ReuseRatio < 0.5 {
		t.Errorf("reuse ratio %.2f < 0.5 (reused %d, solved %d)",
			rr.Replan.ReuseRatio, rr.Replan.ReusedSubs, rr.Replan.SolvedSubs)
	}
	if rr.ID == "" {
		t.Fatal("replan response missing schedule ID")
	}

	// The replan wrote through to the store: fetch by ID, and a repeat
	// synthesize with the same delta is a store hit.
	fresp, fraw := getJSON(t, ts.URL+"/v1/schedule/"+rr.ID)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fetch replanned schedule: status %d: %s", fresp.StatusCode, fraw)
	}
	sresp, sraw := postPath(t, ts.URL, "/v1/synthesize", body)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("repeat synthesize: status %d: %s", sresp.StatusCode, sraw)
	}
	var repeat SynthesizeResponse
	if err := json.Unmarshal(sraw, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Error("synthesize after replan with the same delta should be a store hit")
	}
	if repeat.PredictedTimeS != rr.PredictedTimeS {
		t.Errorf("store round trip changed predicted time: %g vs %g", repeat.PredictedTimeS, rr.PredictedTimeS)
	}

	// A replan without a delta is a structured 400.
	resp, raw = postPath(t, ts.URL, "/v1/replan",
		`{"topology":"h800small","collective":"allgather","size":"1M"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("deltaless replan: status %d: %s", resp.StatusCode, raw)
	}
	var e struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != CodeBadDelta {
		t.Fatalf("deltaless replan: want code %q, got %s", CodeBadDelta, raw)
	}
}

// TestReplanCoalescing64: 64 ranks reporting one fault at once cost one
// engine replan. The only admission slot is held until every request has
// joined the flight, so none can arrive after it finished; every request
// then gets the same 200 answer and all but the leader are coalesced.
func TestReplanCoalescing64(t *testing.T) {
	s, ts := newTestServer(t, Options{Concurrency: 1})
	const n = 64
	const body = `{"topology":"dgx4","collective":"allgather","size":"1M","topology_delta":"slow:0-4*4"}`

	ctx, cancel := contextWithTimeout(t, 10*time.Second)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	replans := s.Engine().Stats().Replans

	var wg sync.WaitGroup
	results := make([]SynthesizeResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/replan", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	waitFor(t, 10*time.Second, "every replan to join the flight", func() bool {
		return s.Stats().Server.Coalesced == n-1
	})
	s.adm.release()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if d := s.Engine().Stats().Replans - replans; d != 1 {
		t.Fatalf("64 identical concurrent replans ran %d engine replans, want 1", d)
	}
	coalesced := 0
	for i, r := range results {
		if r.Coalesced {
			coalesced++
		}
		if r.ID == "" || r.ID != results[0].ID {
			t.Fatalf("response %d id %q, response 0 id %q", i, r.ID, results[0].ID)
		}
		if r.Replan == nil || *r.Replan != *results[0].Replan {
			t.Fatalf("response %d replan block %+v, response 0 %+v", i, r.Replan, results[0].Replan)
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d of %d replans coalesced, want %d", coalesced, n, n-1)
	}
}
