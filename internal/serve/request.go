package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// Request is the body of POST /v1/synthesize. Topology, collective, and
// size use the same specs as the command-line tools (cli.ParseTopology /
// cli.BuildCollective / cli.ParseSize); everything else is optional and
// defaults to the server's configuration.
type Request struct {
	// Topology is a topology spec such as "dgx4", "server8", "a100x16".
	Topology string `json:"topology"`
	// Collective is a collective kind such as "allgather" or "alltoall".
	Collective string `json:"collective"`
	// Size is the aggregate data size, e.g. "64M", "1G", "1048576".
	Size string `json:"size"`
	// TimeoutMS caps synthesis wall time in milliseconds. On expiry the
	// best schedule found so far is returned with HTTP 206 and
	// partial=true. 0 (or absent) uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// E1/E2 override the coarse/fine epoch knobs (0 = paper defaults).
	E1 float64 `json:"e1,omitempty"`
	E2 float64 `json:"e2,omitempty"`
	// Workers bounds synthesis parallelism (0 = server default). Worker
	// count never changes the schedule, so it is excluded from the
	// coalescing key.
	Workers int `json:"workers,omitempty"`
	// Seed drives randomized pipeline components.
	Seed int64 `json:"seed,omitempty"`
	// IncludeSchedule asks for the full transfer list in the response
	// (it is always available later via GET /v1/schedule/{id}).
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// BypassStore skips the served-result store so the request always
	// reaches the engine (it still coalesces with identical in-flight
	// requests and still warms the engine caches). Load tests use this
	// to measure the engine-warm rather than the store-hit path.
	BypassStore bool `json:"bypass_store,omitempty"`
	// SketchHint constrains the sketch search with a TACCL-style hint
	// spec, e.g. "dims=1,0;sizes=4,2;family=tree" (see sketch.ParseHint).
	// Hinted requests never share cache entries or flights with unhinted
	// ones.
	SketchHint string `json:"sketch_hint,omitempty"`
	// Stream switches the response to application/x-ndjson: one
	// "incumbent" event per improving schedule as synthesis runs,
	// terminated by a "final" event carrying the SynthesizeResponse (or
	// an "error" event). Streaming responses are always HTTP 200; late
	// failures arrive as the terminal event.
	Stream bool `json:"stream,omitempty"`
	// StopWithinPct, when positive, stops synthesis at the coarse/fine
	// boundary once the incumbent is within this percentage of its flow
	// lower bound (e.g. 5 = accept anything within 5% of provably
	// optimal). Range [0,100].
	StopWithinPct float64 `json:"stop_within_pct,omitempty"`
	// TopologyDelta degrades the topology before synthesis using the
	// delta spec syntax of topology.ParseDelta — comma-separated
	// "kill:A-B" (fail link), "node:N" (fail a non-GPU node),
	// "slow:A-B*F" (scale link β) and "lag:A-B*F" (scale link α) terms,
	// node IDs as in the base topology. The schedule is synthesized,
	// keyed, and stored against the degraded fabric; POST /v1/replan
	// additionally runs selective cache invalidation first.
	TopologyDelta string `json:"topology_delta,omitempty"`
}

// Error codes returned in the structured error body.
const (
	CodeBadRequest    = "bad_request"
	CodeBadTopology   = "bad_topology"
	CodeBadCollective = "bad_collective"
	CodeBadSize       = "bad_size"
	CodeBadHint       = "bad_hint"
	CodeBadDelta      = "bad_delta"
	CodeBodyTooLarge  = "body_too_large"
	CodeQueueFull     = "queue_full"
	CodeDraining      = "draining"
	CodeDeadline      = "deadline"
	CodeNotFound      = "not_found"
	CodeInternal      = "internal"
)

// APIError is a structured error: it renders as
// {"error":{"code":...,"message":...}} with the given HTTP status.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func apiErrorf(status int, code, format string, args ...interface{}) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeRequest reads and validates a synthesize request body of at most
// maxBytes bytes. It is strict: unknown fields, trailing garbage, and
// out-of-range values are structured 400s, and oversized bodies are 413s.
// The decoder never panics on arbitrary input (FuzzDecodeRequest).
func DecodeRequest(r io.Reader, maxBytes int64) (*Request, *APIError) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	lr := &io.LimitedReader{R: r, N: maxBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		if lr.N <= 0 {
			return nil, apiErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", maxBytes)
		}
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "malformed JSON body: %v", err)
	}
	// Reject trailing non-whitespace after the JSON object.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if lr.N <= 0 {
			return nil, apiErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", maxBytes)
		}
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "trailing data after JSON body")
	}
	if strings.TrimSpace(req.Topology) == "" {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "missing required field %q", "topology")
	}
	if strings.TrimSpace(req.Collective) == "" {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "missing required field %q", "collective")
	}
	if strings.TrimSpace(req.Size) == "" {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "missing required field %q", "size")
	}
	if req.TimeoutMS < 0 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if req.E1 < 0 || req.E2 < 0 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "e1/e2 must be >= 0")
	}
	if req.Workers < 0 || req.Workers > 4096 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "workers must be in [0,4096], got %d", req.Workers)
	}
	if req.StopWithinPct < 0 || req.StopWithinPct > 100 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"stop_within_pct must be in [0,100], got %g", req.StopWithinPct)
	}
	// The hint's syntax is validated here so malformed specs fail fast
	// with a structured code; topology-dependent checks (dimension range)
	// happen in resolve once the topology is known.
	if _, err := sketch.ParseHint(req.SketchHint); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadHint, "%v", err)
	}
	// Same split for the delta: syntax here (FuzzDecodeDelta pins that
	// the parser never panics), feasibility against the topology in
	// resolve. An absent/blank delta means "healthy topology".
	if strings.TrimSpace(req.TopologyDelta) != "" {
		if _, err := topology.ParseDelta(req.TopologyDelta); err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadDelta, "%v", err)
		}
	}
	return req, nil
}

// resolved is a fully validated, default-filled request: concrete
// topology and collective plus the normalized core options that the
// engine will run with. The coalescing key is derived from this form so
// that spelled-out defaults and omitted fields coalesce.
type resolved struct {
	req *Request
	// top is the topology synthesis runs on: the base topology, or the
	// degraded one when the request carries a topology_delta. base and
	// delta keep the un-degraded inputs for the /v1/replan fast path.
	top     *topology.Topology
	base    *topology.Topology
	delta   *topology.Delta
	col     *collective.Collective
	opts    core.Options
	timeout time.Duration
	key     string
	id      string
	// replan runs the flight through engine.Replan: set for POST
	// /v1/replan, whose key carries a "replan|" prefix so replans and
	// synthesize requests never share a flight.
	replan bool
}

// resolve maps request specs onto concrete objects, surfacing each
// failure as its own structured 400 code.
func (s *Server) resolve(req *Request) (*resolved, *APIError) {
	top, err := cli.ParseTopology(req.Topology)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadTopology, "%v", err)
	}
	base := top
	var delta *topology.Delta
	if strings.TrimSpace(req.TopologyDelta) != "" {
		delta, err = topology.ParseDelta(req.TopologyDelta)
		if err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadDelta, "%v", err)
		}
	}
	if !delta.Empty() {
		// Applying the delta up front makes the degraded fingerprint part
		// of PlanKey, so degraded and healthy requests never share a
		// flight, store entry, or schedule ID.
		top, err = delta.Apply(base)
		if err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadDelta, "%v", err)
		}
	}
	size, err := cli.ParseSize(req.Size)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadSize, "%v", err)
	}
	col, err := cli.BuildCollective(req.Collective, top.NumGPUs(), size)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadCollective, "%v", err)
	}
	opts := core.Options{
		E1:      req.E1,
		E2:      req.E2,
		Workers: req.Workers,
		Seed:    req.Seed,
	}
	// Normalize so that "absent" and "explicit default" key identically.
	if opts.E1 <= 0 {
		opts.E1 = 3.0
	}
	if opts.E2 <= 0 {
		opts.E2 = 0.5
	}
	if opts.Workers <= 0 {
		opts.Workers = s.opts.DefaultWorkers
	}
	// The hint re-parses into its canonical *sketch.Hint, so two
	// spellings of the same hint coalesce (PlanKey embeds the canonical
	// form). Syntax was already checked in DecodeRequest; the dimension
	// range check needs the topology.
	hint, err := sketch.ParseHint(req.SketchHint)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadHint, "%v", err)
	}
	if err := hint.Validate(top.NumDims()); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadHint, "%v", err)
	}
	opts.Hint = hint
	opts.StopWithin = req.StopWithinPct / 100
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	r := &resolved{req: req, top: top, base: base, delta: delta, col: col, opts: opts, timeout: timeout}
	// The timeout participates in the key: two identical demands with
	// different deadlines must not share a flight, or the longer request
	// would inherit the shorter one's (possibly Partial) result.
	planKey := engine.PlanKey(top, col, opts)
	r.key = fmt.Sprintf("%s|to=%d|bypass=%t", planKey, timeout, req.BypassStore)
	r.id = scheduleID(planKey)
	return r, nil
}
