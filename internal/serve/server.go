// Package serve is the network-facing layer of the SyCCL planner: a
// stdlib-only JSON HTTP API over a shared, long-lived engine.Engine.
//
// The server does the production plumbing the engine deliberately leaves
// out:
//
//   - single-flight coalescing — concurrent duplicate requests (same
//     engine.PlanKey and deadline) share one solve, so N identical cold
//     requests cost one trip through the pipeline, and N identical
//     replans one engine replan;
//   - admission control — a configurable solve concurrency with a bounded
//     wait queue; overflow is rejected immediately with 429 and a
//     Retry-After hint rather than queued without bound;
//   - deadlines — per-request timeouts map onto the engine's cooperative
//     cancellation, surfacing anytime Partial schedules as HTTP 206;
//   - a result store — completed schedules are retained in an LRU and
//     fetchable by id, so warm duplicates are served in microseconds
//     without touching the engine at all;
//   - graceful drain — on SIGTERM the server stops accepting synthesis
//     work, lets (or, past a deadline, cancels-into-Partial) every
//     accepted request finish, and flushes stats;
//   - telemetry — labeled Prometheus metrics, per-request IDs and span
//     trees, a structured access log, and a flight recorder of recent
//     and slowest requests.
//
// Endpoints: POST /v1/synthesize, POST /v1/replan, GET /v1/schedule/{id},
// GET /healthz, GET /statsz, GET /tracez (Chrome trace of recent server
// activity), GET /metrics (Prometheus text exposition), GET
// /debug/requests and GET /debug/requests/{id} (flight recorder). Every
// response carries an X-Syccl-Request header naming the request's flight
// record.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/obs"
	"syccl/internal/persist"
)

// Defaults for Options zero values.
const (
	DefaultQueueDepth   = 64
	DefaultStoreEntries = 256
	DefaultMaxBodyBytes = 1 << 20
	DefaultRetryAfter   = 1 * time.Second
	DefaultMaxSpans     = 16 << 10
	DefaultMaxSamples   = 64 << 10
)

// RequestIDHeader names the response header carrying the request's id;
// GET /debug/requests/{id} returns that request's flight record.
const RequestIDHeader = "X-Syccl-Request"

// Options configures a Server.
type Options struct {
	// Engine is the shared planner; a fresh one is built when nil.
	Engine *engine.Engine
	// Concurrency bounds simultaneous solves (default GOMAXPROCS).
	Concurrency int
	// QueueDepth bounds flights waiting for a solve slot (default 64);
	// beyond it requests get 429 + Retry-After.
	QueueDepth int
	// StoreEntries bounds the served-result LRU (default 256).
	StoreEntries int
	// DefaultTimeout applies to requests that do not set timeout_ms
	// (0 = no deadline).
	DefaultTimeout time.Duration
	// DefaultWorkers is the synthesis parallelism for requests that do
	// not set workers (0 = GOMAXPROCS, the core default).
	DefaultWorkers int
	// RetryAfter is the hint returned with 429s (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Obs receives handler spans and each flight's pipeline spans and
	// counters, and backs GET /tracez. A bounded recorder
	// (DefaultMaxSpans/DefaultMaxSamples retention) is built when nil.
	Obs *obs.Recorder
	// Metrics backs GET /metrics; serve and engine families register on
	// it. A fresh registry is built when nil (and when Engine is also
	// built here, the engine shares it).
	Metrics *obs.Registry
	// AccessLog, when non-nil, receives one structured JSON line per
	// API request. Writes are serialized by the server.
	AccessLog io.Writer
	// RecentRequests / SlowRequests bound the flight recorder's two
	// windows (defaults 256 / 32).
	RecentRequests int
	SlowRequests   int
	// Persist, when non-nil, is the disk tier shared by the engine (solve
	// entries, written through as they are solved) and the schedule store
	// (flushed as a snapshot, restored before the listener comes up). A
	// rebooted daemon on the same directory replays previously served
	// requests from the store with zero solver calls. When Engine is also
	// nil, the engine built here gets Persist as its disk tier.
	Persist *persist.Store
	// SnapshotInterval flushes the schedule store to the persist snapshot
	// periodically (0 = only at the end of Drain). Ignored without
	// Persist.
	SnapshotInterval time.Duration
	// Prewarm lists synthesis requests the server plans in the background
	// after boot, using idle capacity only, to populate the stores before
	// real traffic arrives. Typically built with PrewarmGrid.
	Prewarm []Request
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.StoreEntries <= 0 {
		o.StoreEntries = DefaultStoreEntries
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = DefaultRetryAfter
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.Obs == nil {
		o.Obs = obs.NewRecorder()
		o.Obs.SetRetention(DefaultMaxSpans, DefaultMaxSamples)
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Engine == nil {
		o.Engine = engine.New(engine.Options{Metrics: o.Metrics, Persist: persistTier(o.Persist)})
	}
	return o
}

// persistTier adapts the optional store to the engine option without
// handing the engine a typed-nil interface.
func persistTier(p *persist.Store) engine.PersistTier {
	if p == nil {
		return nil
	}
	return p
}

// SynthesizeResponse is the body of POST /v1/synthesize (200/206) and
// GET /v1/schedule/{id}.
type SynthesizeResponse struct {
	// ID fetches the stored schedule via GET /v1/schedule/{id}. Empty for
	// Partial results, which are not stored.
	ID         string  `json:"id,omitempty"`
	Topology   string  `json:"topology"`
	Collective string  `json:"collective"`
	NumGPUs    int     `json:"num_gpus"`
	SizeBytes  float64 `json:"size_bytes"`
	// PredictedTimeS is the simulator-predicted completion time.
	PredictedTimeS float64 `json:"predicted_time_s"`
	BusBWGBps      float64 `json:"busbw_gbps"`
	Transfers      int     `json:"transfers"`
	// SolverCalls is how many sub-demand solves this synthesis actually
	// executed (0 = served entirely from the engine's warm caches).
	SolverCalls int `json:"solver_calls"`
	// Partial marks an anytime result cut short by the deadline
	// (HTTP 206).
	Partial bool `json:"partial"`
	// Coalesced marks a response that shared another request's in-flight
	// solve.
	Coalesced bool `json:"coalesced"`
	// Cached marks a response served from the schedule store without
	// invoking the engine.
	Cached   bool          `json:"cached"`
	Schedule *ScheduleJSON `json:"schedule,omitempty"`
	// Replan carries the fault-reactive bookkeeping for POST /v1/replan
	// responses; absent on plain synthesize responses.
	Replan *ReplanJSON `json:"replan,omitempty"`
}

// ReplanJSON is the replan-specific half of a POST /v1/replan response:
// what the delta touched, what was invalidated, and how much of the new
// plan replayed from the engine's warm caches.
type ReplanJSON struct {
	Delta         string  `json:"delta"`
	TouchedGroups int     `json:"touched_groups"`
	TotalGroups   int     `json:"total_groups"`
	Invalidated   int     `json:"invalidated"`
	ReusedSubs    int     `json:"reused_subs"`
	SolvedSubs    int     `json:"solved_subs"`
	ReuseRatio    float64 `json:"reuse_ratio"`
}

// ServerStats is the server half of GET /statsz.
type ServerStats struct {
	Requests        int64 `json:"requests"`
	Coalesced       int64 `json:"coalesced"`
	StoreHits       int64 `json:"store_hits"`
	StoreEntries    int   `json:"store_entries"`
	StoreEvictions  int64 `json:"store_evictions"`
	QueueRejections int64 `json:"queue_rejections"`
	Partial         int64 `json:"partial"`
	Errors          int64 `json:"errors"`
	InFlight        int64 `json:"in_flight"`
	Flights         int   `json:"flights"`
	Draining        bool  `json:"draining"`
	// Restored counts schedule-store entries recovered from the persist
	// snapshot at boot; Prewarmed counts background prewarm plans that
	// landed in the store.
	Restored  int64 `json:"restored"`
	Prewarmed int64 `json:"prewarmed"`
}

// StatsSnapshot is the body of GET /statsz.
type StatsSnapshot struct {
	Server ServerStats  `json:"server"`
	Engine engine.Stats `json:"engine"`
}

// Server is the HTTP serving layer. Construct with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	opts    Options
	eng     *engine.Engine
	rec     *obs.Recorder
	mux     *http.ServeMux
	adm     *admission
	flights *flightGroup
	store   *scheduleStore

	met  *serveMetrics
	frec *flightRecorder
	alog *accessLogger
	ids  *requestIDs

	// persist is the optional disk tier; bgCancel stops the snapshot and
	// prewarm loops (both counted in bgFlight) when the server drains.
	persist  *persist.Store
	bgCancel context.CancelFunc

	draining atomic.Bool
	// inFlight counts accepted HTTP requests; bgFlights counts leader
	// solve goroutines. Drain waits for both to hit zero.
	inFlight atomic.Int64
	bgFlight atomic.Int64

	requests       atomic.Int64
	coalesced      atomic.Int64
	storeHits      atomic.Int64
	storeEvictions atomic.Int64
	rejections     atomic.Int64
	partials       atomic.Int64
	errs           atomic.Int64
	restored       atomic.Int64
	prewarmed      atomic.Int64
}

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		eng:     opts.Engine,
		rec:     opts.Obs,
		adm:     newAdmission(opts.Concurrency, opts.QueueDepth),
		flights: newFlightGroup(),
		met:     newServeMetrics(opts.Metrics),
		frec:    newFlightRecorder(opts.RecentRequests, opts.SlowRequests),
		alog:    newAccessLogger(opts.AccessLog),
		ids:     newRequestIDs(),
		persist: opts.Persist,
	}
	s.store = newScheduleStore(opts.StoreEntries, func() { s.storeEvictions.Add(1) })
	bgCtx, bgCancel := context.WithCancel(context.Background())
	s.bgCancel = bgCancel
	if s.persist != nil {
		// Bind before restore so the restore's snapshot load is counted,
		// then warm the schedule store before the first request can land.
		s.persist.BindMetrics(opts.Metrics)
		s.restoreScheduleStore()
		if opts.SnapshotInterval > 0 {
			s.bgFlight.Add(1)
			go s.snapshotLoop(bgCtx, opts.SnapshotInterval)
		}
	}
	if len(opts.Prewarm) > 0 {
		s.bgFlight.Add(1)
		go s.prewarmLoop(bgCtx)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", func(w http.ResponseWriter, r *http.Request) { s.handlePlan(w, r, false) })
	mux.HandleFunc("POST /v1/replan", func(w http.ResponseWriter, r *http.Request) { s.handlePlan(w, r, true) })
	mux.HandleFunc("GET /v1/schedule/{id}", s.handleSchedule)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /tracez", s.handleTracez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequest)
	s.mux = mux
	return s
}

// Engine exposes the shared planner (tests assert cache behavior through
// Engine().Stats()).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Recorder exposes the server's observability sink.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Metrics exposes the registry behind GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.opts.Metrics }

// InFlight reports accepted requests currently being served.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// Draining reports whether the server has stopped accepting synthesis
// work.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServeHTTP is the request-scoped telemetry middleware around the mux:
// it mints the request id, answers with it in X-Syccl-Request, threads
// it through the context, and — for API routes — emits the metrics,
// access-log line, and flight record exactly once after the handler
// returns.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	id := s.ids.next()
	w.Header().Set(RequestIDHeader, id)

	// Non-API routes (health, stats, the telemetry endpoints themselves)
	// get the id header but are not recorded — scrapes must not pollute
	// the request metrics they report.
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		s.mux.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
		return
	}

	rr := &RequestRecord{
		ID:     id,
		Method: r.Method,
		Path:   r.URL.Path,
		Start:  time.Now(),
		Cache:  cacheTierNone,
	}
	ctx := obs.WithRequestID(r.Context(), id)
	ctx = withRequestRecord(ctx, rr)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()

	s.mux.ServeHTTP(sw, r.WithContext(ctx))

	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	rr.Status = sw.status
	rr.Outcome = outcomeFor(sw.status)
	rr.DurationUS = float64(time.Since(start)) / float64(time.Microsecond)

	coll, topo := rr.Collective, rr.Topology
	if coll == "" {
		coll = labelUnknown
	}
	if topo == "" {
		topo = labelUnknown
	}
	s.met.requests.With(coll, topo, rr.Cache, rr.Outcome).Inc()
	s.met.duration.With(coll, topo, rr.Cache).Observe(rr.DurationUS / 1e6)
	s.frec.add(rr)
	s.alog.log(rr)
}

// Stats snapshots the server and engine counters.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		Server: ServerStats{
			Requests:        s.requests.Load(),
			Coalesced:       s.coalesced.Load(),
			StoreHits:       s.storeHits.Load(),
			StoreEntries:    s.store.len(),
			StoreEvictions:  s.storeEvictions.Load(),
			QueueRejections: s.rejections.Load(),
			Partial:         s.partials.Load(),
			Errors:          s.errs.Load(),
			InFlight:        s.inFlight.Load(),
			Flights:         s.flights.len(),
			Draining:        s.draining.Load(),
			Restored:        s.restored.Load(),
			Prewarmed:       s.prewarmed.Load(),
		},
		Engine: s.eng.Stats(),
	}
}

// handlePlan is the front half of POST /v1/synthesize and POST
// /v1/replan: decode and resolve the body, then hand it to serveResolved,
// which both endpoints share. A replan also requires a topology_delta and
// runs as its own flight under a replan-prefixed key, so identical
// concurrent replans cost one engine replan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, replan bool) {
	name := "http.synthesize"
	if replan {
		name = "http.replan"
	}
	sp := s.rec.StartSpan(name)
	defer sp.End()
	s.requests.Add(1)
	rr := requestRecordFrom(r.Context())

	res, aerr := s.readRequest(r, replan)
	if aerr != nil {
		s.errs.Add(1)
		sp.SetStr("error", aerr.Code)
		if rr != nil {
			rr.Error = aerr.Code
		}
		writeAPIError(w, aerr)
		return
	}
	sp.SetStr("topology", res.top.Name)
	sp.SetStr("collective", res.col.Kind.String())
	if rr != nil {
		rr.Topology = strings.ToLower(res.req.Topology)
		rr.Collective = strings.ToLower(res.col.Kind.String())
		rr.PlanKey = res.id
	}
	s.serveResolved(w, r, res)
}

// readRequest refuses work while draining, then decodes and resolves the
// body.
func (s *Server) readRequest(r *http.Request, replan bool) (*resolved, *APIError) {
	if s.draining.Load() {
		return nil, apiErrorf(http.StatusServiceUnavailable, CodeDraining, "server is draining")
	}
	req, aerr := DecodeRequest(r.Body, s.opts.MaxBodyBytes)
	if aerr != nil {
		return nil, aerr
	}
	if replan && strings.TrimSpace(req.TopologyDelta) == "" {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadDelta, "missing required field %q", "topology_delta")
	}
	res, aerr := s.resolve(req)
	if aerr != nil {
		return nil, aerr
	}
	if replan {
		res.replan = true
		res.key = "replan|" + res.key
	}
	return res, nil
}

// serveResolved answers a resolved request with exactly one terminal
// result. A store hit is answered before any flight exists; replans skip
// the store because a fault is news, and so do bypass_store requests.
// Everything else joins, or starts, the single flight for res.key. A
// streaming request relays the flight's incumbent events first; a JSON
// response is the same stream drained to its final event.
func (s *Server) serveResolved(w http.ResponseWriter, r *http.Request, res *resolved) {
	rr := requestRecordFrom(r.Context())
	out := &responder{w: w, stream: res.req.Stream, schedule: res.req.IncludeSchedule}

	if !res.replan && !res.req.BypassStore {
		if ent, ok := s.store.get(res.id); ok {
			s.storeHits.Add(1)
			if rr != nil {
				rr.Cache = cacheTierStore
			}
			resp := ent.resp
			resp.Cached = true
			out.final(http.StatusOK, resp, ent.sched)
			return
		}
	}

	f, leader := s.joinOrStart(rr, res)
	defer s.flights.leave(f)
	if !leader {
		s.coalesced.Add(1)
	}
	// A stream subscribes before waiting: the history replay covers
	// everything published before this point, the live channel everything
	// after. A JSON response never reads events, and a nil channel never
	// delivers any.
	var sub <-chan StreamEvent
	if out.stream {
		sub = f.subscribe()
	}

wait:
	for {
		select {
		case ev := <-sub:
			out.emit(ev)
		case <-f.done:
			break wait
		case <-r.Context().Done():
			// The client is gone (or its transport deadline fired); leaving
			// drops our stake in the flight, and the last waiter out cancels
			// the solve so abandoned work never populates the engine caches.
			s.errs.Add(1)
			if rr != nil {
				rr.Error = "client_gone"
			}
			s.fail(out, apiErrorf(http.StatusServiceUnavailable, CodeDeadline, "client disconnected: %v", r.Context().Err()))
			return
		}
	}
	// Every publish happens-before close(f.done), but the select above may
	// take the done arm while events still sit in the buffer — drain them
	// so the stream is complete before the terminal event.
	for drained := false; !drained; {
		select {
		case ev := <-sub:
			out.emit(ev)
		default:
			drained = true
		}
	}

	// The flight is done: copy its telemetry into this request's record.
	// Followers share the leader's span tree and latency breakdown.
	if rr != nil {
		rr.Leader = leader
		rr.Coalesced = !leader
		rr.QueueWaitUS = float64(f.queueWait) / float64(time.Microsecond)
		rr.SolveUS = float64(f.solve) / float64(time.Microsecond)
		rr.Spans = f.spans
		if leader {
			rr.Cache = f.cache
		} else {
			rr.Cache = cacheTierCoal
		}
	}

	if f.apiErr != nil {
		if rr != nil {
			rr.Error = f.apiErr.Code
		}
		s.fail(out, f.apiErr)
		return
	}
	resp := f.resp
	resp.Coalesced = !leader
	if rr != nil {
		rr.Partial = resp.Partial
	}
	out.final(f.status, resp, f.sched)
}

// fail writes a terminal error. Before anything was streamed (always, for
// a JSON response) it is the response's status and structured body, with
// a load-derived Retry-After on 429s; after, it is the stream's error
// event.
func (s *Server) fail(out *responder, e *APIError) {
	if out.started {
		out.emit(StreamEvent{Event: StreamEventError, Error: e})
		return
	}
	if e.Code == CodeQueueFull {
		_, queued := s.adm.load()
		out.w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterHint(s.opts.RetryAfter, queued, s.opts.Concurrency)))
	}
	writeAPIError(out.w, e)
}

// joinOrStart joins the single flight for res.key, becoming the leader
// (and starting the solve goroutine) when this caller is first in. rr is
// nil for the prewarmer.
func (s *Server) joinOrStart(rr *RequestRecord, res *resolved) (*flight, bool) {
	f, leader := s.flights.join(res.key)
	if leader {
		f.rec = obs.NewRecorder()
		if rr != nil {
			f.reqID = rr.ID
		}
		s.bgFlight.Add(1)
		go s.runFlight(f, res)
	}
	return f, leader
}

// runFlight executes one coalesced solve: admission, deadline, engine
// plan (or replan), store. It publishes the outcome on f before closing
// f.done.
//
// The solve's spans land on f.rec — a recorder private to this flight —
// so the request owns its span tree; the tree is then merged into the
// server's recorder, keeping /tracez a whole-process view.
func (s *Server) runFlight(f *flight, res *resolved) {
	defer s.bgFlight.Add(-1)
	defer close(f.done)
	defer s.flights.remove(f)
	// Registered last so it runs first: publish the span tree and fold
	// this flight's history into the shared recorder before any waiter
	// is released by close(f.done).
	defer func() {
		f.spans = f.rec.Spans()
		s.rec.Merge(f.rec)
	}()

	// Re-check the store under the flight: a request can miss the store,
	// then lose the race with a finishing duplicate flight and become a
	// fresh leader for work that is already done. Serving the stored
	// result here keeps "N duplicates, one engine call" airtight.
	if !res.replan && !res.req.BypassStore {
		if ent, ok := s.store.get(res.id); ok {
			s.storeHits.Add(1)
			f.resp = ent.resp
			f.resp.Cached = true
			f.sched = ent.sched
			f.status = http.StatusOK
			f.cache = cacheTierStore
			return
		}
	}

	queued := time.Now()
	err := s.adm.acquire(f.ctx)
	f.queueWait = time.Since(queued)
	s.met.queueWait.Observe(f.queueWait.Seconds())
	if err != nil {
		if errors.Is(err, errQueueFull) {
			s.rejections.Add(1)
			f.apiErr = apiErrorf(http.StatusTooManyRequests, CodeQueueFull,
				"admission queue full (%d solves running, %d queued); retry later",
				s.opts.Concurrency, s.opts.QueueDepth)
		} else {
			f.apiErr = apiErrorf(http.StatusServiceUnavailable, CodeDeadline, "request abandoned while queued")
		}
		return
	}
	defer s.adm.release()

	ctx := obs.WithRequestID(f.ctx, f.reqID)
	if res.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, res.timeout)
		defer cancel()
	}
	name := "serve.plan"
	if res.replan {
		name = "serve.replan"
	}
	sp := f.rec.StartSpan(name)
	sp.SetStr("key", res.id)
	if f.reqID != "" {
		sp.SetStr("request", f.reqID)
	}
	opts := res.opts
	opts.Obs = f.rec
	solveStart := time.Now()
	// Every leader solve publishes its incumbent stream onto the flight —
	// streaming or not — so followers that asked to stream receive the
	// leader's incumbents live, and the incumbent metrics cover all
	// traffic. The callback runs on synthesis worker goroutines; publish
	// and the metric adds are non-blocking.
	opts.OnIncumbent = func(inc core.Incumbent) {
		elapsed := time.Since(solveStart)
		if inc.Seq == 1 {
			s.met.ttfi.Observe(elapsed.Seconds())
		}
		s.met.incumbents.With(inc.Source).Inc()
		f.publish(StreamEvent{
			Event:     StreamEventIncumbent,
			Seq:       inc.Seq,
			TimeS:     inc.Time,
			BoundS:    inc.Bound,
			Source:    inc.Source,
			Engine:    inc.Engine,
			ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		})
	}
	var result *core.Result
	var replan *engine.ReplanResult
	if res.replan {
		replan, err = s.eng.Replan(ctx, res.base, res.delta, res.col, opts)
		if replan != nil {
			result = replan.Result
		}
	} else {
		result, err = s.eng.Plan(ctx, res.top, res.col, opts)
	}
	f.solve = time.Since(solveStart)
	sp.End()
	s.met.solveDur.With(strings.ToLower(res.col.Kind.String()), strings.ToLower(res.req.Topology)).Observe(f.solve.Seconds())
	if err != nil {
		if ctx.Err() != nil {
			f.apiErr = apiErrorf(http.StatusGatewayTimeout, CodeDeadline,
				"deadline expired before any candidate completed")
		} else {
			s.errs.Add(1)
			f.apiErr = apiErrorf(http.StatusInternalServerError, CodeInternal, "synthesis failed: %v", err)
		}
		return
	}

	resp := s.buildResponse(res, result)
	f.sched = result.Schedule
	f.status = http.StatusOK
	// Engine-warm (every sub-demand from cache) vs a genuine cold solve.
	// Replans keep the "none" tier: store/warm/cold describe synthesize
	// traffic, and syccl_replan_total counts replan outcomes.
	switch {
	case replan != nil:
		f.cache = cacheTierNone
		resp.Replan = &ReplanJSON{
			Delta:         res.delta.String(),
			TouchedGroups: replan.TouchedGroups,
			TotalGroups:   replan.TotalGroups,
			Invalidated:   replan.Invalidated,
			ReusedSubs:    replan.ReusedSubs,
			SolvedSubs:    replan.SolvedSubs,
			ReuseRatio:    replan.ReuseRatio(),
		}
	case result.Stats.SolverCalls == 0:
		f.cache = cacheTierWarm
	default:
		f.cache = cacheTierCold
	}
	if result.Partial {
		// Anytime result: valid and complete, but not the full pipeline's
		// answer — surfaced as 206 and kept out of the store.
		f.status = http.StatusPartialContent
		resp.ID = ""
		s.partials.Add(1)
	} else {
		stored := resp
		stored.Replan = nil // the store serves plain synthesize responses
		s.store.put(res.id, stored, result.Schedule)
	}
	f.resp = resp
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.StartSpan("http.schedule")
	defer sp.End()
	id := r.PathValue("id")
	ent, ok := s.store.get(id)
	if !ok {
		if rr := requestRecordFrom(r.Context()); rr != nil {
			rr.Error = CodeNotFound
		}
		writeAPIError(w, apiErrorf(http.StatusNotFound, CodeNotFound, "no stored schedule %q", id))
		return
	}
	if rr := requestRecordFrom(r.Context()); rr != nil {
		rr.Cache = cacheTierStore
		rr.PlanKey = id
		rr.Collective = strings.ToLower(ent.resp.Collective)
		rr.Topology = strings.ToLower(ent.resp.Topology)
	}
	resp := ent.resp
	resp.Cached = true
	resp.Schedule = ToScheduleJSON(ent.sched)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.rec.WriteChromeTrace(w); err != nil {
		// Headers are already out; nothing useful left to send.
		return
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.scrapeRuntime(s)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.opts.Metrics.WriteProm(w)
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.frec.snapshot())
}

func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rr, ok := s.frec.get(id)
	if !ok {
		writeAPIError(w, apiErrorf(http.StatusNotFound, CodeNotFound,
			"no flight record for request %q (evicted or never recorded)", id))
		return
	}
	writeJSON(w, http.StatusOK, rr)
}

// AdminHandler serves the operational endpoints meant for a private
// listener: net/http/pprof under /debug/pprof/, plus mirrors of
// /metrics and the flight recorder so one scrape target suffices.
// syccl-serve mounts it on -admin; it is never part of ServeHTTP.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Drain gracefully stops the server: new synthesis requests are refused
// with 503 (healthz flips to draining so load balancers stop routing),
// and Drain blocks until every accepted request and solve goroutine has
// finished. If ctx expires first, in-flight solves are cancelled — the
// engine's anytime semantics turn each into a prompt Partial (or
// deadline) response — and Drain still waits for the handlers to flush.
// Finally the stats are flushed to the recorder. Safe to call more than
// once.
func (s *Server) Drain(ctx context.Context) {
	s.draining.Store(true)
	s.rec.Gauge("serve.draining", 1)
	s.met.draining.Set(1)
	// Stop the snapshot and prewarm loops; Drain waits for them through
	// bgFlight and takes the final snapshot itself below.
	s.bgCancel()

	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	cancelled := false
	for s.inFlight.Load() > 0 || s.bgFlight.Load() > 0 {
		select {
		case <-ctx.Done():
			if !cancelled {
				cancelled = true
				s.flights.cancelAll()
			}
		case <-tick.C:
		}
	}

	// Final snapshot: everything served this run warm-boots the next one.
	_ = s.SnapshotNow()

	// Flush: record the final counter values so an exported trace or
	// summary taken after shutdown reflects the whole run.
	st := s.Stats().Server
	s.rec.Gauge("serve.final.requests", float64(st.Requests))
	s.rec.Gauge("serve.final.coalesced", float64(st.Coalesced))
	s.rec.Gauge("serve.final.store_hits", float64(st.StoreHits))
	s.rec.Gauge("serve.final.queue_rejections", float64(st.QueueRejections))
	s.rec.Gauge("serve.final.partial", float64(st.Partial))
}

// DrainOnSignal wires Drain to process signals (typically SIGTERM): on
// the first signal the server drains within drainTimeout and then shuts
// down hs (when non-nil). The returned channel closes when shutdown is
// complete — main() blocks on it.
func (s *Server) DrainOnSignal(hs *http.Server, drainTimeout time.Duration, sigs ...os.Signal) <-chan struct{} {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ch
		signal.Stop(ch)
		ctx := context.Background()
		if drainTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, drainTimeout)
			defer cancel()
		}
		s.Drain(ctx)
		if hs != nil {
			// Handlers are done; this closes listeners and idle conns.
			_ = hs.Shutdown(context.Background())
		}
	}()
	return done
}

// retryAfterHint derives the 429 Retry-After from current load rather
// than a constant: the base hint scales with how many flights are
// already queued per solve slot — a rough estimate of how many base
// intervals must drain before a retry can even enter the queue. Floor
// 1s (the header is integer seconds, and 0 would invite a tight retry
// loop).
func retryAfterHint(base time.Duration, queued, concurrency int) int {
	if concurrency < 1 {
		concurrency = 1
	}
	scale := 1 + float64(queued)/float64(concurrency)
	secs := int(math.Ceil(base.Seconds() * scale))
	if secs < 1 {
		secs = 1
	}
	return secs
}
