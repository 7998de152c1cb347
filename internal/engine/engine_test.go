package engine

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/topology"
	"syccl/internal/verify"
)

// quickOpts keeps the pipeline deterministic and fast for tests.
func quickOpts() core.Options {
	return core.Options{Workers: 1}
}

// TestWarmPlanBitIdentical is the cache-correctness contract: a second,
// identical Plan on the same engine must be served from the caches
// (hits > 0, zero solver calls) and return a bit-identical schedule.
func TestWarmPlanBitIdentical(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	eng := New(Options{})

	cold, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	coldStats := eng.Stats()
	if coldStats.SolveHits != 0 {
		t.Fatalf("cold plan reported %d cache hits", coldStats.SolveHits)
	}

	warm, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Plans != 2 {
		t.Fatalf("Plans = %d, want 2", st.Plans)
	}
	if st.SolveHits == 0 || st.ExactHits == 0 {
		t.Fatalf("warm plan hit nothing: %+v", st)
	}
	if st.SketchHits == 0 {
		t.Fatalf("warm plan re-ran the sketch search: %+v", st)
	}
	if warm.Stats.SolverCalls != 0 {
		t.Fatalf("warm plan executed %d solver calls", warm.Stats.SolverCalls)
	}
	if warm.Time != cold.Time {
		t.Fatalf("warm time %v != cold time %v", warm.Time, cold.Time)
	}
	if !reflect.DeepEqual(warm.Schedule, cold.Schedule) {
		t.Fatal("warm schedule differs from cold schedule")
	}
	if err := verify.CheckSchedule(col, warm.Schedule); err != nil {
		t.Fatalf("warm schedule invalid: %v", err)
	}
}

// TestIsomorphicRequestServedFromCache plans Broadcast from root 0, then
// from root 1 on a GPU-transitive topology: the second request's
// sub-demands are isomorphic (but relabeled), so they must be served
// through the iso-fallback path and still yield a valid schedule.
func TestIsomorphicRequestServedFromCache(t *testing.T) {
	top := topology.SingleServer(8)
	eng := New(Options{})

	col0 := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	if _, err := eng.Plan(context.Background(), top, col0, quickOpts()); err != nil {
		t.Fatal(err)
	}

	col1 := collective.Broadcast(top.NumGPUs(), 1, 1<<20)
	res, err := eng.Plan(context.Background(), top, col1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SolveHits == 0 {
		t.Fatalf("isomorphic request missed the cache entirely: %+v", st)
	}
	if err := verify.CheckSchedule(col1, res.Schedule); err != nil {
		t.Fatalf("iso-served schedule invalid: %v", err)
	}
}

// TestPlanCancelledBeforeStart: a context cancelled before Plan begins
// must fail fast with ctx.Err and count as cancelled.
func TestPlanCancelledBeforeStart(t *testing.T) {
	top := topology.SingleServer(4)
	col := collective.AllGather(top.NumGPUs(), 1<<16)
	eng := New(Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := eng.Plan(ctx, top, col, quickOpts())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled plan returned a result: %+v", res)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled plan took %v", d)
	}
	if st := eng.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
}

// countdownCtx reports Canceled after its Err budget is spent. It makes
// mid-pipeline cancellation deterministic: with Workers=1 the pipeline
// polls Err in a fixed order, so each budget lands the cancellation at a
// reproducible point (mid-search, mid-coarse, or mid-fine depending on
// the budget).
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
	done      chan struct{}
}

func newCountdownCtx(budget int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: budget, done: make(chan struct{})}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

// TestPlanAnytimeInvariant sweeps the cancellation point across the
// pipeline (budget 0 cancels at entry; large budgets cancel mid-search,
// mid-coarse, mid-fine, or never) and checks the anytime contract at
// every point: either ctx.Err with no result, or a complete schedule that
// passes the oracle — flagged Partial whenever the run was cut short.
func TestPlanAnytimeInvariant(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)

	full, err := New(Options{}).Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("uncancelled plan flagged Partial")
	}

	sawPartial := false
	for _, budget := range []int{0, 1, 5, 20, 100, 500, 2000, 10000, 1 << 30} {
		eng := New(Options{})
		ctx := newCountdownCtx(budget)
		res, err := eng.Plan(ctx, top, col, quickOpts())
		switch {
		case err != nil:
			if err != context.Canceled {
				t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
			}
			if res != nil {
				t.Fatalf("budget %d: error with non-nil result", budget)
			}
		case res.Partial:
			sawPartial = true
			if err := verify.CheckSchedule(col, res.Schedule); err != nil {
				t.Fatalf("budget %d: partial schedule invalid: %v", budget, err)
			}
			if res.Time <= 0 {
				t.Fatalf("budget %d: partial result missing a simulated time", budget)
			}
		default:
			if err := verify.CheckSchedule(col, res.Schedule); err != nil {
				t.Fatalf("budget %d: schedule invalid: %v", budget, err)
			}
			if res.Time != full.Time {
				t.Fatalf("budget %d: complete run diverged: time %v != %v", budget, res.Time, full.Time)
			}
		}
	}
	if !sawPartial {
		t.Log("no budget produced a Partial result (pipeline may have shifted); anytime path untested by this sweep")
	}
}

// TestCancelledPlanDoesNotPoisonCache: after a cancelled plan, a fresh
// full plan on the same engine must match an engine that never saw the
// cancellation — truncated solves must not have been stored.
func TestCancelledPlanDoesNotPoisonCache(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)

	clean, err := New(Options{}).Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Options{})
	for _, budget := range []int{3, 30, 300} {
		eng.Plan(newCountdownCtx(budget), top, col, quickOpts()) //nolint:errcheck — any outcome is fine
	}
	res, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("uncancelled plan flagged Partial")
	}
	if res.Time != clean.Time || !reflect.DeepEqual(res.Schedule, clean.Schedule) {
		t.Fatal("plan after cancelled plans diverged from a clean engine: cache was poisoned")
	}
}

// TestPlanCancellationGoroutineGrace: cancelled plans must not leak
// worker goroutines past a bounded grace period.
func TestPlanCancellationGoroutineGrace(t *testing.T) {
	top := topology.H800Small(2)
	col := collective.AllGather(top.NumGPUs(), 1<<20)
	eng := New(Options{})

	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		eng.Plan(ctx, top, col, core.Options{Workers: 4}) //nolint:errcheck — outcome irrelevant
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after grace period", before, runtime.NumGoroutine())
}

// TestSolveCacheEviction: a tiny cache must evict (and count it) without
// corrupting results.
func TestSolveCacheEviction(t *testing.T) {
	top := topology.SingleServer(8)
	eng := New(Options{SolveCacheEntries: 2, Shards: 1, SketchCacheEntries: 1})

	for _, size := range []float64{1 << 10, 1 << 14, 1 << 18, 1 << 20} {
		col := collective.AllGather(top.NumGPUs(), size)
		res, err := eng.Plan(context.Background(), top, col, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckSchedule(col, res.Schedule); err != nil {
			t.Fatalf("size %g: %v", size, err)
		}
	}
	if st := eng.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions with a 2-entry cache across 4 distinct plans: %+v", st)
	}
}

// TestConcurrentPlans hammers one engine from many goroutines over a mix
// of repeated and distinct requests. Run under -race in CI.
func TestConcurrentPlans(t *testing.T) {
	top := topology.SingleServer(8)
	eng := New(Options{SolveCacheEntries: 8, Shards: 2})
	cols := []*collective.Collective{
		collective.AllGather(top.NumGPUs(), 1<<16),
		collective.Broadcast(top.NumGPUs(), 0, 1<<16),
		collective.Broadcast(top.NumGPUs(), 3, 1<<16),
		collective.AllGather(top.NumGPUs(), 1<<18),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		col := cols[i%len(cols)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Plan(context.Background(), top, col, core.Options{Workers: 2})
			if err != nil {
				errs <- err
				return
			}
			if err := verify.CheckSchedule(col, res.Schedule); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Plans != 16 {
		t.Fatalf("Plans = %d, want 16", st.Plans)
	}
}

// TestBoundCacheWarmHits: a broadcast plan computes candidate flow bounds
// cold; an identical re-plan must serve every bound from the engine's
// bound cache, and an isomorphic request (different root on a transitive
// topology) must hit through the iso key.
func TestBoundCacheWarmHits(t *testing.T) {
	top := topology.A100Clos(2)
	col := collective.Broadcast(top.NumGPUs(), 0, 1<<20)
	eng := New(Options{})

	cold, err := eng.Plan(context.Background(), top, col, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.BoundsComputed == 0 {
		t.Skipf("no candidate bounds on this shape: %+v", cold.Stats)
	}
	st := eng.Stats()
	if st.BoundMisses == 0 {
		t.Fatalf("cold plan recorded no bound misses: %+v", st)
	}
	coldMisses := st.BoundMisses

	if _, err := eng.Plan(context.Background(), top, col, quickOpts()); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.BoundHits == 0 {
		t.Fatalf("warm plan hit no cached bounds: %+v", st)
	}
	if st.BoundMisses != coldMisses {
		t.Fatalf("warm plan missed bounds: %d -> %d", coldMisses, st.BoundMisses)
	}

	// Different root, same structure: bounds are isomorphism-invariant.
	col1 := collective.Broadcast(top.NumGPUs(), 1, 1<<20)
	if _, err := eng.Plan(context.Background(), top, col1, quickOpts()); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.BoundHits <= coldMisses {
		t.Logf("iso request served %d bound hits (cold misses %d)", st.BoundHits, coldMisses)
	}
}

// TestBoundCacheEviction: the bound LRU respects its entry cap.
func TestBoundCacheEviction(t *testing.T) {
	eng := New(Options{BoundCacheEntries: 2})
	top := topology.A100Clos(2)
	for _, size := range []float64{1 << 18, 1 << 19, 1 << 20, 1 << 21} {
		col := collective.Broadcast(top.NumGPUs(), 0, size)
		if _, err := eng.Plan(context.Background(), top, col, quickOpts()); err != nil {
			t.Fatal(err)
		}
	}
	eng.boundMu.Lock()
	n := eng.bounds.Len()
	eng.boundMu.Unlock()
	if n > 2 {
		t.Fatalf("bound cache holds %d entries, cap 2", n)
	}
}
