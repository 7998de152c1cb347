package serve

import (
	"sync"

	"syccl/internal/lru"
	"syccl/internal/schedule"
)

// storeEntry is one served result retained for GET /v1/schedule/{id}.
type storeEntry struct {
	id    string
	resp  SynthesizeResponse // base response (no per-request flags)
	sched *schedule.Schedule
}

// scheduleStore is the LRU of completed results, keyed by schedule id.
// Partial results are never stored: a warm hit must always be the full
// pipeline's answer, not whatever a tight deadline happened to salvage.
type scheduleStore struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *storeEntry]
}

// newScheduleStore builds a store of at most cap entries; onEvict runs
// once per entry evicted to make room.
func newScheduleStore(cap int, onEvict func()) *scheduleStore {
	return &scheduleStore{lru: lru.New(cap, func(string, *storeEntry) { onEvict() })}
}

func (st *scheduleStore) get(id string) (*storeEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Get(id)
}

// put inserts a result; the first write for an id wins so stored results
// stay stable under concurrent duplicate solves. A duplicate is caught
// before the schedule is cloned.
func (st *scheduleStore) put(id string, resp SynthesizeResponse, sched *schedule.Schedule) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.lru.Get(id); ok {
		return
	}
	st.lru.Add(id, &storeEntry{id: id, resp: resp, sched: sched.Clone()})
}

func (st *scheduleStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// export snapshots the entries oldest-first, so a restore that put()s
// them in order reproduces the LRU recency order. The returned entries
// alias the live schedules; callers only read them.
func (st *scheduleStore) export() []*storeEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*storeEntry, 0, st.lru.Len())
	st.lru.Walk(func(_ string, ent *storeEntry) { out = append(out, ent) })
	return out
}
