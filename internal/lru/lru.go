// Package lru is the one bounded least-recently-used map behind every
// cross-request cache: the engine's sub-schedule, flow-bound and sketch
// caches and the serving layer's schedule store.
package lru

import "container/list"

// Cache is a fixed-capacity LRU map. It is not safe for concurrent use:
// every owner already holds a lock that also guards its own side indexes,
// so the cache takes none of its own.
type Cache[K comparable, V any] struct {
	cap     int
	items   map[K]*list.Element
	order   *list.List // of *entry[K, V]; front = most recently used
	onEvict func(K, V)
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache holding at most capacity entries. onEvict, when
// non-nil, runs for every entry Add pushes out over the capacity, with
// the owner's lock still held.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, items: make(map[K]*list.Element), order: list.New(), onEvict: onEvict}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k unless k is already present: the first write
// wins, so a stored value never changes under its readers. Either way k
// becomes most recently used. Add reports whether v was stored, and
// evicts the least recently used entries while over capacity.
func (c *Cache[K, V]) Add(k K, v V) bool {
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return false
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		victim := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.items, victim.key)
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.val)
		}
	}
	return true
}

// RemoveIf deletes every entry for which pred is true and returns the
// removed values, oldest first. Removal is not eviction: onEvict does
// not run.
func (c *Cache[K, V]) RemoveIf(pred func(K, V) bool) []V {
	var removed []V
	for el := c.order.Back(); el != nil; {
		prev := el.Prev()
		if ent := el.Value.(*entry[K, V]); pred(ent.key, ent.val) {
			c.order.Remove(el)
			delete(c.items, ent.key)
			removed = append(removed, ent.val)
		}
		el = prev
	}
	return removed
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Walk calls fn on every entry from least to most recently used, so
// Adding the entries to an empty cache in that order reproduces the
// recency order. fn must not modify the cache.
func (c *Cache[K, V]) Walk(fn func(K, V)) {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*entry[K, V])
		fn(ent.key, ent.val)
	}
}
