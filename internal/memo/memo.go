// Package memo is the keyed cache behind every memoized structure of
// the analysis and serving layers: a value is built at most once per
// key while concurrent callers of that key wait for the one build
// (singleflight), and a cache may be bounded as a least-recently-used
// set. A build that fails — returns an error or panics — is not kept,
// so the next Get of its key builds again.
package memo

import (
	"container/list"
	"errors"
	"sync"

	"cloudwatch/internal/obs"
)

// Outcome reports how Get produced its value.
type Outcome uint8

const (
	// Built means this call ran the build.
	Built Outcome = iota
	// Hit means the value was already settled in the cache.
	Hit
	// Joined means another call was building the value and this one
	// waited for that build instead of running its own.
	Joined
)

// ErrBuildPanicked is what callers that joined a panicking build get;
// the panic itself propagates out of the building call.
var ErrBuildPanicked = errors.New("memo: build panicked")

// entry is one key's slot. It stays small because a study holds
// thousands of them: the gate is a mutex the builder holds until val
// and err settle, so waiters block on it instead of on a channel.
type entry[V any] struct {
	gate sync.Mutex
	done bool // settled; guarded by Cache.mu
	val  V
	err  error
	elem *list.Element // LRU position holding the key; nil when unbounded
}

// Cache memoizes values of type V by key. The zero value is an
// unbounded cache ready to use; NewLRU returns a bounded one. Values
// are shared between callers, who must treat them as read-only. Safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*entry[V]
	lru *list.List // keys, most recently used at the front; nil when unbounded
	cap int

	evictions *obs.Counter // nil when unbounded
	entries   *obs.Gauge   // nil when unbounded
}

// NewLRU returns a cache holding at most capacity entries (at least
// one), settled or in flight: inserting beyond it evicts the least
// recently used entry and counts it on evictions, and entries tracks
// the occupancy. An evicted in-flight build still answers the callers
// already waiting on it.
func NewLRU[K comparable, V any](capacity int, evictions *obs.Counter, entries *obs.Gauge) *Cache[K, V] {
	return &Cache[K, V]{lru: list.New(), cap: max(capacity, 1), evictions: evictions, entries: entries}
}

// Get returns key's value, calling build to produce it when the key
// holds none. Concurrent Gets of one key share one build: the others
// wait and report Joined, with the build's error if it failed. A
// failed build leaves the key empty; a panicking one re-panics in the
// building call and hands joined callers ErrBuildPanicked.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if c.lru != nil {
			c.lru.MoveToFront(e.elem)
		}
		if e.done { // a settled entry in the map never holds an error
			v := e.val
			c.mu.Unlock()
			return v, Hit, nil
		}
		c.mu.Unlock()
		e.gate.Lock() // held by the builder until the value settles
		e.gate.Unlock()
		return e.val, Joined, e.err
	}
	e := &entry[V]{err: ErrBuildPanicked} // until build returns
	e.gate.Lock()
	c.insert(key, e)
	c.mu.Unlock()
	defer c.settle(key, e)
	e.val, e.err = build()
	return e.val, Built, e.err
}

// Put stores v under key as a settled value, replacing whatever the
// key held (an in-flight build still answers its own callers) and
// marking it most recently used.
func (c *Cache[K, V]) Put(key K, v V) {
	e := &entry[V]{done: true, val: v}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[key]; ok {
		c.m[key] = e
		if c.lru != nil {
			e.elem = old.elem
			c.lru.MoveToFront(e.elem)
		}
		return
	}
	c.insert(key, e)
}

// Len returns the number of entries, settled or in flight.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap returns the capacity of a bounded cache, 0 for an unbounded one.
func (c *Cache[K, V]) Cap() int { return c.cap }

// insert adds e under key, evicting the least recently used entry of a
// full bounded cache. The caller holds c.mu and has checked that key
// is absent.
func (c *Cache[K, V]) insert(key K, e *entry[V]) {
	if c.m == nil {
		c.m = map[K]*entry[V]{}
	}
	c.m[key] = e
	if c.lru == nil {
		return
	}
	e.elem = c.lru.PushFront(key)
	if c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(K))
		c.evictions.Inc()
	}
	c.entries.Set(int64(len(c.m)))
}

// settle publishes a finished build: it marks e done, drops it from
// the map if the build failed (unless a Put or a later build already
// replaced it), and releases the callers waiting on the gate.
func (c *Cache[K, V]) settle(key K, e *entry[V]) {
	c.mu.Lock()
	e.done = true
	if e.err != nil && c.m[key] == e {
		delete(c.m, key)
		if c.lru != nil {
			c.lru.Remove(e.elem)
			c.entries.Set(int64(len(c.m)))
		}
	}
	c.mu.Unlock()
	e.gate.Unlock()
}
