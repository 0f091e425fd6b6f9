package serve

// The state-space cache. This file is part of the detsource-gated core (see
// internal/analysis): cache decisions — who explores, who waits, who gets
// evicted — must be a pure function of the request sequence, never of the
// wall clock or the environment, so that a request trace replays to the
// same cache behaviour. Recency is tracked by access order, not time.

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/dining"
)

// Status classifies how Cache.Get satisfied a request.
type Status string

const (
	// StatusHit: the space was already cached.
	StatusHit Status = "hit"
	// StatusMiss: this request ran the exploration (and cached the result).
	StatusMiss Status = "miss"
	// StatusShared: another request was already exploring the same
	// fingerprint; this one waited for that in-flight exploration.
	StatusShared Status = "shared"
)

// CacheStats is a snapshot of the cache counters (the /v1/stats payload).
type CacheStats struct {
	// Entries and States describe the current contents: number of cached
	// spaces and the sum of their state counts.
	Entries int `json:"entries"`
	States  int `json:"states"`
	// CapStates is the configured bound on States.
	CapStates int `json:"cap_states"`
	// Hits, Misses and Shared count Get outcomes; Explorations counts
	// actual explore invocations (== Misses: the singleflight guarantee in
	// counter form), Evictions counts LRU removals.
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Shared       int64 `json:"shared"`
	Explorations int64 `json:"explorations"`
	Evictions    int64 `json:"evictions"`
}

// entry is one cached space on the recency list.
type entry struct {
	key    string
	space  *dining.StateSpace
	states int
	elem   *list.Element
}

// flight is one in-flight exploration; waiters block on done.
type flight struct {
	done  chan struct{}
	space *dining.StateSpace
	err   error
}

// Cache is a bounded, fingerprint-keyed store of explored state spaces with
// singleflight population: concurrent Gets for one key run the explore
// function exactly once. Entries are immutable once published — a
// dining.StateSpace never changes after exploration and builds its
// predecessor index through a sync.Once — so any number of readers may use
// a returned space concurrently, including while it is being evicted (an
// evicted space stays valid for the requests still holding it; eviction
// only stops future reuse).
//
// The bound is a state budget, not an entry count: the sum of NumStates
// over retained entries stays at or below the cap, least-recently-used
// entries evicting first. The most recent entry is always retained, even
// when it exceeds the cap on its own — the request that paid for the
// exploration gets to keep its result for at least one round.
type Cache struct {
	mu      sync.Mutex
	cap     int
	total   int
	ll      *list.List // of *entry; front = most recently used
	entries map[string]*entry
	flights map[string]*flight
	stats   CacheStats
}

// NewCache builds a cache bounded by capStates total retained states
// (0 = DefaultCacheStates).
func NewCache(capStates int) *Cache {
	if capStates <= 0 {
		capStates = DefaultCacheStates
	}
	return &Cache{
		cap:     capStates,
		ll:      list.New(),
		entries: make(map[string]*entry),
		flights: make(map[string]*flight),
	}
}

// Get returns the state space cached under key, exploring at most once
// across all concurrent callers. onStatus, when non-nil, is invoked exactly
// once, before any blocking work, with the request's disposition — a hit
// returns immediately afterwards, a miss runs explore, a shared request
// waits for the in-flight exploration (or its own ctx). The explore
// function is supplied by the caller so the cache stays agnostic of engine
// assembly; a failed exploration is not cached, and its error propagates to
// every waiter of that flight. A panicking explore is reported the same way,
// as an error naming the fingerprint. A cancelled waiter returns its ctx
// error without disturbing the exploration.
func (c *Cache) Get(ctx context.Context, key string, onStatus func(Status), explore func() (*dining.StateSpace, error)) (*dining.StateSpace, Status, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.ll.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		notify(onStatus, StatusHit)
		return e.space, StatusHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		notify(onStatus, StatusShared)
		select {
		case <-f.done:
			return f.space, StatusShared, f.err
		case <-ctx.Done():
			return nil, StatusShared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	c.stats.Explorations++
	c.mu.Unlock()

	c.fly(key, f, onStatus, explore)
	return f.space, StatusMiss, f.err
}

// fly runs the exploration of flight f and retires the flight. The flight
// is deleted and closed in a defer, so a panic in explore (or in onStatus)
// cannot strand it: the panic becomes the flight's error, naming the
// fingerprint, every waiter receives that error, and the next Get for key
// is a miss that explores again.
func (c *Cache) fly(key string, f *flight, onStatus func(Status), explore func() (*dining.StateSpace, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.space, f.err = nil, fmt.Errorf("serve: exploring fingerprint %s panicked: %v", key, r)
		}
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insert(key, f.space)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	notify(onStatus, StatusMiss)
	f.space, f.err = explore()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.States = c.total
	st.CapStates = c.cap
	return st
}

// insert publishes a freshly explored space and evicts from the LRU tail
// until the state budget holds again (always keeping the newest entry).
// Callers hold c.mu.
func (c *Cache) insert(key string, space *dining.StateSpace) {
	e := &entry{key: key, space: space, states: space.NumStates()}
	e.elem = c.ll.PushFront(e)
	c.entries[key] = e
	c.total += e.states
	for c.total > c.cap && c.ll.Len() > 1 {
		back := c.ll.Back()
		victim := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, victim.key)
		c.total -= victim.states
		c.stats.Evictions++
	}
}

// notify invokes the optional status callback.
func notify(onStatus func(Status), st Status) {
	if onStatus != nil {
		onStatus(st)
	}
}
