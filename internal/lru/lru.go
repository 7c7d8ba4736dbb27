// Package lru is a byte-budget LRU cache with load coalescing. It is the one
// cache mechanism of the store and serving plane: the store keeps decoded
// segment blocks in one, the serving plane keeps serialized aggregate
// responses in another.
//
// Loads are single-flight: when several callers miss the same key at once,
// one runs the load while the rest wait for its result, so a thundering herd
// of identical requests costs one load, not one per caller. Failed loads are
// never cached; every waiter of a failed load observes the same error.
package lru

import (
	"container/list"
	"sync"
)

// Outcome says how GetOrLoad served its caller.
type Outcome uint8

const (
	// Loaded means the caller ran the load itself.
	Loaded Outcome = iota
	// Hit means a resident entry served the caller.
	Hit
	// Coalesced means the caller waited on another caller's load.
	Coalesced
)

// Stats is a snapshot of a cache's counters. Each user decides how to fold
// them into its own hit/miss accounting (the store counts a coalesced wait
// as a hit, the serving plane as a miss).
type Stats struct {
	Hits      uint64 // lookups served by a resident entry
	Coalesced uint64 // lookups served by waiting on an in-flight load
	Loads     uint64 // lookups that ran the load
	Evictions uint64 // entries evicted by budget pressure
	Dropped   uint64 // entries removed by DropIf
	Bytes     int64  // cost of the resident entries
	Entries   int    // resident entries
}

// Cache is a byte-budget LRU from K to V. Every entry is charged the cost its
// load reported; an entry costing more than the whole budget is served but
// never cached, so a zero budget coalesces loads and caches nothing. All
// methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	budget int64
	// onChange is called with the lock held after every change to the
	// resident set: the entries budget pressure just evicted, then the new
	// byte and entry totals. Users mirror the cache into process metrics
	// through it.
	onChange func(evicted int, bytes int64, entries int)

	mu      sync.Mutex
	ll      list.List // front = most recently used; values are *entry[K, V]
	entries map[K]*list.Element
	flights map[K]*flight[V]
	st      Stats
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one in-progress load; waiters block on done. dropped is set
// (under the cache mutex) when DropIf matches the flight's key mid-load: the
// result is still served to every waiter but is not inserted, since the
// caller has declared the key unreachable and the entry would squat on
// budget until LRU pressure happened to evict it.
type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	dropped bool
}

// New returns an empty cache with the given byte budget. onChange may be
// nil; when set it must not call back into the cache.
func New[K comparable, V any](budget int64, onChange func(evicted int, bytes int64, entries int)) *Cache[K, V] {
	return &Cache[K, V]{
		budget:   budget,
		onChange: onChange,
		entries:  make(map[K]*list.Element),
		flights:  make(map[K]*flight[V]),
	}
}

// GetOrLoad returns the value cached under key, or runs load exactly once
// across all concurrent callers to produce it. load returns the value and the
// cost to charge against the budget.
func (c *Cache[K, V]) GetOrLoad(key K, load func() (V, int64, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.st.Hits++
		val := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return val, Hit, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.st.Coalesced++
		c.mu.Unlock()
		<-fl.done
		return fl.val, Coalesced, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.flights[key] = fl
	c.st.Loads++
	c.mu.Unlock()

	val, cost, err := load()
	fl.val, fl.err = val, err

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil && !fl.dropped {
		c.insertLocked(key, val, cost)
	}
	c.mu.Unlock()
	close(fl.done)
	return val, Loaded, err
}

// insertLocked adds one entry and evicts from the LRU tail until the budget
// holds again. An entry bigger than the whole budget is not inserted: it
// would only evict everything else on its way to being evicted itself.
func (c *Cache[K, V]) insertLocked(key K, val V, cost int64) {
	if cost > c.budget {
		return
	}
	if _, ok := c.entries[key]; ok {
		return // lost a race with an identical load; keep the resident entry
	}
	c.entries[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	c.st.Bytes += cost
	evicted := 0
	for c.st.Bytes > c.budget {
		c.removeLocked(c.ll.Back())
		evicted++
	}
	c.st.Evictions += uint64(evicted)
	c.changedLocked(evicted)
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	ent := el.Value.(*entry[K, V])
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.st.Bytes -= ent.cost
}

// DropIf removes every resident entry whose key matches pred and marks every
// matching in-flight load as do-not-insert: its waiters are still served,
// but the result never enters the cache. Returns the number of resident
// entries removed.
func (c *Cache[K, V]) DropIf(pred func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if pred(el.Value.(*entry[K, V]).key) {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	for key, fl := range c.flights {
		if pred(key) {
			fl.dropped = true
		}
	}
	c.st.Dropped += uint64(n)
	c.changedLocked(0)
	return n
}

// Purge empties the cache. Counters other than the resident totals are kept.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
	c.st.Bytes = 0
	c.changedLocked(0)
}

func (c *Cache[K, V]) changedLocked(evicted int) {
	if c.onChange != nil {
		c.onChange(evicted, c.st.Bytes, len(c.entries))
	}
}

// Stats snapshots the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries = len(c.entries)
	return st
}

// Range calls f with the key and cost of every resident entry, most recently
// used first. f must not call back into the cache.
func (c *Cache[K, V]) Range(f func(key K, cost int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*entry[K, V])
		f(ent.key, ent.cost)
	}
}
