package cache

import (
	"sync"
	"sync/atomic"
)

const (
	// shardCount is the number of independent LRU shards of a large cache.
	shardCount = 16
	// shardThreshold is the construction-time capacity at which a cache
	// becomes sharded. Below it a single shard keeps exact LRU order; tiny
	// per-shard capacities would make eviction near-random anyway.
	shardThreshold = 256
)

// Hashable is a cache key: comparable, with a hash that places it on a shard.
type Hashable interface {
	comparable
	Hash() uint32
}

// Counts are a cache's cumulative counters. Every mismatch is also a miss.
type Counts struct {
	Hits       uint64
	Misses     uint64
	Mismatches uint64 // probes that found the key stored at another stamp
	Evictions  uint64 // entries pushed out by capacity pressure
}

// Sharded is a fixed-capacity, stamp-validated LRU map, safe for concurrent
// use. Every entry carries the stamp it was stored at; Get at any other stamp
// is a miss and a mismatch, and drops the entry on the spot. A cache that
// needs no validation stores and probes at one constant stamp.
//
// A capacity of zero disables the cache: every Get misses and every Put is
// dropped. The shard count (1 below shardThreshold, 16 from it) is fixed at
// construction; Resize redistributes capacity over the existing shards, and
// the capacity bound and the counters are global either way.
type Sharded[K Hashable, V any] struct {
	shards   []*shard[K, V]
	capacity atomic.Int64 // configured total capacity
	resizeMu sync.Mutex   // serializes Resize redistributions
}

// entry is a node of a shard's intrusive recency list.
type entry[K Hashable, V any] struct {
	prev, next *entry[K, V]
	key        K
	stamp      uint64
	val        V
}

type shard[K Hashable, V any] struct {
	mu       sync.Mutex
	capacity int
	head     entry[K, V] // sentinel: head.next is the most recently used entry, head.prev the least
	items    map[K]*entry[K, V]
	counts   Counts
}

// NewSharded creates a cache holding at most capacity entries. Negative
// capacities are treated as zero.
func NewSharded[K Hashable, V any](capacity int) *Sharded[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	n := 1
	if capacity >= shardThreshold {
		n = shardCount
	}
	c := &Sharded[K, V]{shards: make([]*shard[K, V], n)}
	c.capacity.Store(int64(capacity))
	for i := range c.shards {
		s := &shard[K, V]{capacity: shardShare(capacity, i, n)}
		s.reset()
		c.shards[i] = s
	}
	return c
}

// shardShare splits a total capacity over n shards, spreading the remainder
// over the first shards so the shares sum exactly to the total.
func shardShare(capacity, i, n int) int {
	share := capacity / n
	if i < capacity%n {
		share++
	}
	return share
}

func (c *Sharded[K, V]) shardFor(k K) *shard[K, V] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[k.Hash()%shardCount]
}

// Shards returns the number of independent LRU shards (1 or 16).
func (c *Sharded[K, V]) Shards() int { return len(c.shards) }

// Get returns the value stored for k at exactly stamp, marking it most
// recently used. An entry stored at another stamp counts as a miss and a
// mismatch and is dropped: stamps only move forward, so it can never be
// served again and would only displace live entries.
func (c *Sharded[K, V]) Get(k K, stamp uint64) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok || e.stamp != stamp {
		s.counts.Misses++
		if ok {
			s.counts.Mismatches++
			s.unlink(e)
			delete(s.items, k)
		}
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.counts.Hits++
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	return v, true
}

// Put stores v for k at stamp, replacing any entry for k and evicting the
// least recently used entry of k's shard when the shard is full. A full
// shard reuses the evicted entry's node for k, so a cache under churn
// allocates no nodes.
func (c *Sharded[K, V]) Put(k K, stamp uint64, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 {
		return
	}
	if e, ok := s.items[k]; ok {
		e.stamp, e.val = stamp, v
		s.moveToFront(e)
		return
	}
	var e *entry[K, V]
	if len(s.items) >= s.capacity {
		e = s.head.prev
		s.unlink(e)
		delete(s.items, e.key)
		s.counts.Evictions++
		*e = entry[K, V]{key: k, stamp: stamp, val: v}
	} else {
		e = &entry[K, V]{key: k, stamp: stamp, val: v}
	}
	s.items[k] = e
	s.pushFront(e)
}

// Remove drops k from the cache, reporting whether it was present.
func (c *Sharded[K, V]) Remove(k K) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[k]
	if ok {
		s.unlink(e)
		delete(s.items, k)
	}
	return ok
}

// Resize changes the capacity, evicting LRU entries if the cache shrank.
func (c *Sharded[K, V]) Resize(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	c.capacity.Store(int64(capacity))
	n := len(c.shards)
	for i, s := range c.shards {
		s.mu.Lock()
		s.capacity = shardShare(capacity, i, n)
		s.evictLocked()
		s.mu.Unlock()
	}
}

// Clear empties the cache without touching the counters.
func (c *Sharded[K, V]) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.reset()
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *Sharded[K, V]) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.items)
		s.mu.Unlock()
	}
	return total
}

// Capacity returns the configured capacity.
func (c *Sharded[K, V]) Capacity() int { return int(c.capacity.Load()) }

// Counts sums the counters over the shards.
func (c *Sharded[K, V]) Counts() Counts {
	var t Counts
	for _, s := range c.shards {
		s.mu.Lock()
		t.Hits += s.counts.Hits
		t.Misses += s.counts.Misses
		t.Mismatches += s.counts.Mismatches
		t.Evictions += s.counts.Evictions
		s.mu.Unlock()
	}
	return t
}

func (s *shard[K, V]) reset() {
	s.head.prev, s.head.next = &s.head, &s.head
	s.items = map[K]*entry[K, V]{}
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &s.head, s.head.next
	s.head.next.prev = e
	s.head.next = e
}

func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head.next != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

func (s *shard[K, V]) evictLocked() {
	for len(s.items) > s.capacity {
		e := s.head.prev
		s.unlink(e)
		delete(s.items, e.key)
		s.counts.Evictions++
	}
}
