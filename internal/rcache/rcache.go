// Package rcache implements the stamp-validated result cache of the read
// path: memoized A' Reach result sets and whole per-level augmentation
// outcomes, keyed by (global key, level, min probability, kind) and stamped
// with a number the caller reads before computing them. The cache compares
// stamps and nothing else; what a stamp means is the caller's business.
//
// The augmenter stamps with aindex.Index.Stamp of the entry's origin: the
// epoch of the last mutation that changed an edge of the origin's connected
// component. If that stamp reads the same value twice, no reach from the
// origin changed in between, so an entry stamped S stays exact for as long
// as the origin's component stays at S. A promotion or lazy deletion moves
// only its own island's stamp: the probe compares the stored stamp against
// the caller's current one and treats a mismatch as a miss, evicting the
// stale entry on the spot, while every other island's entries keep serving.
// No mutator ever has to enumerate which cached results a given edge change
// could affect. (The cluster coordinator stamps its scatter entries with the
// local shard's global epoch instead.)
//
// No mutation needs an explicit flush: inserts, promotions, lazy deletions and
// WAL replay all move the stamps they affect, and a restarted process starts
// with an empty cache. Stamp aging is the whole invalidation story.
// Invalidate exists for callers that want to drop everything anyway; the
// serving path never calls it.
//
// Structurally this is the 16-way sharded LRU of internal/cache with a
// composite key and validate-on-read stamp checking. Storing the stamp in
// the entry rather than the key keeps dead stamps from accumulating (a hot
// key occupies one slot, not one per stamp it was ever cached at) and gives
// the coherence tests an observable mismatch counter.
package rcache

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/telemetry"
)

const (
	shardCount = 16
	// shardThreshold mirrors internal/cache: below it a single shard keeps
	// exact global LRU order, above it the key space spreads over 16 mutexes.
	shardThreshold = 256
)

// Kind discriminates what a cached entry memoizes.
type Kind uint8

const (
	// KindReach caches the hit list of one Index.Reach(gk, level) traversal.
	KindReach Kind = iota + 1
	// KindOutcome caches a whole single-origin augmentation outcome (the
	// augmented objects after fetch and min-probability filtering).
	KindOutcome
	// KindScatter caches a distributed ReachScatter result (the coordinator
	// stamps it with the local shard's index epoch).
	KindScatter
)

// Key identifies one memoized result. MinProb is zero for kinds whose
// computation does not depend on it (Reach filters nothing; the filter is
// applied downstream).
type Key struct {
	GK      core.GlobalKey
	Level   int
	MinProb float64
	Kind    Kind
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits            uint64
	Misses          uint64
	EpochMismatches uint64
	Evictions       uint64
	Invalidations   uint64
	Len             int
}

// Cache is the sharded stamp-validating result cache. Safe for concurrent
// use; a capacity of zero disables it (every probe misses, every store is
// dropped).
//
// Returned hit slices are shared with the cache and MUST be treated as
// immutable by callers — the augmenter and coordinator only ever read them.
type Cache struct {
	shards        []*shard
	capacity      atomic.Int64
	invalidations atomic.Uint64
	resizeMu      sync.Mutex
}

type shard struct {
	mu              sync.Mutex
	capacity        int
	ll              *list.List // front = most recently used
	items           map[Key]*list.Element
	hits            uint64
	misses          uint64
	epochMismatches uint64
	evictions       uint64
}

type entry struct {
	key   Key
	stamp uint64
	hits  []aindex.Hit
	stats aindex.ReachStats
	// outcome carries KindOutcome payloads. It is `any` so the cache does not
	// depend on the augmenter's types (augment imports rcache, not the
	// reverse).
	outcome any
}

// New creates a cache holding at most capacity results.
func New(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	n := 1
	if capacity >= shardThreshold {
		n = shardCount
	}
	c := &Cache{shards: make([]*shard, n)}
	c.capacity.Store(int64(capacity))
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: shardShare(capacity, i, n),
			ll:       list.New(),
			items:    map[Key]*list.Element{},
		}
	}
	return c
}

func shardShare(capacity, i, n int) int {
	share := capacity / n
	if i < capacity%n {
		share++
	}
	return share
}

// shardFor hashes the composite key over the shards (FNV-1a, inlined so the
// hot path does not allocate).
func (c *Cache) shardFor(k Key) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(k.GK.Database); i++ {
		h = (h ^ uint32(k.GK.Database[i])) * 16777619
	}
	h = (h ^ '.') * 16777619
	for i := 0; i < len(k.GK.Collection); i++ {
		h = (h ^ uint32(k.GK.Collection[i])) * 16777619
	}
	h = (h ^ '.') * 16777619
	for i := 0; i < len(k.GK.Key); i++ {
		h = (h ^ uint32(k.GK.Key[i])) * 16777619
	}
	h = (h ^ uint32(k.Kind)) * 16777619
	h = (h ^ uint32(k.Level)) * 16777619
	bits := math.Float64bits(k.MinProb)
	for i := 0; i < 8; i++ {
		h = (h ^ uint32(bits>>(8*i)&0xff)) * 16777619
	}
	return c.shards[h%shardCount]
}

// get probes for k at the given stamp. A present entry stamped with a
// different value counts as a miss AND an epoch mismatch, and is evicted on
// the spot: the index state it described is no longer reachable (stamps are
// monotonic), so keeping it would only displace live entries.
func (c *Cache) get(k Key, stamp uint64) (*entry, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		s.misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if e.stamp != stamp {
		s.epochMismatches++
		s.misses++
		s.ll.Remove(el)
		delete(s.items, k)
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return e, true
}

func (c *Cache) put(e *entry) {
	if c == nil {
		return
	}
	s := c.shardFor(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity == 0 {
		return
	}
	if el, ok := s.items[e.key]; ok {
		el.Value = e
		s.ll.MoveToFront(el)
		return
	}
	s.items[e.key] = s.ll.PushFront(e)
	s.evictLocked()
}

func (s *shard) evictLocked() {
	for s.ll.Len() > s.capacity {
		back := s.ll.Back()
		if back == nil {
			return
		}
		s.ll.Remove(back)
		delete(s.items, back.Value.(*entry).key)
		s.evictions++
	}
}

// GetReach returns the memoized hit list for k if one was stored at exactly
// the given stamp. The returned slice is shared — do not mutate it.
func (c *Cache) GetReach(k Key, stamp uint64) ([]aindex.Hit, aindex.ReachStats, bool) {
	e, ok := c.get(k, stamp)
	if !ok {
		return nil, aindex.ReachStats{}, false
	}
	return e.hits, e.stats, true
}

// PutReach memoizes a reach result computed at the given stamp. The cache
// retains hits without copying; the caller must not mutate it afterwards.
func (c *Cache) PutReach(k Key, stamp uint64, hits []aindex.Hit, stats aindex.ReachStats) {
	c.put(&entry{key: k, stamp: stamp, hits: hits, stats: stats})
}

// GetOutcome returns a memoized augmentation outcome stored at the stamp.
func (c *Cache) GetOutcome(k Key, stamp uint64) (any, bool) {
	e, ok := c.get(k, stamp)
	if !ok {
		return nil, false
	}
	return e.outcome, true
}

// PutOutcome memoizes an augmentation outcome computed at the given stamp.
func (c *Cache) PutOutcome(k Key, stamp uint64, v any) {
	c.put(&entry{key: k, stamp: stamp, outcome: v})
}

// Invalidate flushes every entry; hit/miss statistics survive, and the flush
// is counted.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.invalidations.Add(1)
	for _, s := range c.shards {
		s.mu.Lock()
		s.ll.Init()
		s.items = map[Key]*list.Element{}
		s.mu.Unlock()
	}
}

// Resize changes the capacity, evicting LRU entries if the cache shrank.
// The shard count is fixed at construction.
func (c *Cache) Resize(capacity int) {
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

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return int(c.capacity.Load())
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.ll.Len()
		s.mu.Unlock()
	}
	return total
}

// Stats reports the cumulative counters. EpochMismatches counts probes that
// found an entry with a stale stamp — the observable trace of stamp-based
// invalidation doing its job (every mismatch is also a miss).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Invalidations: c.invalidations.Load()}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.EpochMismatches += s.epochMismatches
		st.Evictions += s.evictions
		st.Len += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}

// HitRatio returns hits/(hits+misses), or 0 before any probe.
func (c *Cache) HitRatio() float64 {
	st := c.Stats()
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// RegisterMetrics exports the cache on a telemetry registry as
// function-backed series read at scrape time, mirroring the object cache's
// export: the hot path pays nothing for it.
func (c *Cache) RegisterMetrics(r *telemetry.Registry) {
	r.CounterFunc("quepa_rcache_hits_total", "result cache probes served from memory",
		func() uint64 { return c.Stats().Hits })
	r.CounterFunc("quepa_rcache_misses_total", "result cache probes that recomputed",
		func() uint64 { return c.Stats().Misses })
	r.CounterFunc("quepa_rcache_epoch_mismatch_total", "result cache probes that found an entry with a stale stamp (an A' mutation reached what it was computed from)",
		func() uint64 { return c.Stats().EpochMismatches })
	r.CounterFunc("quepa_rcache_evictions_total", "result cache entries evicted by capacity pressure",
		func() uint64 { return c.Stats().Evictions })
	r.CounterFunc("quepa_rcache_invalidations_total", "explicit result cache flushes (Invalidate calls)",
		func() uint64 { return c.Stats().Invalidations })
	r.GaugeFunc("quepa_rcache_results", "results currently cached",
		func() float64 { return float64(c.Len()) })
	r.GaugeFunc("quepa_rcache_capacity", "configured result cache capacity",
		func() float64 { return float64(c.Capacity()) })
	r.GaugeFunc("quepa_rcache_hit_ratio", "result cache hits / (hits + misses) since process start",
		func() float64 { return c.HitRatio() })
}
