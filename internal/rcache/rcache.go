// Package rcache implements the stamp-validated result cache of the read
// path: whole single-origin augmentation outcomes, keyed by (global key,
// level) and stamped with a number the caller reads before computing them.
// The cache compares stamps and nothing else. It memoizes no reach: a
// reach costs about a microsecond, less than a probe and a store.
//
// An entry is stamped with aindex.Index.Stamp of its origin: the epoch of the
// last mutation that changed an edge of the origin's connected component. If
// that stamp reads the same value twice, no reach from the origin changed in
// between, so an entry stamped S stays exact for as long as the origin's
// component stays at S. A promotion or lazy deletion moves only its own
// island's stamp: the probe compares the stored stamp against the caller's
// current one and treats a mismatch as a miss, evicting the stale entry on
// the spot, while every other island's entries keep serving. No mutator ever
// has to enumerate which cached results a given edge change could affect.
//
// No mutation needs an explicit flush: inserts, promotions, lazy deletions and
// WAL replay all move the stamps they affect, and a restarted process starts
// with an empty cache. Stamp aging is the whole invalidation story.
// Invalidate exists for callers that want to drop everything anyway; the
// serving path never calls it.
//
// The cache is a cache.Sharded — the object cache's 16-way sharded LRU,
// whose entries carry a stamp and whose Get drops an entry stored at another
// one — plus the invalidation counter, nil-receiver safety and the
// quepa_rcache_* series. Storing the stamp in the entry rather than the key
// keeps dead stamps from accumulating (a hot key occupies one slot, not one
// per stamp it was ever cached at) and gives the coherence tests an
// observable mismatch counter.
package rcache

import (
	"sync/atomic"

	"quepa/internal/cache"
	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// Kind discriminates what a cached entry memoizes. There is one kind; the
// type stays because the benchmark harness builds its keys with it.
type Kind uint8

// KindOutcome caches a whole single-origin augmentation outcome (the
// augmented objects after fetch, before the min-probability filter Rank
// applies, so one entry serves every threshold).
const KindOutcome Kind = 1

// Key identifies one memoized result.
type Key struct {
	GK    core.GlobalKey
	Level int
	Kind  Kind
}

// Hash places the key on a shard: the global key's hash, with the kind and
// level folded in FNV-1a style.
func (k Key) Hash() uint32 {
	h := (k.GK.Hash() ^ uint32(k.Kind)) * 16777619
	return (h ^ uint32(k.Level)) * 16777619
}

// Stats is a point-in-time snapshot of the cache counters. Mismatches counts
// probes that found an entry with a stale stamp — the observable trace of
// stamp-based invalidation doing its job (every mismatch is also a miss).
type Stats struct {
	cache.Counts
	Invalidations uint64
	Len           int
}

// Cache is the sharded stamp-validating result cache. Safe for concurrent
// use, and a nil *Cache is a valid, always-missing cache; a capacity of zero
// disables it too (every probe misses, every store is dropped).
//
// Returned values are shared with the cache and MUST be treated as
// immutable by callers. Values are `any` so the cache does not depend on the
// augmenter's outcome type (augment imports rcache, not the reverse).
type Cache struct {
	lru           *cache.Sharded[Key, any]
	invalidations atomic.Uint64
}

// New creates a cache holding at most capacity results.
func New(capacity int) *Cache {
	return &Cache{lru: cache.NewSharded[Key, any](capacity)}
}

// GetOutcome returns a memoized augmentation outcome stored at the stamp.
func (c *Cache) GetOutcome(k Key, stamp uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	return c.lru.Get(k, stamp)
}

// PutOutcome memoizes an augmentation outcome computed at the given stamp.
func (c *Cache) PutOutcome(k Key, stamp uint64, v any) {
	if c != nil {
		c.lru.Put(k, stamp, v)
	}
}

// Invalidate flushes every entry; hit/miss statistics survive, and the flush
// is counted.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.invalidations.Add(1)
	c.lru.Clear()
}

// Resize changes the capacity, evicting LRU entries if the cache shrank.
// The shard count is fixed at construction.
func (c *Cache) Resize(capacity int) {
	if c != nil {
		c.lru.Resize(capacity)
	}
}

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.lru.Capacity()
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// Stats reports the cumulative counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{Counts: c.lru.Counts(), Invalidations: c.invalidations.Load(), Len: c.lru.Len()}
}

// RegisterMetrics exports the cache on a telemetry registry as
// function-backed series read at scrape time, mirroring the object cache's
// export: the hot path pays nothing for it.
func (c *Cache) RegisterMetrics(r *telemetry.Registry) {
	r.CounterFunc("quepa_rcache_hits_total", "single-origin augmentation outcomes served from the result cache",
		func() uint64 { return c.Stats().Hits })
	r.CounterFunc("quepa_rcache_misses_total", "result cache outcome probes that recomputed",
		func() uint64 { return c.Stats().Misses })
	r.CounterFunc("quepa_rcache_epoch_mismatch_total", "result cache probes that found an entry with a stale stamp (an A' mutation reached what it was computed from)",
		func() uint64 { return c.Stats().Mismatches })
	r.CounterFunc("quepa_rcache_evictions_total", "result cache entries evicted by capacity pressure",
		func() uint64 { return c.Stats().Evictions })
	r.CounterFunc("quepa_rcache_invalidations_total", "explicit result cache flushes (Invalidate calls)",
		func() uint64 { return c.Stats().Invalidations })
	r.GaugeFunc("quepa_rcache_results", "results currently cached",
		func() float64 { return float64(c.Len()) })
	r.GaugeFunc("quepa_rcache_capacity", "configured result cache capacity",
		func() float64 { return float64(c.Capacity()) })
}
