// Package cache implements the memory-efficient strategy of Section IV-C:
// an LRU cache of data objects keyed by global key, standing in for the
// Ehcache instance QUEPA uses. An augmenter with a nonzero CACHE_SIZE
// consults it before asking the polystore for an object; it pays off in
// augmented exploration (users revisit objects) and in level > 0 searches
// (augmented results overlap), when the stores are a round trip away.
//
// The LRU itself is Sharded, the one bounded map of the read path: the
// object cache here and the result cache (internal/rcache) are both built
// on it. At production capacities
// (>= shardThreshold) the key space is hashed over 16 independent LRU shards
// so that the worker pools of the concurrent strategies stop convoying on a
// single mutex. Small caches keep a single shard, which preserves exact
// global LRU ordering — the semantics every eviction property below the
// threshold is specified (and tested) against. Sharded caches are LRU per
// shard; the capacity bound and the counters are global either way.
package cache

import "quepa/internal/core"

// LRU is the object cache: a Sharded of objects by global key, all stored
// and probed at stamp 0 (an object is valid until removed or evicted). A
// capacity of zero disables caching (every Get misses, every Put is
// dropped): the cold-cache experiments rely on this.
type LRU struct {
	*Sharded[core.GlobalKey, core.Object]
}

// NewLRU creates a cache holding at most capacity objects. Negative
// capacities are treated as zero.
func NewLRU(capacity int) *LRU {
	return &LRU{NewSharded[core.GlobalKey, core.Object](capacity)}
}

// Get returns the cached object for gk, marking it most recently used.
func (c *LRU) Get(gk core.GlobalKey) (core.Object, bool) { return c.Sharded.Get(gk, 0) }

// Put inserts or refreshes an object, evicting the least recently used entry
// of its shard when the shard is full.
func (c *LRU) Put(obj core.Object) { c.Sharded.Put(obj.GK, 0, obj) }
