package augment

import (
	"sync/atomic"
	"time"

	"quepa/internal/cache"
	"quepa/internal/core"
)

// negativeCache remembers keys the polystore recently confirmed missing, so
// that lazy-deletion misses do not stampede: without it, a key that is still
// in the A' index but gone from its store costs one round trip per query
// until the index catches up. Entries expire after negativeTTL — an object
// re-created under the same key becomes visible again within one TTL, which
// bounds the staleness this cache can introduce.
//
// The cache is a cache.Sharded of expiry times, so at most negativeCapacity
// misses are remembered and the least recently used goes first; the TTL check
// is this wrapper's. It is safe for concurrent use.
//
// Until the first Put the cache is empty, and Has and Forget return without
// touching the LRU: the fetch path calls them for every missed and every
// fetched key, and on a polystore whose A' index never points at a deleted
// object each call would take a shard lock and hash a key for nothing.
type negativeCache struct {
	ttl  time.Duration
	lru  *cache.Sharded[core.GlobalKey, time.Time]
	now  func() time.Time // the clock; tests replace it to drive expiry
	used atomic.Bool      // set by the first Put, never cleared
}

const (
	negativeTTL      = time.Second
	negativeCapacity = 1024
)

func newNegativeCache() *negativeCache {
	return &negativeCache{
		ttl: negativeTTL,
		lru: cache.NewSharded[core.GlobalKey, time.Time](negativeCapacity),
		now: time.Now,
	}
}

// Put remembers that gk was just confirmed missing. The flag is set before
// the entry goes in, so a Has that starts after Put returns sees both.
func (n *negativeCache) Put(gk core.GlobalKey) {
	if !n.used.Load() {
		n.used.Store(true)
	}
	n.lru.Put(gk, 0, n.now().Add(n.ttl))
}

// Has reports whether gk is remembered missing and not yet expired.
func (n *negativeCache) Has(gk core.GlobalKey) bool {
	if !n.used.Load() {
		return false
	}
	exp, ok := n.lru.Get(gk, 0)
	if !ok {
		return false
	}
	if n.now().After(exp) {
		// A Put racing this drop loses its entry, which costs one store
		// round trip, never a wrong answer.
		n.lru.Remove(gk)
		return false
	}
	return true
}

// Forget drops gk immediately (an explicit re-insert observed by the caller).
func (n *negativeCache) Forget(gk core.GlobalKey) {
	if n.used.Load() {
		n.lru.Remove(gk)
	}
}
