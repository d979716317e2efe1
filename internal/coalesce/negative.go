package coalesce

import (
	"sync/atomic"
	"time"

	"quepa/internal/cache"
	"quepa/internal/core"
)

// NegativeCache remembers keys the polystore recently confirmed missing, so
// that lazy-deletion misses do not stampede: without it, a key that is still
// in the A' index but gone from its store costs one (coalesced) round trip
// per query until the index catches up. Entries expire after a TTL — an
// object re-created under the same key becomes visible again within one TTL,
// which bounds the staleness this cache can introduce.
//
// The cache is a cache.Sharded of expiry times, so at most capacity misses
// are remembered and the least recently used goes first; the TTL check is
// this wrapper's. It is safe for concurrent use.
type NegativeCache struct {
	ttl  time.Duration
	lru  *cache.Sharded[core.GlobalKey, time.Time]
	hits atomic.Uint64
	now  func() time.Time // the clock; tests replace it to drive expiry
}

// Defaults used by NewNegativeCache when given zero values.
const (
	DefaultNegativeTTL      = time.Second
	DefaultNegativeCapacity = 1024
)

// NewNegativeCache builds a negative-result cache holding at most capacity
// missing keys for ttl each. Zero or negative arguments select the defaults;
// to disable negative caching entirely, don't consult one.
func NewNegativeCache(capacity int, ttl time.Duration) *NegativeCache {
	if capacity <= 0 {
		capacity = DefaultNegativeCapacity
	}
	if ttl <= 0 {
		ttl = DefaultNegativeTTL
	}
	return &NegativeCache{
		ttl: ttl,
		lru: cache.NewSharded[core.GlobalKey, time.Time](capacity),
		now: time.Now,
	}
}

// Put remembers that gk was just confirmed missing.
func (n *NegativeCache) Put(gk core.GlobalKey) {
	n.lru.Put(gk, 0, n.now().Add(n.ttl))
}

// Has reports whether gk is remembered missing and not yet expired.
func (n *NegativeCache) Has(gk core.GlobalKey) bool {
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
	n.hits.Add(1)
	return true
}

// Forget drops gk immediately (an explicit re-insert observed by the caller).
func (n *NegativeCache) Forget(gk core.GlobalKey) { n.lru.Remove(gk) }

// Hits reports how many store round trips the cache has absorbed.
func (n *NegativeCache) Hits() uint64 { return n.hits.Load() }

// Len reports the number of remembered (possibly expired) keys.
func (n *NegativeCache) Len() int { return n.lru.Len() }
