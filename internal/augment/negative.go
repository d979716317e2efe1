package augment

import (
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
type negativeCache struct {
	ttl time.Duration
	lru *cache.Sharded[core.GlobalKey, time.Time]
	now func() time.Time // the clock; tests replace it to drive expiry
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

// Put remembers that gk was just confirmed missing.
func (n *negativeCache) Put(gk core.GlobalKey) {
	n.lru.Put(gk, 0, n.now().Add(n.ttl))
}

// Has reports whether gk is remembered missing and not yet expired.
func (n *negativeCache) Has(gk core.GlobalKey) bool {
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
func (n *negativeCache) Forget(gk core.GlobalKey) { n.lru.Remove(gk) }
