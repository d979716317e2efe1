package augment

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"quepa/internal/cache"
	"quepa/internal/core"
)

var negKey = core.NewGlobalKey("db", "coll", "hot")

// smallNegativeCache is a negativeCache with a test-sized capacity and TTL.
func smallNegativeCache(capacity int, ttl time.Duration) *negativeCache {
	return &negativeCache{ttl: ttl, lru: cache.NewSharded[core.GlobalKey, time.Time](capacity), now: time.Now}
}

// TestNegativeCacheTTL: entries expire after the TTL.
func TestNegativeCacheTTL(t *testing.T) {
	n := newNegativeCache()
	now := time.Unix(1000, 0)
	n.now = func() time.Time { return now }
	n.Put(negKey)
	if !n.Has(negKey) {
		t.Fatal("fresh negative entry not found")
	}
	now = now.Add(negativeTTL + time.Second)
	if n.Has(negKey) {
		t.Fatal("expired negative entry still served")
	}
}

// TestNegativeCacheBounded: the capacity caps the remembered misses.
func TestNegativeCacheBounded(t *testing.T) {
	n := smallNegativeCache(4, time.Hour)
	for i := 0; i < 100; i++ {
		n.Put(core.NewGlobalKey("db", "c", fmt.Sprintf("k%d", i)))
	}
	if n.lru.Len() > 4 {
		t.Errorf("Len = %d exceeds capacity 4", n.lru.Len())
	}
	// The newest entries survived.
	if !n.Has(core.NewGlobalKey("db", "c", "k99")) {
		t.Error("newest negative entry evicted")
	}
	if n.Has(core.NewGlobalKey("db", "c", "k0")) {
		t.Error("oldest negative entry survived a full wrap")
	}
}

// TestNegativeCacheForgetThenPut: a key forgotten and remembered again is one
// of the last capacity misses, so three newer misses must not push it out.
func TestNegativeCacheForgetThenPut(t *testing.T) {
	n := smallNegativeCache(4, time.Hour)
	a := core.NewGlobalKey("db", "c", "a")
	n.Put(a)
	n.Forget(a)
	n.Put(a)
	for _, k := range []string{"b", "c", "d"} {
		n.Put(core.NewGlobalKey("db", "c", k))
	}
	if !n.Has(a) {
		t.Error("a is one of the last 4 misses but was dropped")
	}
	if n.lru.Len() != 4 {
		t.Errorf("Len = %d, want 4", n.lru.Len())
	}
}

// TestNegativeCacheForget: an observed re-insert clears the entry at once.
func TestNegativeCacheForget(t *testing.T) {
	n := newNegativeCache()
	n.Put(negKey)
	n.Forget(negKey)
	if n.Has(negKey) {
		t.Error("forgotten entry still served")
	}
}

// TestNegativeCacheConcurrent exercises the cache under -race.
func TestNegativeCacheConcurrent(t *testing.T) {
	n := smallNegativeCache(64, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := core.NewGlobalKey("db", "c", fmt.Sprintf("g%d-%d", g, i%16))
				n.Put(k)
				n.Has(k)
				if i%32 == 0 {
					n.Forget(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n.lru.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity", n.lru.Len())
	}
}

// TestNegativeCacheFirstPutSeen pins the empty-cache fast path: Has and
// Forget skip the LRU until the first Put, and a Put racing a stream of Has
// calls is seen by the next Has after it returns. Run under -race it also
// checks the flag's publication.
func TestNegativeCacheFirstPutSeen(t *testing.T) {
	for round := 0; round < 50; round++ {
		n := newNegativeCache()
		n.Forget(negKey)
		if n.Has(negKey) || n.lru.Counts().Misses != 0 {
			t.Fatal("an unused negative cache probed its LRU")
		}
		stop := make(chan struct{})
		var probes sync.WaitGroup
		probes.Add(1)
		go func() {
			defer probes.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n.Has(negKey)
				}
			}
		}()
		put := make(chan struct{})
		go func() {
			n.Put(negKey)
			close(put)
		}()
		<-put
		if !n.Has(negKey) {
			t.Fatalf("round %d: the Has after a racing Put missed its entry", round)
		}
		close(stop)
		probes.Wait()
	}
}
