package cache

import (
	"fmt"
	"testing"

	"quepa/internal/core"
)

// TestShardCountByCapacity: small caches stay single-shard (exact LRU order),
// production-sized caches fan out over 16 shards.
func TestShardCountByCapacity(t *testing.T) {
	if got := NewLRU(16).Shards(); got != 1 {
		t.Errorf("small cache shards = %d, want 1", got)
	}
	if got := NewLRU(shardThreshold).Shards(); got != shardCount {
		t.Errorf("large cache shards = %d, want %d", got, shardCount)
	}
	if got := NewLRU(100000).Shards(); got != shardCount {
		t.Errorf("bench-sized cache shards = %d, want %d", got, shardCount)
	}
}

// TestShardedCapacitySumsExact: the per-shard capacities sum to the
// configured total, including totals that do not divide evenly.
func TestShardedCapacitySumsExact(t *testing.T) {
	for _, capacity := range []int{shardThreshold, 1000, 4096, 100003} {
		c := NewLRU(capacity)
		sum := 0
		for i := range c.shards {
			sum += c.shards[i].capacity
		}
		if sum != capacity {
			t.Errorf("capacity %d: shard shares sum to %d", capacity, sum)
		}
		if c.Capacity() != capacity {
			t.Errorf("Capacity() = %d, want %d", c.Capacity(), capacity)
		}
	}
}

// TestShardedBasicOps: hit/miss/remove/clear semantics are unchanged when the
// cache is sharded.
func TestShardedBasicOps(t *testing.T) {
	c := NewLRU(1024)
	const n = 500
	for i := 0; i < n; i++ {
		c.Put(obj(fmt.Sprintf("k%d", i)))
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(obj(fmt.Sprintf("k%d", i)).GK); !ok {
			t.Fatalf("k%d missing", i)
		}
	}
	if cnt := c.Counts(); cnt.Hits != n || cnt.Misses != 0 {
		t.Errorf("Counts = %+v, want %d hits, 0 misses", cnt, n)
	}
	if !c.Remove(obj("k0").GK) || c.Remove(obj("k0").GK) {
		t.Error("Remove semantics broken under sharding")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Errorf("Len after Clear = %d", c.Len())
	}
}

// TestShardedKeysSpread: GlobalKey.Hash actually distributes keys
// instead of piling them on one shard.
func TestShardedKeysSpread(t *testing.T) {
	c := NewLRU(100000)
	for i := 0; i < 2000; i++ {
		c.Put(obj(fmt.Sprintf("key-%d", i)))
	}
	used := 0
	for _, s := range c.shards {
		s.mu.Lock()
		if len(s.items) > 0 {
			used++
		}
		s.mu.Unlock()
	}
	if used < shardCount/2 {
		t.Errorf("2000 keys landed on only %d of %d shards", used, shardCount)
	}
}

// TestShardedResize: growing and shrinking redistributes capacity and keeps
// Len within bounds; shrinking to zero empties the cache.
func TestShardedResize(t *testing.T) {
	c := NewLRU(1024)
	for i := 0; i < 1024; i++ {
		c.Put(obj(fmt.Sprintf("k%d", i)))
	}
	c.Resize(256)
	if c.Len() > 256 {
		t.Errorf("Len after shrink = %d > 256", c.Len())
	}
	if c.Capacity() != 256 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
	c.Resize(0)
	if c.Len() != 0 {
		t.Errorf("Len after Resize(0) = %d", c.Len())
	}
	if c.Shards() != shardCount {
		t.Errorf("Resize changed shard count to %d", c.Shards())
	}
}

// BenchmarkCacheGetParallel measures the contended hit path — the reason the
// cache is sharded. Run via `make bench-hotpath`.
func BenchmarkCacheGetParallel(b *testing.B) {
	for _, capacity := range []int{64, 4096} {
		name := "single-shard"
		if capacity >= shardThreshold {
			name = "sharded"
		}
		b.Run(name, func(b *testing.B) {
			c := NewLRU(capacity)
			keys := make([]core.GlobalKey, 64)
			for i := range keys {
				o := obj(fmt.Sprintf("k%d", i))
				c.Put(o)
				keys[i] = o.GK
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					c.Get(keys[i&63])
					i++
				}
			})
		})
	}
}
