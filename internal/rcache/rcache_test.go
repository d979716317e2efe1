package rcache

import (
	"fmt"
	"sync"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
)

func gk(key string) core.GlobalKey {
	return core.GlobalKey{Database: "db", Collection: "col", Key: key}
}

func reachKey(key string, level int) Key {
	return Key{GK: gk(key), Level: level, Kind: KindReach}
}

func TestReachRoundTrip(t *testing.T) {
	c := New(8)
	hits := []aindex.Hit{{Key: gk("b"), Prob: 0.9, Dist: 1}}
	stats := aindex.ReachStats{Nodes: 3, Edges: 7, Snapshot: true}
	c.PutReach(reachKey("a", 2), 5, hits, stats)

	got, gotStats, ok := c.GetReach(reachKey("a", 2), 5)
	if !ok {
		t.Fatal("expected a hit at the stored epoch")
	}
	if len(got) != 1 || got[0] != hits[0] || gotStats != stats {
		t.Fatalf("got %v %v, want %v %v", got, gotStats, hits, stats)
	}
	// A different level is a different result.
	if _, _, ok := c.GetReach(reachKey("a", 3), 5); ok {
		t.Fatal("level must be part of the key")
	}
}

func TestEpochMismatchEvicts(t *testing.T) {
	c := New(8)
	c.PutReach(reachKey("a", 1), 5, nil, aindex.ReachStats{})

	if _, _, ok := c.GetReach(reachKey("a", 1), 6); ok {
		t.Fatal("entry from epoch 5 must not validate at epoch 6")
	}
	st := c.Stats()
	if st.EpochMismatches != 1 {
		t.Fatalf("EpochMismatches = %d, want 1", st.EpochMismatches)
	}
	if st.Len != 0 {
		t.Fatalf("stale entry not evicted: Len = %d", st.Len)
	}
	// The mismatch evicted the entry, so re-probing at the original epoch is
	// a plain miss, not a second mismatch.
	if _, _, ok := c.GetReach(reachKey("a", 1), 5); ok {
		t.Fatal("evicted entry resurrected")
	}
	if st := c.Stats(); st.EpochMismatches != 1 {
		t.Fatalf("EpochMismatches after plain miss = %d, want 1", st.EpochMismatches)
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	c := New(8)
	k := Key{GK: gk("a"), Level: 1, MinProb: 0.5, Kind: KindOutcome}
	c.PutOutcome(k, 9, "payload")
	v, ok := c.GetOutcome(k, 9)
	if !ok || v != "payload" {
		t.Fatalf("GetOutcome = %v, %v", v, ok)
	}
	// MinProb participates in the key for outcomes.
	k2 := k
	k2.MinProb = 0.6
	if _, ok := c.GetOutcome(k2, 9); ok {
		t.Fatal("MinProb must be part of the key")
	}
}

func TestInvalidateFlushes(t *testing.T) {
	c := New(8)
	for i := 0; i < 4; i++ {
		c.PutReach(reachKey(fmt.Sprint(i), 0), 1, nil, aindex.ReachStats{})
	}
	c.Invalidate()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after Invalidate = %d", n)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if _, _, ok := c.GetReach(reachKey("0", 0), 1); ok {
		t.Fatal("flushed entry served")
	}
}

func TestZeroCapacityDisabled(t *testing.T) {
	c := New(0)
	c.PutReach(reachKey("a", 0), 1, nil, aindex.ReachStats{})
	if _, _, ok := c.GetReach(reachKey("a", 0), 1); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	c := New(2) // below shardThreshold: one shard, exact LRU
	c.PutReach(reachKey("a", 0), 1, nil, aindex.ReachStats{})
	c.PutReach(reachKey("b", 0), 1, nil, aindex.ReachStats{})
	c.GetReach(reachKey("a", 0), 1) // refresh a
	c.PutReach(reachKey("c", 0), 1, nil, aindex.ReachStats{})
	if _, _, ok := c.GetReach(reachKey("b", 0), 1); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, _, ok := c.GetReach(reachKey("a", 0), 1); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestResizeShrinks(t *testing.T) {
	c := New(4)
	for i := 0; i < 4; i++ {
		c.PutReach(reachKey(fmt.Sprint(i), 0), 1, nil, aindex.ReachStats{})
	}
	c.Resize(1)
	if n := c.Len(); n != 1 {
		t.Fatalf("Len after Resize(1) = %d", n)
	}
	if c.Capacity() != 1 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	c.PutReach(reachKey("a", 0), 1, nil, aindex.ReachStats{})
	if _, _, ok := c.GetReach(reachKey("a", 0), 1); ok {
		t.Fatal("nil cache hit")
	}
	c.Invalidate()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("nil Len/Capacity nonzero")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1024) // sharded
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := reachKey(fmt.Sprint(i%32), w%3)
				epoch := uint64(i % 4)
				c.PutReach(k, epoch, []aindex.Hit{{Key: gk("x"), Prob: 0.5, Dist: 1}}, aindex.ReachStats{})
				c.GetReach(k, epoch)
				if i%50 == 0 {
					c.Invalidate()
				}
			}
		}(w)
	}
	wg.Wait()
}
