package rcache

import (
	"fmt"
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
	c.PutReach(reachKey("a", 2), 5, hits)

	got, ok := c.GetReach(reachKey("a", 2), 5)
	if !ok {
		t.Fatal("expected a hit at the stored epoch")
	}
	if len(got) != 1 || got[0] != hits[0] {
		t.Fatalf("got %v, want %v", got, hits)
	}
	// A different level is a different result.
	if _, ok := c.GetReach(reachKey("a", 3), 5); ok {
		t.Fatal("level must be part of the key")
	}
}

func TestEpochMismatchEvicts(t *testing.T) {
	c := New(8)
	c.PutReach(reachKey("a", 1), 5, nil)

	if _, ok := c.GetReach(reachKey("a", 1), 6); ok {
		t.Fatal("entry from epoch 5 must not validate at epoch 6")
	}
	st := c.Stats()
	if st.Mismatches != 1 {
		t.Fatalf("Mismatches = %d, want 1", st.Mismatches)
	}
	if st.Len != 0 {
		t.Fatalf("stale entry not evicted: Len = %d", st.Len)
	}
	// The mismatch evicted the entry, so re-probing at the original epoch is
	// a plain miss, not a second mismatch.
	if _, ok := c.GetReach(reachKey("a", 1), 5); ok {
		t.Fatal("evicted entry resurrected")
	}
	if st := c.Stats(); st.Mismatches != 1 {
		t.Fatalf("Mismatches after plain miss = %d, want 1", st.Mismatches)
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	c := New(8)
	k := Key{GK: gk("a"), Level: 1, Kind: KindOutcome}
	c.PutOutcome(k, 9, "payload")
	v, ok := c.GetOutcome(k, 9)
	if !ok || v != "payload" {
		t.Fatalf("GetOutcome = %v, %v", v, ok)
	}
	// The kind is part of the key: a reach probe for the same origin and
	// level misses.
	if _, ok := c.GetReach(Key{GK: gk("a"), Level: 1, Kind: KindReach}, 9); ok {
		t.Fatal("Kind must be part of the key")
	}
}

func TestInvalidateFlushes(t *testing.T) {
	c := New(8)
	for i := 0; i < 4; i++ {
		c.PutReach(reachKey(fmt.Sprint(i), 0), 1, nil)
	}
	c.Invalidate()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after Invalidate = %d", n)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if _, ok := c.GetReach(reachKey("0", 0), 1); ok {
		t.Fatal("flushed entry served")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	c.PutReach(reachKey("a", 0), 1, nil)
	if _, ok := c.GetReach(reachKey("a", 0), 1); ok {
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
