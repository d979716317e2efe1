package rcache

import (
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
)

func gk(key string) core.GlobalKey {
	return core.GlobalKey{Database: "db", Collection: "col", Key: key}
}

func outcome(key string, level int) Key {
	return Key{GK: gk(key), Level: level, Kind: KindOutcome}
}

// chain builds an index over a - b - c, plus a separate island x - y.
func chain(t *testing.T) *aindex.Index {
	t.Helper()
	ix := aindex.New()
	for _, r := range []core.PRelation{
		core.NewMatching(gk("a"), gk("b"), 0.9),
		core.NewMatching(gk("b"), gk("c"), 0.8),
		core.NewMatching(gk("x"), gk("y"), 0.7),
	} {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestEpochMismatchEvicts: a mutation of an origin's island moves its stamp,
// so its outcome entry is a mismatch, evicted and restorable at the new
// stamp; an entry of another island keeps serving.
func TestEpochMismatchEvicts(t *testing.T) {
	c, ix := New(8), chain(t)
	a, x := outcome("a", 1), outcome("x", 1)
	c.PutOutcome(a, ix.Stamp(gk("a")), "a@old")
	c.PutOutcome(x, ix.Stamp(gk("x")), "x")
	if err := ix.Insert(core.NewMatching(gk("a"), gk("d"), 0.5)); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.GetOutcome(a, ix.Stamp(gk("a"))); ok {
		t.Fatalf("outcome after its island mutated = %v; want a miss", v)
	}
	if s := c.Stats(); s.Mismatches != 1 || s.Len != 1 {
		t.Fatalf("Stats = %+v, want 1 mismatch and the stale entry evicted", s)
	}
	c.PutOutcome(a, ix.Stamp(gk("a")), "a@new")
	if v, ok := c.GetOutcome(a, ix.Stamp(gk("a"))); !ok || v != "a@new" {
		t.Fatalf("restored outcome = %v, %v", v, ok)
	}
	if v, ok := c.GetOutcome(x, ix.Stamp(gk("x"))); !ok || v != "x" {
		t.Fatal("a mutation of another island invalidated x's entry")
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	c, ix := New(8), chain(t)
	k := outcome("a", 1)
	c.PutOutcome(k, ix.Stamp(gk("a")), "payload")
	v, ok := c.GetOutcome(k, ix.Stamp(gk("a")))
	if !ok || v != "payload" {
		t.Fatalf("GetOutcome = %v, %v", v, ok)
	}
	// The level is part of the key.
	if _, ok := c.GetOutcome(outcome("a", 0), ix.Stamp(gk("a"))); ok {
		t.Fatal("level must be part of the key")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("Stats = %+v, want 1 hit and 1 miss", s)
	}
}

func TestInvalidateFlushes(t *testing.T) {
	c := New(8)
	for _, k := range []string{"0", "1", "2", "3"} {
		c.PutOutcome(outcome(k, 0), 1, k)
	}
	c.Invalidate()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after Invalidate = %d", n)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if _, ok := c.GetOutcome(outcome("0", 0), 1); ok {
		t.Fatal("flushed entry served")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	c.PutOutcome(outcome("a", 1), 1, "payload")
	if v, ok := c.GetOutcome(outcome("a", 1), 1); ok {
		t.Fatalf("nil cache served %v", v)
	}
	c.Invalidate()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("nil Len/Capacity nonzero")
	}
}
