package rcache

import (
	"fmt"
	"reflect"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
)

func gk(key string) core.GlobalKey {
	return core.GlobalKey{Database: "db", Collection: "col", Key: key}
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

func TestReachRoundTrip(t *testing.T) {
	c, ix := New(8), chain(t)
	want := ix.Reach(gk("a"), 1)
	got, st := c.Reach(ix, gk("a"), 1)
	if !reflect.DeepEqual(got, want) || st.Memoized != 0 || st.Nodes == 0 {
		t.Fatalf("cold reach = %v, %+v; want %v computed", got, st, want)
	}
	got, st = c.Reach(ix, gk("a"), 1)
	if !reflect.DeepEqual(got, want) || st != (aindex.ReachStats{Memoized: 1}) {
		t.Fatalf("warm reach = %v, %+v; want %v memoized with no traversal", got, st, want)
	}
	// A different level is a different result.
	if _, st := c.Reach(ix, gk("a"), 0); st.Memoized != 0 {
		t.Fatal("level must be part of the key")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("Stats = %+v, want 1 hit and 2 misses", s)
	}
}

// TestEpochMismatchEvicts: a mutation of an origin's island moves its stamp,
// so its entry is a mismatch, recomputed and restored; an entry of another
// island keeps serving.
func TestEpochMismatchEvicts(t *testing.T) {
	c, ix := New(8), chain(t)
	c.Reach(ix, gk("a"), 1)
	c.Reach(ix, gk("x"), 1)
	if err := ix.Insert(core.NewMatching(gk("a"), gk("d"), 0.5)); err != nil {
		t.Fatal(err)
	}
	got, st := c.Reach(ix, gk("a"), 1)
	if st.Memoized != 0 || !reflect.DeepEqual(got, ix.Reach(gk("a"), 1)) {
		t.Fatalf("reach after its island mutated = %v, %+v; want a recomputation", got, st)
	}
	if s := c.Stats(); s.Mismatches != 1 || s.Len != 2 {
		t.Fatalf("Stats = %+v, want 1 mismatch and the entry restored", s)
	}
	if _, st := c.Reach(ix, gk("x"), 1); st.Memoized != 1 {
		t.Fatal("a mutation of another island invalidated x's entry")
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	c, ix := New(8), chain(t)
	k := Key{GK: gk("a"), Level: 1, Kind: KindOutcome}
	c.PutOutcome(k, ix.Stamp(gk("a")), "payload")
	v, ok := c.GetOutcome(k, ix.Stamp(gk("a")))
	if !ok || v != "payload" {
		t.Fatalf("GetOutcome = %v, %v", v, ok)
	}
	// The kind is part of the key: a reach of the same origin and level
	// misses.
	if _, st := c.Reach(ix, gk("a"), 1); st.Memoized != 0 {
		t.Fatal("Kind must be part of the key")
	}
}

func TestInvalidateFlushes(t *testing.T) {
	c, ix := New(8), chain(t)
	for i := 0; i < 4; i++ {
		c.Reach(ix, gk(fmt.Sprint(i)), 0)
	}
	c.Invalidate()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after Invalidate = %d", n)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if _, st := c.Reach(ix, gk("0"), 0); st.Memoized != 0 {
		t.Fatal("flushed entry served")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	ix := chain(t)
	got, st := c.Reach(ix, gk("a"), 1)
	if !reflect.DeepEqual(got, ix.Reach(gk("a"), 1)) || st.Memoized != 0 || st.Nodes == 0 {
		t.Fatalf("nil cache reach = %v, %+v; want a computed reach", got, st)
	}
	c.Invalidate()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("nil Len/Capacity nonzero")
	}
}
