package augment

import (
	"testing"

	"quepa/internal/core"
)

// TestStrategyEquivalenceCoalescing extends the Section IV equivalence
// property across the hot-path machinery: every strategy, with the
// cache large enough to shard (>= 256 keys splits the LRU 16 ways), must
// produce the SEQUENTIAL answer — cold and again through the warm cache. Run
// under -race by `make race`.
func TestStrategyEquivalenceCoalescing(t *testing.T) {
	poly, ix, queryDB, query := syntheticPolystore(t, 5, 40, 321)
	reference := answerSignature(t, New(poly, ix, Config{Strategy: Sequential}), queryDB, query)

	for _, s := range Strategies {
		cfg := Config{
			Strategy:    s,
			BatchSize:   16,
			ThreadsSize: 8,
			CacheSize:   1024, // past the shard threshold: 16-way LRU
		}
		aug := New(poly, ix, cfg)
		if got := answerSignature(t, aug, queryDB, query); got != reference {
			t.Errorf("%v (cold): answer differs\n got  %s\n want %s", cfg, got, reference)
		}
		if got := answerSignature(t, aug, queryDB, query); got != reference {
			t.Errorf("%v (warm): answer differs\n got  %s\n want %s", cfg, got, reference)
		}
	}
}

// TestCacheHitPathZeroAllocs pins the warm read path — the one every warm
// benchmark point lives on — at zero heap allocations: an object the store
// round trip put in the cache comes back out without allocating.
func TestCacheHitPathZeroAllocs(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{CacheSize: 1024})
	gk := core.NewGlobalKey("discount", "drop", "k1:cure:wish")
	if _, ok, err := aug.fetchStore(ctx, gk); err != nil || !ok {
		t.Fatalf("warming fetch = %v, %v", ok, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := aug.cache.Get(gk); !ok {
			t.Fatal("warm lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit lookup allocates %v per run, want 0", allocs)
	}
}
