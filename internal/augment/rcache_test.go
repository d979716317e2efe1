package augment

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"quepa/internal/core"
	"quepa/internal/rcache"
)

// fetchOrigin loads Lucy's album — the running-example origin the result
// cache tests augment from.
func fetchOrigin(t *testing.T, poly *core.Polystore) core.Object {
	t.Helper()
	obj, err := poly.Fetch(ctx, core.MustParseGlobalKey("transactions.inventory.a32"))
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestResultCacheMemoizesOutcome: with a result cache attached, repeating a
// single-origin augmentation serves the whole outcome from the cache —
// bitwise-equal to the cold answer, with the hit attributed to EXPLAIN.
func TestResultCacheMemoizesOutcome(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	rc := rcache.New(64)
	aug.SetResultCache(rc)
	obj := fetchOrigin(t, poly)

	cold, _, err := aug.AugmentObjects(ctx, []core.Object{obj}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var warm []AugmentedObject
	p := profiled(t, "/search", func(ctx context.Context) int {
		var err error
		if warm, _, err = aug.AugmentObjects(ctx, []core.Object{obj}, 2); err != nil {
			t.Fatal(err)
		}
		return len(warm)
	})
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("memoized answer diverges:\ncold %v\nwarm %v", cold, warm)
	}
	if p == nil || p.Totals.RcacheHits == 0 {
		t.Fatalf("no rcache hit attributed to the profile: %+v", p)
	}
	if st := rc.Stats(); st.Hits == 0 {
		t.Fatalf("cache stats recorded no hit: %+v", st)
	}
}

// TestResultCacheStaleAfterMutation: an index mutation bumps the epoch, so
// warm entries stop being served — the next query recomputes, matches an
// uncached augmenter exactly, and the probe registers an epoch mismatch.
func TestResultCacheStaleAfterMutation(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	rc := rcache.New(64)
	aug.SetResultCache(rc)
	obj := fetchOrigin(t, poly)
	if _, _, err := aug.AugmentObjects(ctx, []core.Object{obj}, 2); err != nil {
		t.Fatal(err)
	}
	if rc.Len() == 0 {
		t.Fatal("warmup stored nothing")
	}
	// A new p-relation inside the reachable component changes the answer —
	// serving the warm entry now would be observably wrong.
	rel := core.NewIdentity(core.MustParseGlobalKey("catalogue.albums.d1"),
		core.MustParseGlobalKey("similar-items.items.n2"), 0.4)
	if err := ix.Insert(rel); err != nil {
		t.Fatal(err)
	}
	before := rc.Stats().Mismatches
	got, _, err := aug.AugmentObjects(ctx, []core.Object{obj}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := New(poly, ix, Config{Strategy: Sequential}).AugmentObjects(ctx, []core.Object{obj}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-mutation cached answer diverges:\n got %v\nwant %v", got, want)
	}
	if after := rc.Stats().Mismatches; after <= before {
		t.Fatalf("no epoch mismatch recorded (before %d, after %d)", before, after)
	}
}

// TestResultCacheConcurrentMutationEquivalence: cached queries racing a
// mutator never serve a wrong answer. The mutator only adds raw relations
// between brand-new keys unreachable from the origin, so the correct answer
// is invariant throughout — every answer served during the race must equal
// the reference, and after quiescing the cached augmenter must still agree
// with an uncached one bitwise. Those mutations land on islands of their
// own, so they must not invalidate the origin's entry either: after the cold
// first call every probe is a hit, and none finds a stale stamp.
func TestResultCacheConcurrentMutationEquivalence(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	rc := rcache.New(64)
	aug.SetResultCache(rc)
	obj := fetchOrigin(t, poly)
	want, _, err := New(poly, ix, Config{Strategy: Sequential}).AugmentObjects(ctx, []core.Object{obj}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var inserted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := core.GlobalKey{Database: "pad", Collection: "p", Key: fmt.Sprintf("a%d", i)}
			b := core.GlobalKey{Database: "pad", Collection: "p", Key: fmt.Sprintf("b%d", i)}
			if err := ix.InsertRaw(core.NewIdentity(a, b, 0.5)); err != nil {
				t.Error(err)
				return
			}
			inserted.Add(1)
		}
	}()
	const rounds = 200
	before := rc.Stats()
	for i := 0; i < rounds; i++ {
		// Interleave for sure: every round starts after at least one more
		// mutation than the last.
		for inserted.Load() <= int64(i) {
			runtime.Gosched()
		}
		got, _, err := aug.AugmentObjects(ctx, []core.Object{obj}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: answer diverged under concurrent mutation", i)
		}
	}
	after := rc.Stats()
	close(stop)
	wg.Wait()
	if hits := after.Hits - before.Hits; hits < rounds-1 {
		t.Errorf("origin served from the cache %d of %d times during the race, want >= %d: mutations on other islands invalidated it",
			hits, rounds, rounds-1)
	}
	if m := after.Mismatches - before.Mismatches; m != 0 {
		t.Errorf("%d stale-stamp probes during the race: mutations on other islands moved the origin's stamp", m)
	}
	got, _, err := aug.AugmentObjects(ctx, []core.Object{obj}, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := New(poly, ix, Config{Strategy: Sequential}).AugmentObjects(ctx, []core.Object{obj}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("quiesced cached answer diverges from uncached:\n got %v\nwant %v", got, plain)
	}
}

// TestResultCacheStoresOnlySingleOriginOutcomes: a multi-origin search
// probes and stores nothing, since the cache holds no reaches; a
// single-origin one stores exactly its outcome.
func TestResultCacheStoresOnlySingleOriginOutcomes(t *testing.T) {
	poly, ix, db, query := syntheticPolystore(t, 4, 30, 48)
	aug := New(poly, ix, Config{Strategy: OuterBatch})
	rc := rcache.New(64)
	aug.SetResultCache(rc)
	answer, err := aug.Search(ctx, db, query, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Original) < 2 || len(answer.Augmented) == 0 {
		t.Fatalf("fixture: %d origins, %d augmented; want a multi-origin search that augments", len(answer.Original), len(answer.Augmented))
	}
	if n, st := rc.Len(), rc.Stats(); n != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("multi-origin search left %d entries and %d probes, want none", n, st.Hits+st.Misses)
	}
	if _, _, err := aug.AugmentObjects(ctx, answer.Original[:1], 2); err != nil {
		t.Fatal(err)
	}
	if n := rc.Len(); n != 1 {
		t.Fatalf("single-origin augmentation left %d entries, want its one outcome", n)
	}
}

// TestAppendSearchOwnsItsStorage: AppendSearch appends after dst's
// elements, and what it returns never shares storage with the result cache:
// clearing each answer, as the server does before recycling it, leaves the
// memoized outcome intact for the next search — the miss that stores it and
// the hits that read it alike.
func TestAppendSearchOwnsItsStorage(t *testing.T) {
	poly, ix := polyphony(t)
	const db, q = "transactions", "SELECT * FROM inventory WHERE id = 'a32'"
	want, err := New(poly, ix, Config{Strategy: Sequential}).Search(ctx, db, q, 2)
	if err != nil || len(want.Augmented) == 0 {
		t.Fatalf("fixture: %v, %d augmented", err, len(want.Augmented))
	}
	aug := New(poly, ix, Config{Strategy: Sequential})
	rc := rcache.New(64)
	aug.SetResultCache(rc)
	sentinel := AugmentedObject{Prob: -1}
	for i := 0; i < 3; i++ {
		answer, err := aug.AppendSearch(ctx, []AugmentedObject{sentinel}, db, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := answer.Augmented; !reflect.DeepEqual(got[0], sentinel) || !reflect.DeepEqual(got[1:], want.Augmented) {
			t.Fatalf("search %d: got %v, want the sentinel then %v", i, got, want.Augmented)
		}
		clear(answer.Augmented)
	}
	if st := rc.Stats(); st.Hits != 2 {
		t.Fatalf("rcache stats %+v, want the two repeats served as hits", st)
	}
}
