package augment

import (
	"context"
	"reflect"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/rcache"
	"quepa/internal/telemetry"
)

// TestExplorationSession walks the paper's Example 5 pattern: start from a
// query, expand an object, then expand one of the objects it revealed.
func TestExplorationSession(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Inner, ThreadsSize: 2, CacheSize: 50})
	tracker := aindex.NewPathTracker(ix, aindex.PromotionPolicy{BaseThreshold: 100, Decay: 0, MinThreshold: 100})

	sess, start, err := aug.Explore(ctx, "transactions", `SELECT * FROM sales WHERE total > 15`, tracker)
	if err != nil {
		t.Fatal(err)
	}
	if len(start) != 1 || start[0].GK.Key != "s8" {
		t.Fatalf("start = %v", start)
	}

	// Step 1: expand the sale.
	links, err := sess.Step(ctx, start[0].GK)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) == 0 {
		t.Fatal("no links from s8")
	}
	// Ordered by probability.
	for i := 1; i < len(links); i++ {
		if links[i-1].Prob < links[i].Prob {
			t.Error("links not ordered by probability")
		}
	}

	// Step 2: follow the top link.
	links2, err := sess.Step(ctx, links[0].Object.GK)
	if err != nil {
		t.Fatal(err)
	}
	_ = links2
	if got := sess.Path(); len(got) != 2 {
		t.Errorf("path = %v", got)
	}

	// Stepping to an object that was not offered fails.
	if _, err := sess.Step(ctx, core.MustParseGlobalKey("discount.drop.zzz")); err == nil {
		t.Error("step to unoffered object should fail")
	}

	sess.Finish()
	if _, err := sess.Step(ctx, start[0].GK); err == nil {
		t.Error("step after Finish should fail")
	}
	if sess.Finish() {
		t.Error("second Finish should be a no-op")
	}
}

func TestExplorationPromotesPopularPath(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	policy := aindex.PromotionPolicy{BaseThreshold: 2, Decay: 0, MinThreshold: 2}
	tracker := aindex.NewPathTracker(ix, policy)

	gk := core.MustParseGlobalKey
	s8 := gk("transactions.sales.s8")
	a32 := gk("transactions.inventory.a32")
	n1 := gk("similar-items.items.n1")
	if _, ok := ix.Relation(s8, n1); ok {
		t.Skip("fixture already has the shortcut (materialization changed)")
	}

	walk := func() {
		sess, start, err := aug.Explore(ctx, "transactions", `SELECT * FROM sales WHERE total > 15`, tracker)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Step(ctx, start[0].GK); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Step(ctx, a32); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Step(ctx, n1); err != nil {
			t.Fatal(err)
		}
		sess.Finish()
	}
	walk()
	if _, ok := ix.Relation(s8, n1); ok {
		t.Fatal("shortcut promoted too early")
	}
	walk()
	r, ok := ix.Relation(s8, n1)
	if !ok {
		t.Fatal("popular path not promoted")
	}
	if r.Type != core.Matching {
		t.Errorf("promoted relation type = %v", r.Type)
	}
}

func TestExploreWithNilTracker(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{})
	sess, start, err := aug.Explore(ctx, "transactions", `SELECT * FROM sales WHERE total > 15`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(ctx, start[0].GK); err != nil {
		t.Fatal(err)
	}
	if sess.Finish() {
		t.Error("Finish with nil tracker should report no promotion")
	}
}

func TestExploreInvalidQuery(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{})
	if _, _, err := aug.Explore(ctx, "transactions", `SELECT SUM(total) FROM sales`, nil); err == nil {
		t.Error("aggregate exploration should fail validation")
	}
}

func TestStepFetchesFreshOrigin(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{})
	sess, _, err := aug.Explore(ctx, "transactions", `SELECT * FROM sales WHERE total > 15`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first step must select an object of the start result, so a key
	// the store does not hold is refused by the membership check before any
	// fetch.
	if _, err := sess.Step(ctx, core.MustParseGlobalKey("transactions.sales.ghost")); err == nil {
		t.Error("step to missing object should fail")
	}
}

// TestExploreStepTraceHasOriginFetch: a step's trace holds the fetch of the
// selected origin as a store.fetch span outside the augmentation, beside the
// augment.objects span of its level-0 expansion.
func TestExploreStepTraceHasOriginFetch(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential, CacheSize: 16})
	sess, start, err := aug.Explore(ctx, "transactions", `SELECT * FROM sales WHERE total > 15`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sctx, root := telemetry.StartSpan(context.Background(), "http /explore/step")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	if _, err := sess.Step(sctx, start[0].GK); err != nil {
		t.Fatal(err)
	}
	root.End()
	var origin, expansion int
	var walk func(s telemetry.SpanJSON)
	walk = func(s telemetry.SpanJSON) {
		switch s.Name {
		case "augment.objects":
			expansion++
			return // fetches below here are the expansion's, not the origin's
		case "store.fetch":
			if s.Attrs["store"] == "transactions" {
				origin++
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root.JSON())
	if origin != 1 || expansion != 1 {
		t.Errorf("step trace has %d origin fetches and %d expansions, want 1 and 1", origin, expansion)
	}
}

// TestPromotionInvalidatesOnlyItsIsland: step outcomes are cached per A'
// component. A promotion on the running example's island leaves the cached
// step of a second island (a33 ≡ n2) in place, and the promoted island's
// own step is recomputed — to exactly what an uncached augmenter answers.
func TestPromotionInvalidatesOnlyItsIsland(t *testing.T) {
	poly, ix := polyphony(t)
	gk := core.MustParseGlobalKey
	s8, a32, n1 := gk("transactions.sales.s8"), gk("transactions.inventory.a32"), gk("similar-items.items.n1")
	a33 := gk("transactions.inventory.a33")
	if err := ix.Insert(core.NewIdentity(a33, gk("similar-items.items.n2"), 0.75)); err != nil {
		t.Fatal(err)
	}
	aug := New(poly, ix, Config{Strategy: Sequential})
	rc := rcache.New(64)
	aug.SetResultCache(rc)
	tracker := aindex.NewPathTracker(ix, aindex.PromotionPolicy{BaseThreshold: 2, Decay: 0, MinThreshold: 2})

	// step starts a session on one object and expands it: the session's
	// start (a level-0 search) and the step probe the same outcome entry.
	step := func(aug *Augmenter, query string, key core.GlobalKey) []AugmentedObject {
		t.Helper()
		sess, _, err := aug.Explore(ctx, "transactions", query, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Step(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	const otherQ, sameQ = `SELECT * FROM inventory WHERE id = 'a33'`, `SELECT * FROM sales WHERE id = 's8'`
	other := step(aug, otherQ, a33)
	same := step(aug, sameQ, s8)

	for walk := 0; walk < 2; walk++ {
		sess, _, err := aug.Explore(ctx, "transactions", sameQ, tracker)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []core.GlobalKey{s8, a32, n1} {
			if _, err := sess.Step(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		sess.Finish()
	}
	if _, ok := ix.Relation(s8, n1); !ok {
		t.Fatal("the walked path was not promoted")
	}

	before := rc.Stats()
	if got := step(aug, otherQ, a33); !reflect.DeepEqual(got, other) {
		t.Fatalf("other island's step changed:\n got %v\nwant %v", got, other)
	}
	after := rc.Stats()
	if after.Hits-before.Hits != 2 || after.Mismatches != before.Mismatches {
		t.Errorf("other island after a promotion: %d hits, %d stale probes; want 2 and 0",
			after.Hits-before.Hits, after.Mismatches-before.Mismatches)
	}

	before = rc.Stats()
	got := step(aug, sameQ, s8)
	if after := rc.Stats(); after.Mismatches == before.Mismatches {
		t.Error("the promoted island's cached step was served without a stale-stamp probe")
	}
	want := step(New(poly, ix, Config{Strategy: Sequential}), sameQ, s8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recomputed step diverges from an uncached augmenter:\n got %v\nwant %v", got, want)
	}
	if reflect.DeepEqual(got, same) {
		t.Error("the promoted shortcut does not show in the recomputed step")
	}
}
