package augment

import (
	"context"
	"strconv"
	"testing"

	"quepa/internal/explain"
	"quepa/internal/telemetry"
)

// profiled runs fn under an "http <route>" root span, as the server does,
// and derives the EXPLAIN profile from the span tree it left.
func profiled(t *testing.T, route string, fn func(ctx context.Context) int) *explain.Profile {
	t.Helper()
	ctx, root := telemetry.StartSpan(context.Background(), "http "+route)
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	defer root.End()
	root.SetAttr("objects", strconv.Itoa(fn(ctx)))
	return explain.FromSpan(root)
}

// TestSearchRecordsProfile runs Lucy's query under a root span and checks
// every layer left its work in the profile derived from the trace.
func TestSearchRecordsProfile(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Batch, BatchSize: 16, CacheSize: 64})

	search := func(ctx context.Context) int {
		answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, 0)
		if err != nil {
			t.Fatal(err)
		}
		return answer.Size()
	}
	p := profiled(t, "/search", search)

	if p.Database != "transactions" || p.Query == "" || p.Level != 0 {
		t.Errorf("identity = %q %q %d", p.Database, p.Query, p.Level)
	}
	if p.LocalQuery == nil || p.LocalQuery.Store != "transactions" ||
		p.LocalQuery.Calls != 1 || p.LocalQuery.Objects != 1 {
		t.Errorf("local query = %+v", p.LocalQuery)
	}
	if len(p.Augmentations) != 1 {
		t.Fatalf("augmentations = %+v", p.Augmentations)
	}
	a := p.Augmentations[0]
	if a.Strategy != "BATCH" || a.Level != 0 || a.Origins != 1 {
		t.Errorf("trace = %+v", a)
	}
	// Lucy's album reaches four related objects across all four stores:
	// the catalogue document, the discount, the similar-items node, and the
	// sale matched to the album.
	if a.CandidateKeys != 4 || a.Fetched != 4 {
		t.Errorf("candidates=%d fetched=%d, want 4/4", a.CandidateKeys, a.Fetched)
	}
	if a.IndexNodes == 0 || a.IndexEdges == 0 {
		t.Errorf("index work not recorded: %+v", a)
	}
	if a.CacheMisses != 4 || a.CacheHits != 0 {
		t.Errorf("cold cache hits/misses = %d/%d", a.CacheHits, a.CacheMisses)
	}
	if len(a.Stores) != 4 {
		t.Errorf("store fan-out = %+v", a.Stores)
	}
	for _, f := range a.Stores {
		if f.Op != "getbatch" || f.Calls != 1 || f.Objects != 1 || f.Errors != 0 {
			t.Errorf("fan-out entry = %+v", f)
		}
	}
	if p.Totals.StoreCalls != 5 || p.Totals.StoreErrors != 0 {
		t.Errorf("totals = %+v", p.Totals)
	}

	// A warm re-run of the same query is served from the cache: no store
	// calls beyond the local query, all candidates hits.
	p2 := profiled(t, "/search", search)
	a2 := p2.Augmentations[0]
	if a2.CacheHits != 4 || a2.CacheMisses != 0 {
		t.Errorf("warm cache hits/misses = %d/%d", a2.CacheHits, a2.CacheMisses)
	}
	if len(a2.Stores) != 0 {
		t.Errorf("warm run still hit stores: %+v", a2.Stores)
	}
	if p2.Totals.StoreCalls != 1 {
		t.Errorf("warm store calls = %d, want 1 (the local query)", p2.Totals.StoreCalls)
	}
}

// TestSearchWithoutRecorderUnchanged pins the off path: an untraced context
// (no span to record into) leaves results identical.
func TestSearchWithoutRecorderUnchanged(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Original) != 1 || len(answer.Augmented) != 4 {
		t.Errorf("answer = %d original, %d augmented", len(answer.Original), len(answer.Augmented))
	}
}

// TestExploreStepRecordsFetch verifies the exploration path records the
// origin fetch and the level-0 expansion.
func TestExploreStepRecordsFetch(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential, CacheSize: 16})
	sess, starts, err := aug.Explore(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, nil)
	if err != nil {
		t.Fatal(err)
	}

	p := profiled(t, "/explore/step", func(ctx context.Context) int {
		links, err := sess.Step(ctx, starts[0].GK)
		if err != nil {
			t.Fatal(err)
		}
		return len(links)
	})
	if p.Query != "step "+starts[0].GK.String() || p.Database != "transactions" {
		t.Errorf("identity = %q %q", p.Database, p.Query)
	}
	// The origin fetch happens outside any augmentation trace.
	if len(p.Fetches) != 1 || p.Fetches[0].Op != "get" || p.Fetches[0].Store != "transactions" {
		t.Errorf("fetches = %+v", p.Fetches)
	}
	if len(p.Augmentations) != 1 || p.Augmentations[0].Level != 0 {
		t.Errorf("augmentations = %+v", p.Augmentations)
	}
}
