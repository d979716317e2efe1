package explain

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quepa/internal/telemetry"
)

// span builds one node of a synthetic trace.
func span(name string, attrs map[string]string, ms float64, children ...telemetry.SpanJSON) telemetry.SpanJSON {
	return telemetry.SpanJSON{Name: name, Attrs: attrs, DurationMS: ms, Children: children}
}

// searchTrace is the span tree of one level-2 search: local query, one
// augmentation with merged store fan-out, a degraded store, scatter legs to
// two shards, a retried wire round trip, and the handler's root attributes.
func searchTrace() telemetry.SpanJSON {
	wireBatch := span("wire.getbatch", map[string]string{"store": "catalogue"}, 1,
		span("wire.retry", map[string]string{"store": "catalogue", "op": "getbatch", "attempt": "1",
			"cause": "read: i/o timeout", "backoff_ms": "0.5"}, 1))
	wireBatch.BytesSent, wireBatch.BytesRecv = 100, 2000
	wireBatch.Children[0].BytesSent, wireBatch.Children[0].BytesRecv = 50, 1000
	return span("http /search", map[string]string{"objects": "13", "rank_pruned": "3"}, 9,
		span("augment.search", map[string]string{"db": "transactions", "q": "SELECT * FROM sales", "level": "2"}, 8,
			span("store.query", map[string]string{"objects": "5"}, 2),
			span("augment.objects", map[string]string{
				"strategy": "OUTER-BATCH", "level": "2", "origins": "5", "keys": "12",
				"index_nodes": "30", "index_edges": "44", "origins_skipped": "2",
				"cache_hits": "3", "cache_misses": "9", "fetched": "8",
				"degraded.social": "breaker_open", "degraded_level.social": "1",
			}, 4,
				span("cluster.scatter", map[string]string{"shard": "1", "peer": "peer-1", "keys": "4", "hits": "6"}, 1),
				span("cluster.scatter", map[string]string{"shard": "0", "peer": "peer-0", "keys": "5", "hits": "7"}, 1),
				span("cluster.scatter", map[string]string{"shard": "1", "peer": "peer-1", "keys": "2", "error": "peer down"}, 0),
				span("store.fetchbatch", map[string]string{"store": "catalogue", "keys": "6", "objects": "6"}, 1, wireBatch),
				span("store.fetchbatch", map[string]string{"store": "catalogue", "keys": "3", "objects": "2"}, 1),
				span("store.fetch", map[string]string{"store": "social", "error": "breaker open"}, 1),
			),
		),
	)
}

// TestRecorderLifecycle derives a full profile from the one recorder, a
// search's span tree: identity, local query, the augmentation with its
// counts, merged and sorted fan-out, scatter rows and degraded stores,
// retries, bytes and totals.
func TestRecorderLifecycle(t *testing.T) {
	p := FromTrace(searchTrace())

	if p.Route != "/search" || p.Database != "transactions" || p.Query != "SELECT * FROM sales" || p.Level != 2 || p.WallMS != 9 {
		t.Errorf("identity = %q %q %q %d %v", p.Route, p.Database, p.Query, p.Level, p.WallMS)
	}
	if lq := p.LocalQuery; lq == nil || lq.Store != "transactions" || lq.Calls != 1 || lq.Objects != 5 || lq.MaxBatch != 5 {
		t.Errorf("local query = %+v", p.LocalQuery)
	}
	if len(p.Augmentations) != 1 {
		t.Fatalf("augmentations = %d", len(p.Augmentations))
	}
	a := p.Augmentations[0]
	if a.Level != 2 || a.Strategy != "OUTER-BATCH" || a.Origins != 5 || a.WallMS != 4 {
		t.Errorf("trace header = %+v", a)
	}
	if a.CandidateKeys != 12 || a.IndexNodes != 30 || a.IndexEdges != 44 || a.OriginsSkipped != 2 {
		t.Errorf("plan stats = %+v", a)
	}
	if a.CacheHits != 3 || a.CacheMisses != 9 || a.Fetched != 8 {
		t.Errorf("cache/fetch = %+v", a)
	}
	// Fan-out is merged per store+op and sorted by store name.
	if len(a.Stores) != 2 {
		t.Fatalf("stores = %+v", a.Stores)
	}
	if f := a.Stores[0]; f.Store != "catalogue" || f.Op != "getbatch" || f.Calls != 2 || f.Keys != 9 || f.Objects != 8 || f.MaxBatch != 6 || f.WallMS != 2 {
		t.Errorf("catalogue fan-out = %+v", f)
	}
	if f := a.Stores[1]; f.Store != "social" || f.Op != "get" || f.Keys != 1 || f.Errors != 1 {
		t.Errorf("social fan-out = %+v", f)
	}
	// Scatter legs merge per shard, sorted by shard.
	if len(a.Scatter) != 2 || a.Scatter[0].Shard != 0 || a.Scatter[1].Shard != 1 {
		t.Fatalf("scatter = %+v", a.Scatter)
	}
	if s := a.Scatter[1]; s.Peer != "peer-1" || s.Calls != 2 || s.Keys != 6 || s.Hits != 6 || s.Errors != 1 {
		t.Errorf("shard 1 row = %+v", s)
	}
	if len(a.Degraded) != 1 || a.Degraded[0] != (DegradedStore{Store: "social", Reason: "breaker_open", Level: 1}) {
		t.Errorf("degraded = %+v", a.Degraded)
	}
	if len(p.Retries) != 1 || p.Retries[0] != (RetryTrace{Store: "catalogue", Op: "getbatch", Attempt: 1, BackoffMS: 0.5, Error: "read: i/o timeout"}) {
		t.Errorf("retries = %+v", p.Retries)
	}

	tot := p.Totals
	if tot.Objects != 13 || tot.RankPruned != 3 || tot.StoreCalls != 4 || tot.StoreErrors != 1 ||
		tot.CacheHits != 3 || tot.CacheMisses != 9 || tot.Degraded != 1 || tot.WireRetries != 1 {
		t.Errorf("totals = %+v", tot)
	}
	// The retry's bytes are already on its round-trip span: counted once.
	if tot.BytesSent != 100 || tot.BytesReceived != 2000 {
		t.Errorf("wire bytes = %d sent / %d received, want 100 / 2000", tot.BytesSent, tot.BytesReceived)
	}
	if tot.ScatterCalls != 3 {
		t.Errorf("scatter totals = %d calls", tot.ScatterCalls)
	}
}

// TestNilRecorderSafe: telemetry off means a nil span and no profile; an
// empty tree derives an empty profile.
func TestNilRecorderSafe(t *testing.T) {
	if p := FromSpan(nil); p != nil {
		t.Errorf("FromSpan(nil) = %+v", p)
	}
	p := FromTrace(telemetry.SpanJSON{})
	if p == nil || p.LocalQuery != nil || len(p.Augmentations) != 0 || p.Totals != (Totals{}) {
		t.Errorf("empty tree profile = %+v", p)
	}
}

// TestFromSpanOpenRoot: a handler derives its profile while the root is
// still open; the wall time runs to now.
func TestFromSpanOpenRoot(t *testing.T) {
	ctx, root := telemetry.StartSpan(context.Background(), "http /search")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	defer root.End()
	_, child := telemetry.StartSpan(ctx, "augment.search")
	child.SetAttr("db", "transactions")
	child.End()
	time.Sleep(time.Millisecond)
	p := FromSpan(root)
	if p.Route != "/search" || p.Database != "transactions" || p.WallMS < 1 {
		t.Errorf("open-root profile = %q %q %v", p.Route, p.Database, p.WallMS)
	}
}

// TestOffPathAllocations pins the off path: with telemetry disabled a
// request opens no span, has no profile, and allocates nothing for either.
func TestOffPathAllocations(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		rctx, root := telemetry.StartSpan(ctx, "http /search")
		_, sp := telemetry.StartSpan(rctx, "augment.objects")
		sp.SetAttr("cache_hits", "1")
		sp.End()
		if p := FromSpan(root); p != nil {
			t.Fatal("profile with telemetry disabled")
		}
		root.End()
	}); n != 0 {
		t.Errorf("off path allocates %v per request", n)
	}
}

// TestRecorderConcurrent: spans opened from concurrent workers under one
// augmentation — the OUTER/INNER strategies' shape — all land in the tree,
// and the derived profile counts every one of them.
func TestRecorderConcurrent(t *testing.T) {
	ctx, root := telemetry.StartSpan(context.Background(), "http /search")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	defer root.End()
	actx, aug := telemetry.StartSpan(ctx, "augment.objects")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, sp := telemetry.StartSpan(actx, "store.fetch")
				sp.SetAttr("store", "catalogue")
				sp.SetAttr("objects", "1")
				sp.End()
			}
		}()
	}
	wg.Wait()
	aug.End()
	p := FromSpan(root)
	if len(p.Augmentations) != 1 || len(p.Augmentations[0].Stores) != 1 {
		t.Fatalf("augmentations = %+v", p.Augmentations)
	}
	if f := p.Augmentations[0].Stores[0]; f.Calls != 800 || f.Objects != 800 || p.Totals.StoreCalls != 800 {
		t.Errorf("fan-out = %+v, store calls = %d, want 800", f, p.Totals.StoreCalls)
	}
}

func TestEndAugmentationError(t *testing.T) {
	p := FromTrace(span("http /search", nil, 1,
		span("augment.objects", map[string]string{"strategy": "INNER", "level": "1", "origins": "2", "error": "store down"}, 1)))
	if len(p.Augmentations) != 1 || p.Augmentations[0].Error != "store down" || p.Augmentations[0].Fetched != 0 {
		t.Errorf("augmentations = %+v", p.Augmentations)
	}
}

// TestStoreOpOutsideAugmentation: an exploration step's origin fetch lands
// on the profile's fetches, its expansion on the augmentation, and the step
// span names the query.
func TestStoreOpOutsideAugmentation(t *testing.T) {
	p := FromTrace(span("http /explore/step", nil, 1,
		span("augment.step", map[string]string{"db": "transactions", "key": "transactions.sales.s0"}, 1,
			span("store.fetch", map[string]string{"store": "transactions", "objects": "1"}, 1),
			span("augment.objects", map[string]string{"strategy": "SEQUENTIAL", "level": "0", "origins": "1"}, 1,
				span("store.fetch", map[string]string{"store": "catalogue", "objects": "1"}, 1)))))
	if p.Database != "transactions" || p.Query != "step transactions.sales.s0" || p.Level != 0 {
		t.Errorf("identity = %q %q %d", p.Database, p.Query, p.Level)
	}
	if len(p.Fetches) != 1 || p.Fetches[0].Op != "get" || p.Fetches[0].Store != "transactions" || p.Fetches[0].Objects != 1 {
		t.Errorf("fetches = %+v", p.Fetches)
	}
	if len(p.Augmentations) != 1 || len(p.Augmentations[0].Stores) != 1 || p.Augmentations[0].Stores[0].Store != "catalogue" {
		t.Errorf("augmentations = %+v", p.Augmentations)
	}
	if p.Totals.StoreCalls != 2 {
		t.Errorf("store calls = %d, want 2", p.Totals.StoreCalls)
	}
}

// TestSnapshotTieBreakNewestFirst: the /debug/explain view orders profiles
// slowest first; equal wall times keep the tracer snapshot's newest-first
// order.
func TestSnapshotTieBreakNewestFirst(t *testing.T) {
	var roots []telemetry.SpanJSON // newest first, as Tracer.Snapshot returns them
	for _, r := range []struct {
		q    string
		wall float64
	}{{"new", 5}, {"top", 7}, {"mid", 5}, {"old", 5}} {
		roots = append(roots, span("http /search", nil, r.wall, span("augment.search", map[string]string{"q": r.q}, 1)))
	}
	want := []string{"top", "new", "mid", "old"}
	got := Profiles(roots, "")
	if len(got) != len(want) {
		t.Fatalf("profiles = %d, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.Query != want[i] {
			t.Errorf("profiles[%d] = %q, want %q", i, p.Query, want[i])
		}
	}
}

// TestBufferEvictionAndOrdering: /debug/explain reads the tracer's ring
// buffer, so a trace evicted there has no profile; of the kept roots only
// /search and /explore/step ones have one, slowest first, and ?route= keeps
// one route's.
func TestBufferEvictionAndOrdering(t *testing.T) {
	tracer := telemetry.NewTracer(3)
	tracer.SetSlowThreshold(0) // keep every root
	for i, name := range []string{"http /search", "http /search", "http /stats", "http /explore/step"} {
		_, root := tracer.StartSpan(context.Background(), name)
		if root == nil {
			t.Fatal("no root span (telemetry disabled?)")
		}
		root.SetAttr("objects", strconv.Itoa(i))
		if i == 1 {
			time.Sleep(20 * time.Millisecond) // the slowest kept search
		}
		root.End()
	}
	all := Profiles(tracer.Snapshot(), "")
	if len(all) != 2 {
		t.Fatalf("profiles = %d, want 2 (the first search was evicted, /stats has none)", len(all))
	}
	if all[0].Route != "/search" || all[0].Totals.Objects != 1 || all[1].Route != "/explore/step" {
		t.Errorf("order = %s(%d) %s", all[0].Route, all[0].Totals.Objects, all[1].Route)
	}
	for route, want := range map[string]int{"/search": 1, "/explore/step": 1, "/stats": 0, "/nope": 0} {
		if got := Profiles(tracer.Snapshot(), route); len(got) != want {
			t.Errorf("route %q: %d profiles, want %d", route, len(got), want)
		}
	}
	if none := Profiles(nil, ""); none == nil {
		t.Error("no roots should give an empty list, not null")
	}
}

func TestWriteTree(t *testing.T) {
	p := FromTrace(searchTrace())

	var sb strings.Builder
	p.WriteTree(&sb)
	out := sb.String()
	for _, want := range []string{
		"/search", "db=transactions", "SELECT * FROM sales",
		"augment level=2 strategy=OUTER-BATCH",
		"candidates=12",
		"catalogue getbatch",
		"rank pruned 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}

	var nilSB strings.Builder
	(*Profile)(nil).WriteTree(&nilSB)
	if !strings.Contains(nilSB.String(), "no profile") {
		t.Errorf("nil tree = %q", nilSB.String())
	}
}
