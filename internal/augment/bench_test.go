package augment

import (
	"fmt"
	"testing"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
	"quepa/internal/telemetry"
)

// Benchmarks of the six strategies over an in-process polystore (no network
// simulation): this isolates the orchestration overhead of each augmenter —
// goroutine fan-out, batching bookkeeping, cache traffic — from the
// round-trip costs the paper's figures measure.

func benchConfigs() []Config {
	return []Config{
		{Strategy: Sequential},
		{Strategy: Batch, BatchSize: 64},
		{Strategy: Inner, ThreadsSize: 4},
		{Strategy: Outer, ThreadsSize: 4},
		{Strategy: OuterBatch, BatchSize: 64, ThreadsSize: 4},
		{Strategy: OuterInner, ThreadsSize: 4},
	}
}

func BenchmarkStrategiesOverhead(b *testing.B) {
	poly, ix, db, query := syntheticPolystoreB(b, 6, 200, 11)
	for _, cfg := range benchConfigs() {
		b.Run(cfg.Strategy.String(), func(b *testing.B) {
			aug := New(poly, ix, cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aug.Search(ctx, db, query, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSearchWithCache(b *testing.B) {
	poly, ix, db, query := syntheticPolystoreB(b, 6, 200, 12)
	aug := New(poly, ix, Config{Strategy: OuterBatch, BatchSize: 64, ThreadsSize: 4, CacheSize: 100000})
	if _, err := aug.Search(ctx, db, query, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aug.Search(ctx, db, query, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOverhead measures the cost of the telemetry layer on the
// OUTER-BATCH augment hot path by flipping the global kill switch: the
// "instrumented" and "uninstrumented" runs execute the identical search, so
// their delta is exactly what the counters, histograms and spans cost. The
// budget documented in DESIGN.md is <1%; compare with
//
//	go test ./internal/augment -bench TelemetryOverhead -count 10 | benchstat
func BenchmarkTelemetryOverhead(b *testing.B) {
	poly, ix, db, query := syntheticPolystoreB(b, 6, 200, 13)
	for _, mode := range []struct {
		name string
		on   bool
	}{
		{"instrumented", true},
		{"uninstrumented", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			prev := telemetry.SetEnabled(mode.on)
			defer telemetry.SetEnabled(prev)
			aug := New(poly, ix, Config{Strategy: OuterBatch, BatchSize: 64, ThreadsSize: 4})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := aug.Search(ctx, db, query, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead measures what span creation itself costs on the hot
// path. Telemetry is ON in both modes; the only difference is whether the
// search runs inside a root span. Untraced callers skip span construction
// entirely (the wire/augment layers gate on SpanFromContext), so the delta
// is the full per-request price of distributed tracing at the default tail
// sampling rate. CI guards this with a +30% / 2ms ceiling; compare locally
// with
//
//	go test ./internal/augment -bench TraceOverhead -count 10 | benchstat
func BenchmarkTraceOverhead(b *testing.B) {
	poly, ix, db, query := syntheticPolystoreB(b, 6, 200, 13)
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	tracer := telemetry.DefaultTracer()
	prevSlow := tracer.SlowThreshold()
	prevRate := tracer.SampleRate()
	// Nothing here counts as "slow": the traced run pays span construction
	// and the probabilistic tail-sampling decision, not bulk retention.
	tracer.SetSlowThreshold(time.Hour)
	tracer.SetSampleRate(telemetry.DefaultSampleRate)
	defer func() {
		tracer.SetSlowThreshold(prevSlow)
		tracer.SetSampleRate(prevRate)
		tracer.Reset()
	}()

	for _, mode := range []struct {
		name   string
		traced bool
	}{
		{"untraced", false},
		{"traced", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			aug := New(poly, ix, Config{Strategy: OuterBatch, BatchSize: 64, ThreadsSize: 4})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := ctx
				var sp *telemetry.Span
				if mode.traced {
					c, sp = telemetry.StartSpan(ctx, "bench request")
				}
				if _, err := aug.Search(c, db, query, 1); err != nil {
					b.Fatal(err)
				}
				sp.End()
			}
		})
	}
}

// BenchmarkSearchRange50 is the augmentation of a range selection, shaped
// like the ledger's range_cold: each search selects 50 origins by seq from a
// relational table and augments them at level 2 under OUTER-BATCH, reaching
// four keys per origin, one in each kind of store: a document, a graph node,
// a key-value entry and a row of a second table. Successive searches walk
// eight disjoint ranges, 1,600 reachable keys in all, with no object cache,
// as the server runs, so every search fetches all of its keys. Its B/op and
// allocs/op are the per-request working set of the origins' query, plan
// building, fetching from every engine and ranking.
func BenchmarkSearchRange50(b *testing.B) {
	const ranges, width = 8, 50
	rel, doc, graph, kv := relstore.New("orig"), docstore.New("doc"), graphstore.New("graph"), kvstore.New("kv")
	for _, ddl := range []string{
		`CREATE TABLE items (id TEXT PRIMARY KEY, seq INT, title TEXT, artist TEXT, price FLOAT)`,
		`CREATE INDEX ON items (seq)`,
		`CREATE TABLE extra (id TEXT PRIMARY KEY, note TEXT, qty INT)`,
	} {
		if _, err := rel.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	ix := aindex.New()
	for i := 0; i < ranges*width; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, err := rel.Exec(fmt.Sprintf(`INSERT INTO items VALUES ('%s', %d, 'title %d', 'artist %d', %d.5)`, k, i, i, i%37, i%50)); err != nil {
			b.Fatal(err)
		}
		if _, err := rel.Exec(fmt.Sprintf(`INSERT INTO extra VALUES ('%s', 'note %d', %d)`, k, i, i%9)); err != nil {
			b.Fatal(err)
		}
		if _, err := doc.Insert("albums", fmt.Sprintf(`{"_id": %q, "title": "title %d", "year": %d, "label": {"name": "label %d"}}`, k, i, 1980+i%40, i%11)); err != nil {
			b.Fatal(err)
		}
		if err := graph.AddNode(k, "items", map[string]string{"title": fmt.Sprintf("title %d", i), "seq": fmt.Sprint(i), "genre": "rock"}); err != nil {
			b.Fatal(err)
		}
		kv.Set("drop", k, fmt.Sprintf("%d%%", i%60))
		// items -> albums -> graph -> kv is three hops (level 2), plus a
		// direct items -> extra edge: one island per origin, as in
		// range_cold, whose origins reach few keys in common.
		origin := core.NewGlobalKey("orig", "items", k)
		album, node := core.NewGlobalKey("doc", "albums", k), core.NewGlobalKey("graph", "items", k)
		for _, r := range []core.PRelation{
			core.NewMatching(origin, album, 0.9),
			core.NewMatching(album, node, 0.8),
			core.NewMatching(node, core.NewGlobalKey("kv", "drop", k), 0.7),
			core.NewMatching(origin, core.NewGlobalKey("orig", "extra", k), 0.6),
		} {
			if err := ix.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	poly := core.NewPolystore()
	for _, s := range []core.Store{connector.NewRelational(rel), connector.NewDocument(doc), connector.NewGraph(graph), connector.NewKeyValue(kv)} {
		if err := poly.Register(s); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]string, ranges)
	for r := range queries {
		queries[r] = fmt.Sprintf("SELECT * FROM items WHERE seq >= %d AND seq < %d", r*width, (r+1)*width)
	}
	aug := New(poly, ix, Config{Strategy: OuterBatch, BatchSize: 64, ThreadsSize: 4})
	answer, err := aug.Search(ctx, "orig", queries[0], 2)
	if err != nil || len(answer.Original) != width || len(answer.Augmented) != 4*width {
		b.Fatalf("fixture: %d origins, %d augmented, %v", len(answer.Original), len(answer.Augmented), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aug.Search(ctx, "orig", queries[i%ranges], 2); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticPolystoreB mirrors the test fixture for benchmarks.
func syntheticPolystoreB(b *testing.B, n, m int, seed int64) (*core.Polystore, *aindex.Index, string, string) {
	b.Helper()
	t := &testing.T{}
	poly, ix, db, query := syntheticPolystore(t, n, m, seed)
	if t.Failed() {
		b.Fatal("fixture construction failed")
	}
	return poly, ix, db, query
}
