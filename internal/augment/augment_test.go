package augment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/cache"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
	"quepa/internal/validator"
)

var ctx = context.Background()

// polyphony builds the paper's running-example polystore (Fig. 1) and its
// A' index (Fig. 3, abridged).
func polyphony(t *testing.T) (*core.Polystore, *aindex.Index) {
	t.Helper()
	poly := core.NewPolystore()

	rel := relstore.New("transactions")
	for _, sql := range []string{
		`CREATE TABLE inventory (id TEXT PRIMARY KEY, artist TEXT, name TEXT)`,
		`INSERT INTO inventory VALUES ('a32', 'Cure', 'Wish'), ('a33', 'Cure', 'Disintegration')`,
		`CREATE TABLE sales (id TEXT PRIMARY KEY, customer TEXT, total FLOAT)`,
		`INSERT INTO sales VALUES ('s8', 'John Doe', 20.0)`,
	} {
		if _, err := rel.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	doc := docstore.New("catalogue")
	if _, err := doc.Insert("albums", `{"_id": "d1", "title": "Wish", "artist": "The Cure", "year": 1992}`); err != nil {
		t.Fatal(err)
	}
	kv := kvstore.New("discount")
	kv.Set("drop", "k1:cure:wish", "40%")
	graph := graphstore.New("similar-items")
	if err := graph.AddNode("n1", "items", map[string]string{"title": "Wish"}); err != nil {
		t.Fatal(err)
	}
	if err := graph.AddNode("n2", "items", map[string]string{"title": "Disintegration"}); err != nil {
		t.Fatal(err)
	}
	if err := graph.AddEdge("n1", "n2", "SIMILAR"); err != nil {
		t.Fatal(err)
	}

	for _, s := range []core.Store{
		connector.NewRelational(rel),
		connector.NewDocument(doc),
		connector.NewKeyValue(kv),
		connector.NewGraph(graph),
	} {
		if err := poly.Register(s); err != nil {
			t.Fatal(err)
		}
	}

	ix := aindex.New()
	mustInsert := func(r core.PRelation) {
		t.Helper()
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	gk := core.MustParseGlobalKey
	mustInsert(core.NewIdentity(gk("catalogue.albums.d1"), gk("transactions.inventory.a32"), 0.9))
	mustInsert(core.NewIdentity(gk("catalogue.albums.d1"), gk("discount.drop.k1:cure:wish"), 0.8))
	mustInsert(core.NewIdentity(gk("similar-items.items.n1"), gk("transactions.inventory.a32"), 0.85))
	mustInsert(core.NewMatching(gk("transactions.sales.s8"), gk("transactions.inventory.a32"), 0.7))
	return poly, ix
}

// TestRunningExampleSearch reproduces Lucy's query from the introduction:
// the SQL result is augmented with the catalogue document and the discount.
func TestRunningExampleSearch(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Original) != 1 || answer.Original[0].GK.Key != "a32" {
		t.Fatalf("original = %v", answer.Original)
	}
	keys := map[string]float64{}
	for _, ao := range answer.Augmented {
		keys[ao.Object.GK.String()] = ao.Prob
	}
	if keys["catalogue.albums.d1"] != 0.9 {
		t.Errorf("catalogue document: prob = %g, want 0.9", keys["catalogue.albums.d1"])
	}
	if _, ok := keys["discount.drop.k1:cure:wish"]; !ok {
		t.Error("discount entry missing from augmentation")
	}
	if _, ok := keys["similar-items.items.n1"]; !ok {
		t.Error("similar-items node missing from augmentation")
	}
	// The answer is ordered by probability.
	for i := 1; i < len(answer.Augmented); i++ {
		if answer.Augmented[i-1].Prob < answer.Augmented[i].Prob {
			t.Errorf("augmentation not ordered: %v", answer.Augmented)
		}
	}
}

func TestSearchValidatorRejectsAggregates(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{})
	var na *validator.ErrNotAugmentable
	if _, err := aug.Search(ctx, "transactions", `SELECT COUNT(*) FROM inventory`, 0); !errors.As(err, &na) {
		t.Errorf("aggregate search error = %v", err)
	}
	if _, err := aug.Search(ctx, "ghostdb", `SELECT * FROM x`, 0); err == nil {
		t.Error("unknown database should fail")
	}
	if _, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory`, -1); err == nil {
		t.Error("negative level should fail")
	}
}

func TestSearchRewritesProjection(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{})
	answer, err := aug.Search(ctx, "transactions", `SELECT name FROM inventory WHERE name LIKE '%wish%'`, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The validator rewrite makes the id visible in the result fields.
	if v, ok := answer.Original[0].Fields.Get("id"); !ok || v != "a32" {
		t.Errorf("rewritten projection lacks id: %v", answer.Original[0])
	}
}

func TestLevelOneExpandsFurther(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	// Start from the sale s8: level 0 reaches the inventory tuple (matching)
	// plus the members of its identity class (materialized); level 1 also
	// reaches n2 via n1's SIMILAR edge only if such a p-relation exists —
	// it does not, so instead verify set inclusion and probability order.
	q := `SELECT * FROM sales WHERE total > 15`
	a0, err := aug.Search(ctx, "transactions", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := aug.Search(ctx, "transactions", q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Augmented) < len(a0.Augmented) {
		t.Errorf("level 1 (%d) smaller than level 0 (%d)", len(a1.Augmented), len(a0.Augmented))
	}
	at0 := map[core.GlobalKey]bool{}
	for _, ao := range a0.Augmented {
		at0[ao.Object.GK] = true
	}
	for gk := range at0 {
		found := false
		for _, ao := range a1.Augmented {
			if ao.Object.GK == gk {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("level 1 lost %v", gk)
		}
	}
}

// TestStrategiesAgree is the central property of Section IV: every strategy
// with every parameterization computes the same augmented answer.
func TestStrategiesAgree(t *testing.T) {
	poly, ix, queryDB, query := syntheticPolystore(t, 5, 40, 123)
	reference := answerSignature(t, New(poly, ix, Config{Strategy: Sequential}), queryDB, query)

	configs := []Config{
		{Strategy: Batch, BatchSize: 1},
		{Strategy: Batch, BatchSize: 3},
		{Strategy: Batch, BatchSize: 1000},
		{Strategy: Inner, ThreadsSize: 1},
		{Strategy: Inner, ThreadsSize: 7},
		{Strategy: Outer, ThreadsSize: 1},
		{Strategy: Outer, ThreadsSize: 5},
		{Strategy: OuterBatch, BatchSize: 2, ThreadsSize: 3},
		{Strategy: OuterBatch, BatchSize: 50, ThreadsSize: 8},
		{Strategy: OuterInner, ThreadsSize: 2},
		{Strategy: OuterInner, ThreadsSize: 9},
		{Strategy: Sequential, CacheSize: 100}, // warm cache must not change results
	}
	for _, cfg := range configs {
		aug := New(poly, ix, cfg)
		got := answerSignature(t, aug, queryDB, query)
		if got != reference {
			t.Errorf("%v: answer differs from SEQUENTIAL\n got  %s\n want %s", cfg, got, reference)
		}
		// Warm run through the cache agrees too.
		got = answerSignature(t, aug, queryDB, query)
		if got != reference {
			t.Errorf("%v (warm): answer differs\n got  %s\n want %s", cfg, got, reference)
		}
	}
}

// syntheticPolystore builds a polystore of n key-value databases with m keys
// each and a random (but connected enough) A' index, plus a query reaching a
// subset of one database.
func syntheticPolystore(t *testing.T, n, m int, seed int64) (*core.Polystore, *aindex.Index, string, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	poly := core.NewPolystore()
	var allKeys []core.GlobalKey
	for d := 0; d < n; d++ {
		name := fmt.Sprintf("db%d", d)
		kv := kvstore.New(name)
		for k := 0; k < m; k++ {
			key := fmt.Sprintf("k%d", k)
			kv.Set("main", key, fmt.Sprintf("value-%d-%d", d, k))
			allKeys = append(allKeys, core.NewGlobalKey(name, "main", key))
		}
		if err := poly.Register(connector.NewKeyValue(kv)); err != nil {
			t.Fatal(err)
		}
	}
	ix := aindex.New()
	for i := 0; i < n*m; i++ {
		a := allKeys[rng.Intn(len(allKeys))]
		b := allKeys[rng.Intn(len(allKeys))]
		if a == b {
			continue
		}
		typ := core.Matching
		if rng.Intn(4) == 0 {
			typ = core.Identity
		}
		if err := ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.6 + 0.4*rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	return poly, ix, "db0", "KEYS main k1*"
}

func answerSignature(t *testing.T, aug *Augmenter, db, query string) string {
	t.Helper()
	answer, err := aug.Search(ctx, db, query, 1)
	if err != nil {
		t.Fatal(err)
	}
	sig := ""
	for _, ao := range answer.Augmented {
		sig += fmt.Sprintf("%s:%.6f;", ao.Object.GK, ao.Prob)
	}
	return sig
}

func TestLazyDeletionSingleFetch(t *testing.T) {
	poly, ix := polyphony(t)
	disc := core.MustParseGlobalKey("discount.drop.k1:cure:wish")
	if !ix.Contains(disc) {
		t.Fatal("fixture broken: discount not indexed")
	}
	// Remove the discount from the store but not from the index, driving
	// the delete through the engine's command language (the validator blocks
	// writes in augmented mode, but direct native access is always allowed —
	// that is the whole point of a polystore).
	s, err := poly.Database("discount")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, "DEL drop k1:cure:wish"); err != nil {
		t.Fatal(err)
	}

	aug := New(poly, ix, Config{Strategy: Sequential})
	answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ao := range answer.Augmented {
		if ao.Object.GK == disc {
			t.Error("vanished object still in answer")
		}
	}
	if ix.Contains(disc) {
		t.Error("vanished object not lazily removed from index")
	}
}

// TestLazyDeletionBatchFetch drives lazy deletion through the batched
// strategies with one batch group that mixes a key the store dropped with a
// key it still has: the dropped key leaves A' and the object cache, the kept
// key stays in the answer.
func TestLazyDeletionBatchFetch(t *testing.T) {
	gk := core.MustParseGlobalKey
	disc, kept := gk("discount.drop.k1:cure:wish"), gk("discount.drop.k2:cure:wish")
	for _, cfg := range []Config{
		{Strategy: Batch, BatchSize: 10},
		{Strategy: OuterBatch, BatchSize: 10, ThreadsSize: 3},
	} {
		poly, ix := polyphony(t)
		s, err := poly.Database("discount")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query(ctx, "SET drop k2:cure:wish 10%"); err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(core.NewMatching(gk("transactions.inventory.a32"), kept, 0.6)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query(ctx, "DEL drop k1:cure:wish"); err != nil {
			t.Fatal(err)
		}
		cfg.CacheSize = 100
		aug := New(poly, ix, cfg)
		answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, 0)
		if err != nil {
			t.Fatal(err)
		}
		inAnswer := map[core.GlobalKey]bool{}
		for _, ao := range answer.Augmented {
			inAnswer[ao.Object.GK] = true
		}
		if inAnswer[disc] {
			t.Errorf("%v: vanished object still in batched answer", cfg)
		}
		if !inAnswer[kept] {
			t.Errorf("%v: the group's surviving key left the answer", cfg)
		}
		if ix.Contains(disc) {
			t.Errorf("%v: vanished object not lazily removed from index", cfg)
		}
		if !ix.Contains(kept) {
			t.Errorf("%v: surviving key removed from index", cfg)
		}
		if _, ok := aug.cache.Get(disc); ok {
			t.Errorf("%v: vanished object in the object cache", cfg)
		}
		if _, ok := aug.cache.Get(kept); !ok {
			t.Errorf("%v: surviving key not cached", cfg)
		}
	}
}

// strayStore answers every batch with the asked objects plus extra ones:
// an object the query never reached, and one of the query's own results.
type strayStore struct {
	core.Store
	extra []string
}

func (s strayStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	objs, err := s.Store.GetBatch(ctx, collection, append(keys[:len(keys):len(keys)], s.extra...))
	return objs, err
}

// TestBatchDropsUnaskedObjects pins what the augmentation does with objects
// a store returns without being asked: they are not answered. Only keys the
// plan reached through A' have a probability and a distance to rank them by
// (Definition 2); an extra object, or one of the query's own results, has
// neither. The asked keys are answered as usual.
func TestBatchDropsUnaskedObjects(t *testing.T) {
	kv := kvstore.New("kv")
	for _, k := range []string{"o", "a", "b", "stray"} {
		kv.Set("main", k, "v-"+k)
	}
	poly := core.NewPolystore()
	if err := poly.Register(strayStore{Store: connector.NewKeyValue(kv), extra: []string{"stray", "o"}}); err != nil {
		t.Fatal(err)
	}
	gk := func(k string) core.GlobalKey { return core.NewGlobalKey("kv", "main", k) }
	ix := aindex.New()
	for _, r := range []core.PRelation{
		core.NewMatching(gk("o"), gk("a"), 0.9),
		core.NewMatching(gk("o"), gk("b"), 0.8),
	} {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, cfg := range []Config{{Strategy: Batch}, {Strategy: OuterBatch}} {
		answer, err := New(poly, ix, cfg).Search(ctx, "kv", "GET main o", 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ao := range answer.Augmented {
			got = append(got, fmt.Sprintf("%s:%g", ao.Object.GK.Key, ao.Prob))
		}
		if fmt.Sprint(got) != "[a:0.9 b:0.8]" {
			t.Errorf("%v: augmented = %v, want [a:0.9 b:0.8]", cfg, got)
		}
	}
}

func TestCacheServesRepeatQueries(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential, CacheSize: 100})
	q := `SELECT * FROM inventory WHERE name LIKE '%wish%'`
	if _, err := aug.Search(ctx, "transactions", q, 0); err != nil {
		t.Fatal(err)
	}
	hitsBefore := aug.cache.Counts().Hits
	if _, err := aug.Search(ctx, "transactions", q, 0); err != nil {
		t.Fatal(err)
	}
	hitsAfter := aug.cache.Counts().Hits
	if hitsAfter <= hitsBefore {
		t.Errorf("second run produced no cache hits: %d -> %d", hitsBefore, hitsAfter)
	}
	// Cold-cache control: ClearCache forces misses again.
	aug.ClearCache()
	if aug.cache.Len() != 0 {
		t.Error("ClearCache left entries")
	}
}

// TestZeroCacheNeverHits: with CACHE_SIZE 0 no strategy probes, fills or
// empties the object cache (its counters stay at zero, so no probe ran), and
// each answers a level-1 multi-origin search exactly as it does with a
// 16-object cache, cold and warm.
func TestZeroCacheNeverHits(t *testing.T) {
	poly, ix := polyphony(t)
	q := `SELECT * FROM inventory`
	for _, st := range Strategies {
		off := New(poly, ix, Config{Strategy: st, CacheSize: 0})
		on := New(poly, ix, Config{Strategy: st, CacheSize: 16})
		for _, pass := range []string{"cold", "warm"} {
			want, err := on.Search(ctx, "transactions", q, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := off.Search(ctx, "transactions", q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Original) < 2 || len(got.Augmented) == 0 {
				t.Fatalf("%v: %d origins, %d augmented: want a multi-origin augmentation", st, len(got.Original), len(got.Augmented))
			}
			if !sameAnswer(got.Augmented, want.Augmented) {
				t.Errorf("%v %s: augmented %v, want %v as with a cache", st, pass, got.Augmented, want.Augmented)
			}
		}
		if c := off.cache.Counts(); c != (cache.Counts{}) {
			t.Errorf("%v: a disabled cache was probed: %+v", st, c)
		}
		if on.cache.Counts().Hits == 0 {
			t.Errorf("%v: the warm pass never hit the 16-object cache", st)
		}
	}
}

func TestOriginsNotReFetched(t *testing.T) {
	// Objects of the original answer must not appear in the augmentation
	// even when p-relations point between them.
	poly, ix := polyphony(t)
	gk := core.MustParseGlobalKey
	if err := ix.Insert(core.NewMatching(gk("transactions.inventory.a32"), gk("transactions.inventory.a33"), 0.9)); err != nil {
		t.Fatal(err)
	}
	aug := New(poly, ix, Config{Strategy: Sequential})
	answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory`, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ao := range answer.Augmented {
		for _, orig := range answer.Original {
			if ao.Object.GK == orig.GK {
				t.Errorf("original object %v re-appears in augmentation", orig.GK)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: OuterBatch})
	cfg := aug.Config()
	if cfg.BatchSize != DefaultBatchSize || cfg.ThreadsSize != DefaultThreadsSize {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	aug.SetConfig(Config{Strategy: Batch, BatchSize: 5, CacheSize: 10})
	if aug.Config().BatchSize != 5 || aug.cache.Capacity() != 10 {
		t.Errorf("SetConfig not applied: %+v", aug.Config())
	}
}

func TestStrategyStringAndParse(t *testing.T) {
	for _, s := range Strategies {
		parsed, err := ParseStrategy(s.String())
		if err != nil || parsed != s {
			t.Errorf("round trip %v: %v, %v", s, parsed, err)
		}
	}
	if _, err := ParseStrategy("TURBO"); err == nil {
		t.Error("unknown strategy should fail to parse")
	}
	if s, err := ParseStrategy("outer_batch"); err != nil || s != OuterBatch {
		t.Errorf("underscore form: %v, %v", s, err)
	}
	if !OuterBatch.Concurrent() || !OuterBatch.Batched() {
		t.Error("OuterBatch misclassified")
	}
	if Sequential.Concurrent() || Sequential.Batched() {
		t.Error("Sequential misclassified")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy String empty")
	}
}

func TestContextCancellationStopsAugmentation(t *testing.T) {
	poly, ix, db, q := syntheticPolystore(t, 4, 50, 7)
	for _, cfg := range []Config{
		{Strategy: Sequential},
		{Strategy: Batch, BatchSize: 2},
		{Strategy: Inner, ThreadsSize: 3},
		{Strategy: Outer, ThreadsSize: 3},
		{Strategy: OuterBatch, BatchSize: 2, ThreadsSize: 3},
		{Strategy: OuterInner, ThreadsSize: 4},
	} {
		aug := New(poly, ix, cfg)
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := aug.Search(cctx, db, q, 1); err == nil {
			t.Errorf("%v: cancelled search succeeded", cfg)
		}
	}
}

func TestEmptyResultAugmentsToNothing(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: OuterBatch})
	answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name = 'nothing'`, 3)
	if err != nil {
		t.Fatal(err)
	}
	if answer.Size() != 0 {
		t.Errorf("empty query augmented to %d objects", answer.Size())
	}
}

func TestObjectWithoutRelations(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	// a33 has no p-relations: its augmentation is empty.
	answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE id = 'a33'`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Original) != 1 || len(answer.Augmented) != 0 {
		t.Errorf("answer = %d original, %d augmented", len(answer.Original), len(answer.Augmented))
	}
}

func TestAnswerRank(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Augmented) < 3 {
		t.Fatalf("fixture too small: %d augmented", len(answer.Augmented))
	}
	// Threshold keeps only the strong relations.
	strong := answer.Rank(0.85, 0)
	for _, ao := range strong {
		if ao.Prob < 0.85 {
			t.Errorf("Rank kept %v below threshold", ao.Prob)
		}
	}
	if len(strong) >= len(answer.Augmented) {
		t.Error("threshold filtered nothing on a mixed-probability answer")
	}
	// Top-k truncates.
	if got := answer.Rank(0, 2); len(got) != 2 {
		t.Errorf("Rank top-2 = %d elements", len(got))
	}
	if got := answer.Rank(0, 0); len(got) != len(answer.Augmented) {
		t.Errorf("Rank without limits changed the answer: %d vs %d", len(got), len(answer.Augmented))
	}
	// The receiver is untouched.
	before := len(answer.Augmented)
	answer.Rank(0.99, 1)
	if len(answer.Augmented) != before {
		t.Error("Rank mutated the answer")
	}
}
