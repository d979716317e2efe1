package augment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"quepa/internal/aindex"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/kvstore"
)

// TestMultipleInstancesInParallel models the paper's multi-instance
// deployment (Section III-A: "it is easy to deploy multiple instances of
// the system that can answer independent queries in parallel; each instance
// has its own A' index replica and its own augmenter"): several augmenters
// over the same polystore answer concurrent queries correctly.
func TestMultipleInstancesInParallel(t *testing.T) {
	poly, ix, db, query := syntheticPolystore(t, 4, 60, 99)
	want := answerSignature(t, New(poly, ix, Config{Strategy: Sequential}), db, query)

	const instances = 6
	var wg sync.WaitGroup
	errs := make(chan string, instances*4)
	for i := 0; i < instances; i++ {
		cfg := Config{
			Strategy:    Strategies[i%len(Strategies)],
			BatchSize:   8,
			ThreadsSize: 3,
			CacheSize:   64,
		}
		wg.Add(1)
		go func(cfg Config) {
			defer wg.Done()
			aug := New(poly, ix, cfg)
			for rep := 0; rep < 4; rep++ {
				answer, err := aug.Search(ctx, db, query, 1)
				if err != nil {
					errs <- fmt.Sprintf("%v: %v", cfg, err)
					return
				}
				got := ""
				for _, ao := range answer.Augmented {
					got += fmt.Sprintf("%s:%.6f;", ao.Object.GK, ao.Prob)
				}
				if got != want {
					errs <- fmt.Sprintf("%v rep %d: answer diverged", cfg, rep)
					return
				}
			}
		}(cfg)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSetConfigDuringSearch pins down the optimizer/request interleaving of
// the server: the adaptive optimizer swaps configurations (SetConfig) while
// request goroutines are mid-Search on the SAME augmenter. Run under -race
// this catches unsynchronized cfg access; functionally, every answer must
// still match the sequential reference because each query snapshots one
// coherent configuration at entry and all strategies agree.
func TestSetConfigDuringSearch(t *testing.T) {
	poly, ix, db, query := syntheticPolystore(t, 4, 60, 7)
	want := answerSignature(t, New(poly, ix, Config{Strategy: Sequential}), db, query)
	aug := New(poly, ix, Config{Strategy: Sequential, CacheSize: 64})

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			aug.SetConfig(Config{
				Strategy:    Strategies[i%len(Strategies)],
				BatchSize:   1 + i%16,
				ThreadsSize: 1 + i%8,
				CacheSize:   64 + i%32,
			})
		}
	}()

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 25; rep++ {
				answer, err := aug.Search(ctx, db, query, 1)
				if err != nil {
					errs <- err.Error()
					return
				}
				got := ""
				for _, ao := range answer.Augmented {
					got += fmt.Sprintf("%s:%.6f;", ao.Object.GK, ao.Prob)
				}
				if got != want {
					errs <- "answer diverged under concurrent SetConfig"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestStrategiesAgreeQuick drives the strategy-equivalence property over
// random polystores (testing/quick generates the seeds).
func TestStrategiesAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		poly, ix, db, query := syntheticPolystore(t, 3, 25, seed)
		want := answerSignature(t, New(poly, ix, Config{Strategy: Sequential}), db, query)
		for _, s := range Strategies[1:] {
			aug := New(poly, ix, Config{Strategy: s, BatchSize: 4, ThreadsSize: 3})
			if answerSignature(t, aug, db, query) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestThreadsExceedWork: worker pools larger than the work must not hang or
// mis-compute.
func TestThreadsExceedWork(t *testing.T) {
	poly, ix := polyphony(t)
	for _, s := range []Strategy{Inner, Outer, OuterBatch, OuterInner} {
		aug := New(poly, ix, Config{Strategy: s, ThreadsSize: 64, BatchSize: 1000})
		answer, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE name LIKE '%wish%'`, 0)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(answer.Augmented) == 0 {
			t.Errorf("%v: empty augmentation", s)
		}
	}
}

// TestBatchSizeOne degenerates batching to per-key queries and must still
// agree with the reference.
func TestBatchSizeOne(t *testing.T) {
	poly, ix, db, query := syntheticPolystore(t, 3, 30, 5)
	want := answerSignature(t, New(poly, ix, Config{Strategy: Sequential}), db, query)
	got := answerSignature(t, New(poly, ix, Config{Strategy: Batch, BatchSize: 1}), db, query)
	if got != want {
		t.Error("BATCH_SIZE=1 diverged from sequential")
	}
}

// TestSharedCacheAcrossQueries: one augmenter reused for different queries
// keeps returning correct (not stale-mixed) answers.
func TestSharedCacheAcrossQueries(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential, CacheSize: 100})
	q1 := `SELECT * FROM inventory WHERE name LIKE '%wish%'`
	q2 := `SELECT * FROM sales WHERE total > 15`
	a1, err := aug.Search(ctx, "transactions", q1, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := aug.Search(ctx, "transactions", q2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The two answers have different originals and their augmentations are
	// rooted at different objects.
	if a1.Original[0].GK == a2.Original[0].GK {
		t.Fatal("fixture broken")
	}
	for _, ao := range a2.Augmented {
		if ao.Object.GK == a2.Original[0].GK {
			t.Error("origin leaked into augmentation after cache reuse")
		}
	}
	// Re-running q1 warm matches the cold answer.
	a1b, err := aug.Search(ctx, "transactions", q1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1b.Augmented) != len(a1.Augmented) {
		t.Errorf("warm re-run changed the answer: %d vs %d", len(a1b.Augmented), len(a1.Augmented))
	}
	for i := range a1.Augmented {
		if !a1.Augmented[i].Object.Equal(a1b.Augmented[i].Object) {
			t.Errorf("warm object %d differs", i)
		}
	}
}

// TestAnswerOrderingInvariant: for every strategy, the augmented answer is
// sorted by probability with deterministic key tie-breaks.
func TestAnswerOrderingInvariant(t *testing.T) {
	poly, ix, db, query := syntheticPolystore(t, 4, 50, 21)
	for _, s := range Strategies {
		aug := New(poly, ix, Config{Strategy: s, BatchSize: 8, ThreadsSize: 4})
		answer, err := aug.Search(ctx, db, query, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(answer.Augmented); i++ {
			prev, cur := answer.Augmented[i-1], answer.Augmented[i]
			if prev.Prob < cur.Prob {
				t.Fatalf("%v: probabilities out of order at %d", s, i)
			}
			if prev.Prob == cur.Prob && prev.Object.GK.Compare(cur.Object.GK) >= 0 {
				t.Fatalf("%v: tie not broken by key at %d", s, i)
			}
		}
	}
}

// TestAugmentObjectsDirect exercises the operator without a query: α applied
// to explicit objects (the paper's Definition 2 applied programmatically).
func TestAugmentObjectsDirect(t *testing.T) {
	poly, ix := polyphony(t)
	aug := New(poly, ix, Config{Strategy: Sequential})
	origin, err := poly.Fetch(ctx, core.MustParseGlobalKey("catalogue.albums.d1"))
	if err != nil {
		t.Fatal(err)
	}
	out, degraded, err := aug.AugmentObjects(ctx, []core.Object{origin}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty augmentation of a linked object")
	}
	if degraded != nil {
		t.Errorf("healthy run degraded: %v", degraded)
	}
	// Empty input is fine.
	out, degraded, err = aug.AugmentObjects(ctx, nil, 3)
	if err != nil || out != nil || degraded != nil {
		t.Errorf("nil input: %v, %v, %v", out, degraded, err)
	}
}

// downStore is a store whose fetches all fail.
type downStore struct{ core.Store }

func (downStore) Get(context.Context, string, string) (core.Object, error) {
	return core.Object{}, errStoreDown
}

func (downStore) GetBatch(context.Context, string, []string) ([]core.Object, error) {
	return nil, errStoreDown
}

// cancelKey carries, in a request's context, the cancel func cancelStore
// calls on its first fetch: the request dies mid-fetch.
type cancelKey struct{}

type cancelStore struct{ core.Store }

func (s cancelStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if cancel, ok := ctx.Value(cancelKey{}).(context.CancelFunc); ok {
		cancel()
	}
	return s.Store.Get(ctx, collection, key)
}

func (s cancelStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if cancel, ok := ctx.Value(cancelKey{}).(context.CancelFunc); ok {
		cancel()
	}
	return s.Store.GetBatch(ctx, collection, keys)
}

// TestPooledSinksDoNotBleed runs concurrent augmentations through the
// pooled sinks, every strategy at once, with a store that always fails and
// requests cancelled in the middle of a fetch mixed in. Each completed answer
// must equal the map-based reference (plan_test.go), which holds no pooled
// state: a slot, flag, rank or degradation left over from another request
// would show as a wrong object, probability or degraded store. Run under
// -race it also checks that a sink goes back to the pool only after every
// worker has let go of it.
func TestPooledSinksDoNotBleed(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	poly := core.NewPolystore()
	var keys [3][]core.GlobalKey
	for d := range keys {
		name := fmt.Sprintf("db%d", d)
		kv := kvstore.New(name)
		for k := 0; k < 30; k++ {
			kv.Set("main", fmt.Sprintf("k%d", k), fmt.Sprintf("v%d-%d", d, k))
			keys[d] = append(keys[d], core.NewGlobalKey(name, "main", fmt.Sprintf("k%d", k)))
		}
		var s core.Store = connector.NewKeyValue(kv)
		switch d {
		case 1:
			s = cancelStore{s}
		case 2:
			s = downStore{s}
		}
		if err := poly.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	// db0 and db1 are densely linked; a few edges lead into the failing
	// db2, so some answers degrade and the others do not.
	ix := aindex.New()
	healthy := append(slices.Clone(keys[0]), keys[1]...)
	for i := 0; i < 70; i++ {
		a, b := healthy[rng.Intn(len(healthy))], healthy[rng.Intn(len(healthy))]
		if i < 6 {
			b = keys[2][rng.Intn(len(keys[2]))]
		}
		if a == b {
			continue
		}
		prob := 1.0
		if rng.Intn(2) == 0 {
			prob = 0.5
		}
		if err := ix.Insert(core.NewMatching(a, b, prob)); err != nil {
			t.Fatal(err)
		}
	}

	type request struct {
		origins []core.Object
		level   int
		cancel  bool
		want    []AugmentedObject
		down    bool // the reference reaches a key of the failing store
	}
	reqs := make([]request, 64)
	for i := range reqs {
		r := &reqs[i]
		r.origins = make([]core.Object, 1+rng.Intn(6))
		for j := range r.origins {
			r.origins[j] = core.Object{GK: healthy[rng.Intn(len(healthy))]}
		}
		r.level, r.cancel = rng.Intn(3), rng.Intn(4) == 0
		ref := refBuildPlan(ix, r.origins, r.level)
		objects := map[core.GlobalKey]core.Object{}
		for _, gk := range ref.order {
			if gk.Database == "db2" {
				r.down = true
				continue
			}
			obj, err := poly.Fetch(ctx, gk)
			if err != nil {
				t.Fatal(err)
			}
			objects[gk] = obj
		}
		r.want = ref.answer(objects)
	}

	augs := make([]*Augmenter, len(Strategies))
	for i, st := range Strategies {
		augs[i] = New(poly, ix, Config{Strategy: st, BatchSize: 3, ThreadsSize: 4})
	}
	down := 0
	for _, r := range reqs {
		if r.down {
			down++
		}
	}
	var cancelled, answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(reqs); i++ {
				r := reqs[(w*7+i)%len(reqs)]
				aug := augs[(w+i)%len(augs)]
				rctx, cancel := context.WithCancel(ctx)
				if r.cancel {
					rctx = context.WithValue(rctx, cancelKey{}, cancel)
				}
				got, degraded, err := aug.AugmentObjects(rctx, r.origins, r.level)
				cancel()
				switch {
				case errors.Is(err, context.Canceled) && r.cancel:
					cancelled.Add(1)
				case err != nil:
					t.Errorf("%v: %v", aug.Config(), err)
				case !sameAnswer(got, r.want):
					t.Errorf("%v origins %v level %d: answer differs from the reference\n got  %v\n want %v",
						aug.Config(), r.origins, r.level, got, r.want)
				case r.down != (len(degraded) == 1 && degraded[0].Store == "db2"), len(degraded) > 1:
					t.Errorf("%v origins %v level %d: degraded %v, reference reaches the failing store: %v",
						aug.Config(), r.origins, r.level, degraded, r.down)
				default:
					answered.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d answers checked, %d requests cancelled mid-fetch; %d of %d requests reach the failing store",
		answered.Load(), cancelled.Load(), down, len(reqs))
	if cancelled.Load() == 0 || answered.Load() == 0 || down < len(reqs)/8 || down > len(reqs)*7/8 {
		t.Fatal("the mix missed a case")
	}
}

// TestConcurrentRangeSearchesMatchFresh runs multi-origin searches from
// several goroutines through one augmenter; each answer must equal the one a
// fresh augmenter gave for the same query alone. Every search appends its
// reaches into its pooled sink's hit buffer, so under -race this also checks
// that no buffer is shared between two requests.
func TestConcurrentRangeSearchesMatchFresh(t *testing.T) {
	poly, ix, db, _ := syntheticPolystore(t, 5, 40, 4801)
	queries := make([]string, 8)
	want := make([]string, len(queries))
	for i := range queries {
		queries[i] = fmt.Sprintf("KEYS main k%d*", i+1)
		want[i] = answerSignature(t, New(poly, ix, Config{Strategy: OuterBatch}), db, queries[i])
		if want[i] == "" {
			t.Fatalf("fixture: %s augments to nothing", queries[i])
		}
	}
	aug := New(poly, ix, Config{Strategy: OuterBatch, BatchSize: 8, ThreadsSize: 4})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(queries); i++ {
				q := (w*3 + i) % len(queries)
				answer, err := aug.Search(ctx, db, queries[q], 1)
				if err != nil {
					t.Error(err)
					return
				}
				got := ""
				for _, ao := range answer.Augmented {
					got += fmt.Sprintf("%s:%.6f;", ao.Object.GK, ao.Prob)
				}
				if got != want[q] {
					t.Errorf("worker %d, %s: answer differs from a fresh augmenter's\n got  %s\n want %s", w, queries[q], got, want[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
