package augment

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
)

// faultyStore wraps a set of objects and fails Get/GetBatch after a given
// number of successful calls — simulating a store that degrades mid-query.
type faultyStore struct {
	name      string
	objects   map[string]core.Object // key -> object (single collection "c")
	failAfter int64
	calls     atomic.Int64
}

var errStoreDown = errors.New("store down")

func newFaultyStore(name string, keys int, failAfter int64) *faultyStore {
	f := &faultyStore{name: name, objects: map[string]core.Object{}, failAfter: failAfter}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		f.objects[k] = core.NewObject(core.NewGlobalKey(name, "c", k), map[string]string{"v": k})
	}
	return f
}

func (f *faultyStore) Name() string          { return f.name }
func (f *faultyStore) Kind() core.StoreKind  { return core.KindKeyValue }
func (f *faultyStore) Collections() []string { return []string{"c"} }

func (f *faultyStore) fail() bool {
	return f.calls.Add(1) > f.failAfter
}

func (f *faultyStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if err := ctx.Err(); err != nil {
		return core.Object{}, err
	}
	if f.fail() {
		return core.Object{}, errStoreDown
	}
	o, ok := f.objects[key]
	if !ok {
		return core.Object{}, core.ErrNotFound
	}
	return o, nil
}

func (f *faultyStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.fail() {
		return nil, errStoreDown
	}
	var out []core.Object
	for _, k := range keys {
		if o, ok := f.objects[k]; ok {
			out = append(out, o)
		}
	}
	return out, nil
}

func (f *faultyStore) Query(ctx context.Context, q string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The local query itself always works: failures hit the fetch phase.
	var out []core.Object
	for i := 0; i < 3; i++ {
		out = append(out, f.objects[fmt.Sprintf("k%d", i)])
	}
	return out, nil
}

// faultyFixture: two stores, the remote one failing after `failAfter`
// fetches; every queried object links to several remote ones.
func faultyFixture(t *testing.T, failAfter int64) (*core.Polystore, *aindex.Index) {
	t.Helper()
	poly := core.NewPolystore()
	local := newFaultyStore("local", 3, 1<<40) // never fails
	remote := newFaultyStore("remote", 40, failAfter)
	if err := poly.Register(local); err != nil {
		t.Fatal(err)
	}
	if err := poly.Register(remote); err != nil {
		t.Fatal(err)
	}
	ix := aindex.New()
	for i := 0; i < 3; i++ {
		src := core.NewGlobalKey("local", "c", fmt.Sprintf("k%d", i))
		for j := 0; j < 8; j++ {
			dst := core.NewGlobalKey("remote", "c", fmt.Sprintf("k%d", i*8+j))
			if err := ix.Insert(core.NewMatching(src, dst, 0.7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return poly, ix
}

func assertProbOrdered(t *testing.T, aug []AugmentedObject) {
	t.Helper()
	ordered := sort.SliceIsSorted(aug, func(i, j int) bool {
		if aug[i].Prob != aug[j].Prob {
			return aug[i].Prob > aug[j].Prob
		}
		return aug[i].Object.GK.Compare(aug[j].Object.GK) < 0
	})
	if !ordered {
		t.Error("augmented answer lost its probability ordering")
	}
}

// TestAllStrategiesDegradeFaultyStore: a mid-flight store failure yields a
// partial answer — not an error — for every execution strategy: the healthy
// results survive, the failing store lands in the degraded section, and the
// ordering invariant holds.
func TestAllStrategiesDegradeFaultyStore(t *testing.T) {
	for _, cfg := range []Config{
		{Strategy: Sequential},
		{Strategy: Batch, BatchSize: 4},
		{Strategy: Inner, ThreadsSize: 3},
		{Strategy: Outer, ThreadsSize: 3},
		{Strategy: OuterBatch, BatchSize: 4, ThreadsSize: 3},
		{Strategy: OuterInner, ThreadsSize: 4},
	} {
		poly, ix := faultyFixture(t, 2) // fail from the third fetch on
		aug := New(poly, ix, cfg)
		answer, err := aug.Search(ctx, "local", "SCAN c", 0)
		if err != nil {
			t.Errorf("%v: store fault aborted the search: %v", cfg, err)
			continue
		}
		if len(answer.Original) != 3 {
			t.Errorf("%v: original results lost: %d", cfg, len(answer.Original))
		}
		if len(answer.Augmented) >= 24 {
			t.Errorf("%v: failing store contributed a full answer (%d objects)", cfg, len(answer.Augmented))
		}
		if len(answer.Degraded) != 1 {
			t.Errorf("%v: degraded = %v, want exactly the remote store", cfg, answer.Degraded)
			continue
		}
		d := answer.Degraded[0]
		if d.Store != "remote" || d.Reason != errStoreDown.Error() || d.Level != 1 {
			t.Errorf("%v: degradation = %+v", cfg, d)
		}
		assertProbOrdered(t, answer.Augmented)
	}
}

// TestDegradedStoreNotHammered: once a store drops out, its remaining keys
// are skipped rather than each burning a doomed round trip.
func TestDegradedStoreNotHammered(t *testing.T) {
	poly, ix := faultyFixture(t, 0) // every fetch fails
	aug := New(poly, ix, Config{Strategy: Sequential})
	answer, err := aug.Search(ctx, "local", "SCAN c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Augmented) != 0 || len(answer.Degraded) != 1 {
		t.Fatalf("answer = %d augmented, degraded %v", len(answer.Augmented), answer.Degraded)
	}
	s, _ := poly.Database("remote")
	if calls := s.(*faultyStore).calls.Load(); calls != 1 {
		t.Errorf("degraded store was called %d times, want 1", calls)
	}
}

// TestHealthyRunAfterFault: the augmenter holds no poisoned state — the same
// instance returns a full answer once the store recovers.
func TestHealthyRunAfterFault(t *testing.T) {
	poly, ix := faultyFixture(t, 2)
	aug := New(poly, ix, Config{Strategy: OuterBatch, BatchSize: 4, ThreadsSize: 3})
	answer, err := aug.Search(ctx, "local", "SCAN c", 0)
	if err != nil {
		t.Fatalf("faulty run aborted: %v", err)
	}
	if len(answer.Degraded) == 0 {
		t.Fatal("faulty run was not marked partial")
	}
	// "Repair" the store by raising its failure threshold.
	s, err := poly.Database("remote")
	if err != nil {
		t.Fatal(err)
	}
	s.(*faultyStore).failAfter = 1 << 40
	answer, err = aug.Search(ctx, "local", "SCAN c", 0)
	if err != nil {
		t.Fatalf("recovered store still failing: %v", err)
	}
	if len(answer.Augmented) != 24 {
		t.Errorf("recovered answer = %d objects, want 24", len(answer.Augmented))
	}
	if len(answer.Degraded) > 0 {
		t.Errorf("recovered answer still degraded: %v", answer.Degraded)
	}
}

// TestFaultsDoNotCorruptIndex: fetch errors (unlike not-found results) must
// not trigger lazy deletion, even as they degrade instead of abort.
func TestFaultsDoNotCorruptIndex(t *testing.T) {
	poly, ix := faultyFixture(t, 0) // every fetch fails
	edgesBefore := ix.EdgeCount()
	aug := New(poly, ix, Config{Strategy: Sequential})
	answer, err := aug.Search(ctx, "local", "SCAN c", 0)
	if err != nil {
		t.Fatalf("faulty run aborted: %v", err)
	}
	if len(answer.Degraded) == 0 {
		t.Fatal("faulty run was not marked partial")
	}
	if ix.EdgeCount() != edgesBefore {
		t.Errorf("store errors mutated the index: %d -> %d edges", edgesBefore, ix.EdgeCount())
	}
}

// TestFaultCancellationStillAborts: degradation is for store failures only —
// a dead caller context must abort the augmentation, not produce a bogus
// partial answer.
func TestFaultCancellationStillAborts(t *testing.T) {
	poly, ix := faultyFixture(t, 1<<40)
	aug := New(poly, ix, Config{Strategy: Sequential})
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aug.Search(cctx, "local", "SCAN c", 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search = %v, want context.Canceled", err)
	}
}

// TestFaultAtDistanceTwoKeepsNearerResults pins the partial-result contract
// across levels: with a chain local → mid → far and the far store down, a
// deeper search still returns the mid store's objects in unchanged
// probability order, plus one degraded entry naming the far store and the
// hop distance at which it failed.
func TestFaultAtDistanceTwoKeepsNearerResults(t *testing.T) {
	poly := core.NewPolystore()
	local := newFaultyStore("local", 3, 1<<40)
	mid := newFaultyStore("mid", 6, 1<<40)
	far := newFaultyStore("far", 6, 0) // always down
	for _, s := range []core.Store{local, mid, far} {
		if err := poly.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	ix := aindex.New()
	insert := func(src, dst core.GlobalKey, p float64) {
		t.Helper()
		if err := ix.Insert(core.NewMatching(src, dst, p)); err != nil {
			t.Fatal(err)
		}
	}
	// Each local.ki links to two mid objects at distinct probabilities; each
	// mid.ki chains on to one far object (reached at hop distance 2).
	for i := 0; i < 3; i++ {
		lk := core.NewGlobalKey("local", "c", fmt.Sprintf("k%d", i))
		m0 := core.NewGlobalKey("mid", "c", fmt.Sprintf("k%d", 2*i))
		m1 := core.NewGlobalKey("mid", "c", fmt.Sprintf("k%d", 2*i+1))
		insert(lk, m0, 0.9)
		insert(lk, m1, 0.5)
		insert(m0, core.NewGlobalKey("far", "c", fmt.Sprintf("k%d", 2*i)), 0.8)
	}

	for _, cfg := range []Config{
		{Strategy: Sequential},
		{Strategy: Batch, BatchSize: 4},
		{Strategy: OuterInner, ThreadsSize: 4},
	} {
		aug := New(poly, ix, cfg)
		answer, err := aug.Search(ctx, "local", "SCAN c", 1) // reach hop distance 2
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		// All six mid objects survive the far store's death.
		var midObjs []AugmentedObject
		for _, ao := range answer.Augmented {
			if ao.Object.GK.Database == "mid" {
				midObjs = append(midObjs, ao)
			}
			if ao.Object.GK.Database == "far" {
				t.Errorf("%v: dead store contributed %v", cfg, ao.Object.GK)
			}
		}
		if len(midObjs) != 6 {
			t.Errorf("%v: healthy mid results = %d, want 6", cfg, len(midObjs))
		}
		// Survivors keep their probability ordering: the three 0.9 links
		// come before the three 0.5 links.
		assertProbOrdered(t, answer.Augmented)
		for i, ao := range midObjs {
			want := 0.9
			if i >= 3 {
				want = 0.5
			}
			if ao.Prob != want {
				t.Errorf("%v: survivor %d prob = %v, want %v", cfg, i, ao.Prob, want)
			}
		}
		if len(answer.Degraded) != 1 {
			t.Fatalf("%v: degraded = %v, want one entry", cfg, answer.Degraded)
		}
		d := answer.Degraded[0]
		if d.Store != "far" || d.Level != 2 {
			t.Errorf("%v: degradation = %+v, want far at distance 2", cfg, d)
		}
	}
}
