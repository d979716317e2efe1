package augment

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quepa/internal/core"
)

// traffic counts the fetch traffic of every store of a polystore: Get and
// GetBatch calls, the calls in flight and their peak, and how many times
// each global key was asked for.
type traffic struct {
	gets, batches  atomic.Int64
	inFlight, peak atomic.Int64
	delay          time.Duration // held inside every call, to let calls overlap

	mu           sync.Mutex
	asked        map[core.GlobalKey]int
	groupBatches map[[2]string]int64 // GetBatch calls per (database, collection)
}

func (tr *traffic) enter(database, collection string, keys ...string) {
	n := tr.inFlight.Add(1)
	for p := tr.peak.Load(); n > p && !tr.peak.CompareAndSwap(p, n); p = tr.peak.Load() {
	}
	tr.mu.Lock()
	for _, k := range keys {
		tr.asked[core.NewGlobalKey(database, collection, k)]++
	}
	tr.mu.Unlock()
	time.Sleep(tr.delay)
}

func (tr *traffic) leave() { tr.inFlight.Add(-1) }

// askedFor returns how many times gk was asked for.
func (tr *traffic) askedFor(gk core.GlobalKey) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.asked[gk]
}

// reset zeroes every count.
func (tr *traffic) reset() {
	tr.gets.Store(0)
	tr.batches.Store(0)
	tr.peak.Store(0)
	tr.mu.Lock()
	tr.asked = map[core.GlobalKey]int{}
	tr.groupBatches = map[[2]string]int64{}
	tr.mu.Unlock()
}

// countingStore feeds one store's fetches into a shared traffic count.
type countingStore struct {
	core.Store
	tr *traffic
}

func (s countingStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	s.tr.gets.Add(1)
	s.tr.enter(s.Name(), collection, key)
	defer s.tr.leave()
	return s.Store.Get(ctx, collection, key)
}

func (s countingStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	s.tr.batches.Add(1)
	s.tr.mu.Lock()
	s.tr.groupBatches[[2]string{s.Name(), collection}]++
	s.tr.mu.Unlock()
	s.tr.enter(s.Name(), collection, keys...)
	defer s.tr.leave()
	return s.Store.GetBatch(ctx, collection, keys)
}

// counted returns a polystore over poly's stores, each wrapped to count its
// fetches into the returned traffic.
func counted(t *testing.T, poly *core.Polystore, delay time.Duration) (*core.Polystore, *traffic) {
	t.Helper()
	tr := &traffic{delay: delay}
	tr.reset()
	out := core.NewPolystore()
	for _, name := range poly.Databases() {
		s, err := poly.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Register(countingStore{Store: s, tr: tr}); err != nil {
			t.Fatal(err)
		}
	}
	return out, tr
}

// TestVanishedObjectAskedOnce pins the store traffic of lazy deletion, the
// one thing that happens on a miss: under every strategy, with and without
// an object cache, the search that finds an object gone from its store asks
// for it exactly once and drops it from the answer and from A', and the next
// search asks no store for it.
func TestVanishedObjectAskedOnce(t *testing.T) {
	disc := core.MustParseGlobalKey("discount.drop.k1:cure:wish")
	const q = `SELECT * FROM inventory WHERE name LIKE '%wish%'`
	for _, st := range Strategies {
		for _, size := range []int{0, 16} {
			cfg := Config{Strategy: st, BatchSize: 2, ThreadsSize: 3, CacheSize: size}
			base, ix := polyphony(t)
			poly, tr := counted(t, base, 0)
			s, err := poly.Database("discount")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Query(ctx, "DEL drop k1:cure:wish"); err != nil {
				t.Fatal(err)
			}
			aug := New(poly, ix, cfg)
			for pass, want := range []int{1, 0} {
				answer, err := aug.Search(ctx, "transactions", q, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got := tr.askedFor(disc); got != want {
					t.Errorf("%v pass %d: vanished key asked %d times, want %d", cfg, pass, got, want)
				}
				if len(answer.Augmented) == 0 {
					t.Fatalf("%v pass %d: empty augmentation", cfg, pass)
				}
				for _, ao := range answer.Augmented {
					if ao.Object.GK == disc {
						t.Errorf("%v pass %d: vanished object in the answer", cfg, pass)
					}
				}
				if ix.Contains(disc) {
					t.Errorf("%v pass %d: vanished object still in A'", cfg, pass)
				}
				tr.reset()
			}
		}
	}
}

// TestStrategyFetchShape pins how each strategy schedules its fetches on a
// cold, disabled cache: the per-key strategies make one Get per key and no
// GetBatch, the batched ones no Get and ⌈n/BATCH_SIZE⌉ GetBatch calls per
// (store, collection) group of n keys, and no strategy has more calls in
// flight than its worker shape allows. Only exact counts and upper bounds
// are asserted, so scheduling noise cannot fail it.
func TestStrategyFetchShape(t *testing.T) {
	const threads, batch = 5, 3
	base, ix, db, q := syntheticPolystore(t, 5, 40, 123)
	poly, tr := counted(t, base, 200*time.Microsecond)
	peakBound := map[Strategy]int64{
		Sequential: 1,
		Batch:      1,
		Inner:      threads,
		Outer:      threads,
		OuterBatch: threads,
		OuterInner: (threads / 2) * (threads - threads/2),
	}
	for _, st := range Strategies {
		tr.reset()
		aug := New(poly, ix, Config{Strategy: st, BatchSize: batch, ThreadsSize: threads})
		answer, err := aug.Search(ctx, db, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(answer.Original) < 2 || len(answer.Augmented) < threads {
			t.Fatalf("%v: %d origins, %d keys: the fixture must give the workers work", st, len(answer.Original), len(answer.Augmented))
		}
		groups := map[[2]string]int64{}
		for _, ao := range answer.Augmented {
			gk := ao.Object.GK
			if n := tr.askedFor(gk); n != 1 {
				t.Errorf("%v: %s asked %d times, want 1", st, gk, n)
			}
			groups[[2]string{gk.Database, gk.Collection}]++
		}
		gets, batches := tr.gets.Load(), tr.batches.Load()
		if st.Batched() {
			if gets != 0 {
				t.Errorf("%v: %d Get calls, want 0", st, gets)
			}
			for g, n := range groups {
				if got, want := tr.groupBatches[g], (n+batch-1)/batch; got != want {
					t.Errorf("%v: %d GetBatch calls to %s.%s for %d keys, want %d", st, got, g[0], g[1], n, want)
				}
			}
			if len(tr.groupBatches) != len(groups) {
				t.Errorf("%v: GetBatch reached %d groups, the answer %d", st, len(tr.groupBatches), len(groups))
			}
		} else {
			if want := int64(len(answer.Augmented)); gets != want {
				t.Errorf("%v: %d Get calls, want one per key: %d", st, gets, want)
			}
			if batches != 0 {
				t.Errorf("%v: %d GetBatch calls, want 0", st, batches)
			}
		}
		peak := tr.peak.Load()
		if peak < 1 || peak > peakBound[st] {
			t.Errorf("%v: peak %d calls in flight, want 1..%d", st, peak, peakBound[st])
		}
		if (st == Sequential || st == Batch) && peak != 1 {
			t.Errorf("%v: peak %d calls in flight, want exactly 1", st, peak)
		}
	}
}

// TestStrategyShape pins the worker table of Section IV.
func TestStrategyShape(t *testing.T) {
	for _, c := range []struct {
		s            Strategy
		threads      int
		outer, inner int
	}{
		{Sequential, 8, 1, 1}, {Batch, 8, 1, 1}, {Inner, 8, 1, 8}, {Outer, 8, 8, 1},
		{OuterBatch, 8, 8, 1}, {OuterInner, 8, 4, 4}, {OuterInner, 5, 2, 3}, {OuterInner, 1, 1, 1},
		{Strategy(99), 8, 0, 0},
	} {
		if o, i := c.s.shape(c.threads); o != c.outer || i != c.inner {
			t.Errorf("%v.shape(%d) = %d, %d, want %d, %d", c.s, c.threads, o, i, c.outer, c.inner)
		}
	}
	poly, ix := polyphony(t)
	if _, err := New(poly, ix, Config{Strategy: Strategy(99)}).Search(ctx, "transactions", `SELECT * FROM inventory`, 1); err == nil {
		t.Error("an unknown strategy ran")
	}
}
