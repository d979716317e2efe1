package aindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// TestLazyDeletionVisibleToNextReach: a lazy deletion takes effect for the
// very next reach, and the inferred edges it leaves between the remaining
// keys stay reachable.
func TestLazyDeletionVisibleToNextReach(t *testing.T) {
	ix := New()
	a := core.NewGlobalKey("db1", "c", "a")
	b := core.NewGlobalKey("db2", "c", "b")
	c := core.NewGlobalKey("db3", "c", "c")
	if err := ix.Insert(core.NewIdentity(a, b, 0.9)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(core.NewMatching(b, c, 0.7)); err != nil {
		t.Fatal(err)
	}
	if hits := ix.Reach(a, 1); len(hits) != 2 {
		t.Fatalf("reach = %v, want 2 hits", hits)
	}
	if !ix.RemoveObject(b) {
		t.Fatal("RemoveObject(b) = false")
	}
	hits := ix.Reach(a, 1)
	if slices.ContainsFunc(hits, func(h Hit) bool { return h.Key == b }) {
		t.Errorf("removed object still reachable: %v", hits)
	}
	if !slices.ContainsFunc(hits, func(h Hit) bool { return h.Key == c }) {
		t.Errorf("inferred edge a ~ c lost with b: %v", hits)
	}
}

// TestReachDuringRebuildChurn hammers readers against concurrent mutators
// (run under -race): inserts between live keys, removals and re-insertions
// of removed keys, which intern and revive keys under the readers.
func TestReachDuringRebuildChurn(t *testing.T) {
	ix := New()
	keys := make([]core.GlobalKey, 64)
	for i := range keys {
		keys[i] = core.NewGlobalKey(fmt.Sprintf("db%d", i%5), "c", fmt.Sprintf("k%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				if rng.Intn(10) == 0 {
					ix.RemoveObject(keys[rng.Intn(len(keys))])
					continue
				}
				if rng.Intn(40) == 0 { // a burst of removals over the leading keys
					for _, k := range keys[:1+rng.Intn(3)] {
						ix.RemoveObject(k)
					}
					continue
				}
				a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
				if a == b {
					continue
				}
				typ := core.Matching
				if rng.Intn(3) == 0 {
					typ = core.Identity
				}
				ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.5 + rng.Float64()/2})
			}
		}(w)
	}
	// Keys nobody else touches: an insert and a lazy deletion are visible to
	// the next read at once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := core.NewGlobalKey("own", "c", "x")
		reaches := func(y core.GlobalKey) bool {
			return slices.ContainsFunc(ix.Reach(x, 0), func(h Hit) bool { return h.Key == y })
		}
		for i := 0; i < 150; i++ {
			y := core.NewGlobalKey("own", "c", fmt.Sprintf("y%d", i%3))
			ix.Insert(core.NewMatching(x, y, 0.9))
			if !reaches(y) {
				t.Errorf("round %d: inserted %v not reachable from %v", i, y, x)
			}
			if i%3 == 0 {
				ix.RemoveObject(y)
				if reaches(y) {
					t.Errorf("round %d: removed %v still reachable from %v", i, y, x)
				}
			}
		}
	}()
	// Readers bracket every Reach between two Stamp reads, the way the
	// augmenter fills its result cache. Whatever the interleaving, two reads
	// bracketed by the same stamp must return the same hits — or a cache
	// would serve one of them as the other.
	type stamped struct {
		key   core.GlobalKey
		level int
		stamp uint64
	}
	var seenMu sync.Mutex
	seen := map[stamped][]Hit{}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 500; i++ {
				k := keys[rng.Intn(len(keys))]
				level := rng.Intn(3)
				s1 := ix.Stamp(k)
				var hits []Hit
				if rng.Intn(2) == 0 {
					hits = ix.Reach(k, level)
				} else {
					hits, _ = ix.ReachWithStats(k, level)
				}
				for j := 1; j < len(hits); j++ {
					if hitLess(hits[j], hits[j-1]) {
						t.Errorf("unsorted hits under churn: %+v", hits)
					}
				}
				if s2 := ix.Stamp(k); s2 != s1 {
					continue
				}
				key := stamped{k, level, s1}
				seenMu.Lock()
				first, ok := seen[key]
				if !ok {
					seen[key] = hits
				}
				seenMu.Unlock()
				if ok && !slices.Equal(first, hits) {
					t.Errorf("%v level %d under stamp %d: hits %v, earlier under the same stamp %v", k, level, s1, hits, first)
				}
			}
		}(r)
	}
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReachAllocs is the kill switch for the traversal: a warm Reach
// allocates nothing beyond its result slice. A regression (lost pooling,
// map rebuilds, sort.Slice creeping back in) fails this immediately.
func TestReachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments sync.Pool and skews allocation counts")
	}
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)

	ix, keys := buildRandomIndexT(t, 500, 9)
	k := keys[3]
	ix.Reach(k, 1) // warm the scratch pool

	gate := func(when string) {
		t.Helper()
		for _, level := range []int{0, 1, 2} {
			avg := testing.AllocsPerRun(100, func() {
				ix.Reach(k, level)
			})
			// One alloc for the result slice; slack for a collection
			// emptying the pool mid-run only.
			if avg > 2 {
				t.Errorf("%s, level %d: Reach allocates %.1f/op, want <= 2", when, level, avg)
			}
		}
	}
	gate("warm")

	// An edge between existing keys interns nothing: the warm scratch still
	// covers every id.
	nb := ix.Neighbors(k)[0].To
	if err := ix.InsertRaw(core.PRelation{From: k, To: nb, Type: core.Identity, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	gate("after a mutation")
}

// TestAppendReachMany: one call over many origins appends, after what dst
// and runs already hold, exactly each origin's Reach as its own run, with
// its capacity capped at its length, and sums the work of the one-origin
// reaches. Equal origins get equal runs, an unknown origin an empty one.
// Warm, with capacity in dst and runs, a 50-origin call allocates no more
// than one Reach does (TestReachAllocs' gate).
func TestAppendReachMany(t *testing.T) {
	ix, keys := buildRandomIndexT(t, 500, 9)
	origins := make([]core.GlobalKey, 50)
	for i := range origins {
		origins[i] = keys[(i*7)%20] // every origin appears two or three times
	}
	origins[49] = core.NewGlobalKey("no", "such", "key")
	for _, level := range []int{0, 1, 2} {
		var want ReachStats
		for _, o := range origins {
			_, st := ix.ReachWithStats(o, level)
			want.Nodes += st.Nodes
			want.Edges += st.Edges
		}
		prior := Hit{Key: keys[0], Prob: 1}
		var got ReachStats
		dst, runs := ix.AppendReachMany([]Hit{prior}, [][]Hit{{prior}}, origins, level, &got)
		if got != want {
			t.Errorf("level %d: stats %+v, want the one-origin sum %+v", level, got, want)
		}
		if dst[0] != prior || len(runs) != 1+len(origins) || !slices.Equal(runs[0], []Hit{prior}) {
			t.Fatalf("level %d: what dst and runs held before the call moved", level)
		}
		total := 1
		for i, o := range origins {
			run := runs[1+i]
			total += len(run)
			if !slices.Equal(run, ix.Reach(o, level)) || cap(run) != len(run) {
				t.Errorf("level %d, origin %d: run %v (cap %d), want Reach %v", level, i, run, cap(run), ix.Reach(o, level))
			}
			if j := slices.Index(origins, o); !slices.Equal(run, runs[1+j]) {
				t.Errorf("level %d: runs of equal origins %d and %d differ", level, j, i)
			}
		}
		if total != len(dst) {
			t.Errorf("level %d: runs hold %d hits, dst %d", level, total, len(dst))
		}
	}

	if raceEnabled {
		t.Skip("race detector instruments sync.Pool and skews allocation counts")
	}
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	dst, runs := ix.AppendReachMany(nil, nil, origins, 2, nil) // warm the pool, size the buffers
	for _, level := range []int{0, 1, 2} {
		avg := testing.AllocsPerRun(10, func() {
			dst, runs = ix.AppendReachMany(dst[:0], runs[:0], origins, level, nil)
		})
		if avg > 2 {
			t.Errorf("level %d: a warm 50-origin AppendReachMany allocates %.1f/op, want <= 2", level, avg)
		}
	}
}

// TestScratchGrowsWithNewKeys: a scratch pooled before keys were interned
// is not indexed by their ids. The next reach gets one that covers every
// id, and a reach from a new key is served correctly.
func TestScratchGrowsWithNewKeys(t *testing.T) {
	ix, keys := buildRandomIndexT(t, 40, 4)
	ix.Reach(keys[0], 2) // pools a scratch sized for the keys so far
	ix.mu.RLock()
	small := ix.getScratchLocked()
	ix.mu.RUnlock()

	x := core.NewGlobalKey("new", "c", "x")
	y := core.NewGlobalKey("new", "c", "y")
	z := core.NewGlobalKey("new", "c", "z")
	for _, r := range []core.PRelation{core.NewMatching(x, y, 0.5), core.NewMatching(y, z, 0.5)} {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.NodeCount(); len(small.mark) >= n {
		t.Fatalf("the pooled scratch already covers all %d keys; nothing to grow", n)
	}
	ix.scratch.Put(small)

	want := []Hit{{Key: y, Prob: 0.5, Dist: 1}, {Key: z, Prob: 0.25, Dist: 2}}
	if got := ix.Reach(x, 1); !slices.Equal(got, want) {
		t.Fatalf("Reach(%v, 1) = %v, want %v", x, got, want)
	}
	ix.mu.RLock()
	sc, n := ix.getScratchLocked(), len(ix.keys)
	ix.mu.RUnlock()
	if len(sc.mark) < n || cap(sc.seen) < n {
		t.Fatalf("scratch covers %d ids (seen capacity %d), index has %d", len(sc.mark), cap(sc.seen), n)
	}
}

// TestScratchStampWraparound drives the visited stamps across the uint32
// wraparound boundary: traversals must stay correct when the stamp resets
// and the mark arrays are re-zeroed.
func TestScratchStampWraparound(t *testing.T) {
	ix, keys := buildRandomIndexT(t, 40, 4)

	want := ix.Reach(keys[0], 2)
	ix.mu.RLock()
	sc := ix.getScratchLocked()
	ix.mu.RUnlock()
	sc.stamp = math.MaxUint32 - 1
	sc.nstamp = math.MaxUint32 - 1
	// Poison the mark arrays with values a lapsed stamp could collide with.
	for i := range sc.mark {
		sc.mark[i] = 1
		sc.nmark[i] = 1
	}
	ix.scratch.Put(sc)

	for round := 0; round < 4; round++ { // crosses MaxUint32 on round 2
		if got := ix.Reach(keys[0], 2); !slices.Equal(got, want) {
			t.Fatalf("round %d: %v, want %v", round, got, want)
		}
	}
}

// TestReachNegativeLevel pins the level guard.
func TestReachNegativeLevel(t *testing.T) {
	ix, keys := buildRandomIndexT(t, 10, 2)
	if hits := ix.Reach(keys[0], -1); hits != nil {
		t.Errorf("Reach(level -1) = %v, want nil", hits)
	}
}
