package aindex

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// waitFresh blocks until the asynchronous rebuild catches the snapshot up
// with the mutation epoch (or the deadline passes).
func waitFresh(t *testing.T, ix *Index) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ix.SnapshotInfo().Fresh {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("snapshot never caught up with the mutation epoch")
}

// quiesce waits for the background rebuild loop to catch up and exit, then
// parks future loops, so every refresh from here on is the test's own.
func quiesce(t *testing.T, ix *Index) {
	t.Helper()
	waitFresh(t, ix)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ix.rebuildMu.Lock()
		running := ix.rebuildRunning
		ix.rebuildMu.Unlock()
		if !running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rebuild loop never exited")
		}
	}
	ix.SetRebuildDebounce(time.Hour)
}

// requireInstalledEqualsFull fails unless the installed snapshot is fresh and
// field for field what buildSnapshot produces over the same adjacency.
func requireInstalledEqualsFull(t *testing.T, ix *Index, when string) {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	got := ix.snap.Load()
	want := buildSnapshot(ix.adj, ix.edges, ix.epoch.Load())
	switch {
	case got.epoch != want.epoch:
		t.Fatalf("%s: snapshot epoch %d, index epoch %d", when, got.epoch, want.epoch)
	case !slices.Equal(got.keys, want.keys):
		t.Fatalf("%s: keys differ: %d installed, %d in a full build", when, len(got.keys), len(want.keys))
	case !reflect.DeepEqual(got.ids, want.ids):
		t.Fatalf("%s: ids differ", when)
	case !slices.Equal(got.off, want.off):
		t.Fatalf("%s: off differs:\n got %v\nwant %v", when, got.off, want.off)
	case !slices.Equal(got.nbr, want.nbr):
		t.Fatalf("%s: nbr differs:\n got %v\nwant %v", when, got.nbr, want.nbr)
	case !slices.Equal(got.prob, want.prob):
		t.Fatalf("%s: prob differs:\n got %v\nwant %v", when, got.prob, want.prob)
	}
}

// fullBuilds is how many of the installed snapshots were not patches.
func fullBuilds(ix *Index) uint64 {
	info := ix.SnapshotInfo()
	return info.Rebuilds - info.Patches
}

// TestSnapshotPatchMatchesFull is the tentpole property: after any batch of
// Insert/InsertRaw between existing keys, the refresh takes the patch path
// and installs exactly what a full build over the same adjacency would.
func TestSnapshotPatchMatchesFull(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		ix, keys := buildRandomIndexT(t, 150, seed)
		quiesce(t, ix)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			base := ix.snap.Load()
			before, fullBefore := ix.SnapshotInfo().Patches, fullBuilds(ix)
			for n := rng.Intn(30); n > 0; n-- { // an empty batch patches too
				a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
				if a == b || !ix.Contains(a) || !ix.Contains(b) {
					continue
				}
				r := core.PRelation{From: a, To: b, Type: core.Matching, Prob: 0.5 + rng.Float64()/2}
				if rng.Intn(25) == 0 { // sparingly: identity classes close into cliques
					r.Type = core.Identity
				}
				insert := ix.Insert
				if rng.Intn(2) == 0 {
					insert = ix.InsertRaw
				}
				if err := insert(r); err != nil {
					t.Fatal(err)
				}
			}
			ix.RefreshSnapshot()
			when := fmt.Sprintf("seed %d round %d", seed, round)
			requireInstalledEqualsFull(t, ix, when)
			s := ix.snap.Load()
			if ix.SnapshotInfo().Patches <= before || fullBuilds(ix) != fullBefore {
				t.Fatalf("%s: mutations between existing keys took a full build", when)
			}
			if s.pool != base.pool || &s.keys[0] != &base.keys[0] {
				t.Fatalf("%s: patched snapshot does not share its predecessor's tables", when)
			}
		}
	}
}

// TestSnapshotFullBuildWhenNotPatchable covers every way the adjacency can
// move that a patch cannot follow. Each must leave needFull set — in
// particular the loaders that fill adj on an index whose installed snapshot
// is New's empty one, where an empty dirty set must not read as "nothing
// changed" — and install a snapshot equal to a full build.
func TestSnapshotFullBuildWhenNotPatchable(t *testing.T) {
	// A ring over more rows than one patch takes, so an InsertRaw sweep can
	// overflow the dirty set without touching the key set.
	ringKeys := make([]core.GlobalKey, maxDirtyRows+64)
	for i := range ringKeys {
		ringKeys[i] = core.NewGlobalKey("db", "ring", fmt.Sprintf("r%05d", i))
	}
	ringRels := make([]core.PRelation, len(ringKeys))
	for i := range ringKeys {
		ringRels[i] = core.NewMatching(ringKeys[i], ringKeys[(i+1)%len(ringKeys)], 0.5)
	}

	mutations := map[string]func(ix *Index, keys []core.GlobalKey){
		"first edge of a new key": func(ix *Index, keys []core.GlobalKey) {
			ix.Insert(core.NewMatching(keys[0], core.NewGlobalKey("db", "c", "brand-new"), 0.8))
		},
		"RemoveObject": func(ix *Index, keys []core.GlobalKey) {
			for _, k := range keys {
				if ix.RemoveObject(k) {
					return
				}
			}
		},
		"RemoveObject then patchable inserts": func(ix *Index, keys []core.GlobalKey) {
			live := ix.Keys()
			ix.RemoveObject(live[0])
			ix.InsertRaw(core.NewMatching(live[1], live[2], 1))
		},
		"ReplaceComponent": func(ix *Index, keys []core.GlobalKey) {
			live := ix.Keys()
			repl := mkIndex(t, core.NewIdentity(live[0], live[1], 0.9))
			ix.ReplaceComponent(live[:2], repl)
		},
		"AdvanceEpoch": func(ix *Index, keys []core.GlobalKey) {
			ix.AdvanceEpoch(ix.Epoch() + 1000)
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			ix, keys := buildRandomIndexT(t, 60, 3)
			quiesce(t, ix)
			before := ix.SnapshotInfo().Patches
			mutate(ix, keys)
			if !ix.SnapshotInfo().Fresh { // AdvanceEpoch freezes by itself
				ix.RefreshSnapshot()
			}
			requireInstalledEqualsFull(t, ix, name)
			if ix.SnapshotInfo().Patches != before {
				t.Errorf("%s was patched", name)
			}
		})
	}

	t.Run("dirty-set overflow", func(t *testing.T) {
		ix, err := BulkLoad(ringRels)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetRebuildDebounce(time.Hour)
		for i := 0; i+1 < len(ringKeys); i += 2 { // every row, two per relation
			ix.InsertRaw(core.NewMatching(ringKeys[i], ringKeys[i+1], 0.9))
		}
		before := ix.SnapshotInfo().Patches
		ix.RefreshSnapshot()
		requireInstalledEqualsFull(t, ix, "overflow")
		if ix.SnapshotInfo().Patches != before {
			t.Error("a dirty set past maxDirtyRows was patched")
		}
		// The overflow is forgotten with the build that served it.
		ix.InsertRaw(core.NewMatching(ringKeys[0], ringKeys[1], 1))
		ix.RefreshSnapshot()
		requireInstalledEqualsFull(t, ix, "after overflow")
		if ix.SnapshotInfo().Patches != before+1 {
			t.Error("one dirty edge after an overflow rebuild was not patched")
		}
	})

	src, _ := buildRandomIndexT(t, 60, 5)
	var ckpt bytes.Buffer
	if _, err := WriteSnapshot(&ckpt, src.Edges(), 77); err != nil {
		t.Fatal(err)
	}
	loaders := map[string]func() (*Index, error){
		"Clone":    func() (*Index, error) { return src.Clone(), nil },
		"BulkLoad": func() (*Index, error) { return BulkLoad(src.Edges()) },
		"ReadSnapshot": func() (*Index, error) {
			ix, _, err := ReadSnapshot(bytes.NewReader(ckpt.Bytes()))
			return ix, err
		},
	}
	for name, load := range loaders {
		t.Run(name, func(t *testing.T) {
			ix, err := load()
			if err != nil {
				t.Fatal(err)
			}
			requireInstalledEqualsFull(t, ix, name)
			info := ix.SnapshotInfo()
			if info.Patches != 0 || info.Nodes != src.NodeCount() || info.Nodes == 0 {
				t.Errorf("%s: snapshot info %+v, want a full build over %d nodes", name, info, src.NodeCount())
			}
		})
	}
}

// TestSnapshotReachMatchesLocked pins the tentpole read-path invariant: the
// lock-free CSR traversal returns exactly the hits and work stats of the
// locked reference traversal, for every origin and level, across seeds.
func TestSnapshotReachMatchesLocked(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		ix, keys := buildRandomIndexT(t, 150, seed)
		ix.RefreshSnapshot()
		s := ix.snap.Load()
		if s == nil || s.epoch != ix.epoch.Load() {
			t.Fatal("refreshed snapshot not fresh")
		}
		for _, level := range []int{0, 1, 2, 3} {
			for _, k := range keys {
				var ls, ss ReachStats
				locked := ix.reachLocked(k, level, &ls)
				snap := s.reach(k, level, &ss)
				if len(locked) != len(snap) {
					t.Fatalf("seed %d key %v level %d: %d snapshot hits, %d locked",
						seed, k, level, len(snap), len(locked))
				}
				for i := range locked {
					if locked[i] != snap[i] {
						t.Fatalf("seed %d key %v level %d hit %d: snapshot %+v, locked %+v",
							seed, k, level, i, snap[i], locked[i])
					}
				}
				if ss.Nodes != ls.Nodes || ss.Edges != ls.Edges {
					t.Fatalf("seed %d key %v level %d: snapshot stats %+v, locked %+v",
						seed, k, level, ss, ls)
				}
			}
		}
		// Unknown origin: same accounting as the locked traversal.
		var ss ReachStats
		if hits := s.reach(core.NewGlobalKey("no", "such", "key"), 2, &ss); len(hits) != 0 || ss.Nodes != 1 || ss.Edges != 0 {
			t.Errorf("seed %d unknown origin: hits=%v stats=%+v", seed, hits, ss)
		}
	}
}

// TestSnapshotStalenessAndFallback walks the freshness state machine: a
// mutation makes the snapshot stale (Reach falls back to the locked path and
// sees the mutation immediately), a refresh puts reads back on the lock-free
// path with identical results.
func TestSnapshotStalenessAndFallback(t *testing.T) {
	ix := New()
	// Park the async rebuild so this test controls freshness on its own.
	ix.SetRebuildDebounce(time.Hour)
	a := core.NewGlobalKey("db1", "c", "a")
	b := core.NewGlobalKey("db2", "c", "b")
	c := core.NewGlobalKey("db3", "c", "c")
	if err := ix.Insert(core.NewIdentity(a, b, 0.9)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(core.NewMatching(b, c, 0.7)); err != nil {
		t.Fatal(err)
	}

	if ix.SnapshotInfo().Fresh {
		t.Fatal("snapshot fresh right after mutations with rebuild parked")
	}
	hits, st := ix.ReachWithStats(a, 1)
	if st.Snapshot {
		t.Error("stale snapshot served a traversal")
	}
	if len(hits) != 2 {
		t.Fatalf("fallback reach = %v, want 2 hits", hits)
	}

	ix.RefreshSnapshot()
	if !ix.SnapshotInfo().Fresh {
		t.Fatal("snapshot stale right after RefreshSnapshot")
	}
	hits2, st2 := ix.ReachWithStats(a, 1)
	if !st2.Snapshot {
		t.Error("fresh snapshot not used")
	}
	if len(hits2) != len(hits) {
		t.Fatalf("snapshot reach = %v, fallback was %v", hits2, hits)
	}
	for i := range hits {
		if hits[i] != hits2[i] {
			t.Errorf("hit %d: snapshot %+v, fallback %+v", i, hits2[i], hits[i])
		}
	}

	// Lazy deletion must take effect immediately, before any rebuild.
	if !ix.RemoveObject(b) {
		t.Fatal("RemoveObject(b) = false")
	}
	hits3, st3 := ix.ReachWithStats(a, 1)
	if st3.Snapshot {
		t.Error("stale snapshot served a traversal after removal")
	}
	for _, h := range hits3 {
		if h.Key == b {
			t.Errorf("removed object still reachable: %v", hits3)
		}
	}
}

// TestSnapshotRebuildAsync verifies the debounced background rebuild lands on
// its own after mutations, without any explicit RefreshSnapshot call.
func TestSnapshotRebuildAsync(t *testing.T) {
	ix := New()
	a := core.NewGlobalKey("db1", "c", "a")
	b := core.NewGlobalKey("db2", "c", "b")
	if err := ix.Insert(core.NewMatching(a, b, 0.8)); err != nil {
		t.Fatal(err)
	}
	waitFresh(t, ix)
	if _, st := ix.ReachWithStats(a, 0); !st.Snapshot {
		t.Error("reach not on the snapshot path after the async rebuild")
	}
	info := ix.SnapshotInfo()
	if info.Nodes != 2 || info.Edges != 1 || info.Rebuilds == 0 {
		t.Errorf("snapshot info = %+v", info)
	}
}

// TestFullRebuildWaitsOutBulkMutation pins the rebuild loop's pacing: a patch
// starts after one debounce window whatever the epoch does; a full build
// (which would hold the read lock against the mutator that is about to
// invalidate it) waits for a window without mutations, but no longer than
// fullRebuildStaleness times the last full build.
func TestFullRebuildWaitsOutBulkMutation(t *testing.T) {
	ix := New()
	// Windows long enough that the mutator below cannot miss one by being
	// descheduled.
	ix.SetRebuildDebounce(10 * time.Millisecond)
	const lastFull = 25 * time.Millisecond
	ix.lastFullNanos.Store(int64(lastFull))
	await := func() time.Duration {
		start := time.Now()
		ix.awaitDebounce()
		return time.Since(start)
	}

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // a bulk mutator, as far as the loop can tell
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				ix.epoch.Add(1)
				runtime.Gosched()
			}
		}
	}()
	if took := await(); took >= fullRebuildStaleness*lastFull {
		t.Errorf("patch pending, epoch moving: waited %v, want one debounce window", took)
	}
	ix.needFull.Store(true)
	// The wait ends early, correctly, if the mutator is starved for a whole
	// window; a loaded machine gets more than one try.
	var took time.Duration
	for try := 0; try < 5 && took < fullRebuildStaleness*lastFull; try++ {
		took = await()
	}
	if took < fullRebuildStaleness*lastFull {
		t.Errorf("full build pending, epoch moving: waited %v, want >= %v", took, fullRebuildStaleness*lastFull)
	}
	close(stop)
	<-stopped
	if took := await(); took >= fullRebuildStaleness*lastFull {
		t.Errorf("full build pending, epoch quiet: waited %v, want one debounce window", took)
	}
}

// TestReachDuringRebuildChurn hammers lock-free readers against concurrent
// mutators and snapshot refreshes (run under -race). A nanosecond debounce
// forces a refresh after virtually every mutation; inserts between live keys
// leave it patchable, removals, re-insertions of removed keys and component
// swaps force the full build, so both kinds install under the readers.
func TestReachDuringRebuildChurn(t *testing.T) {
	ix := New()
	ix.SetRebuildDebounce(time.Nanosecond)
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
				if rng.Intn(40) == 0 {
					ix.ReplaceComponent(keys[:1+rng.Intn(3)], nil)
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
	// Keys nobody else touches: whatever snapshot generation or fallback
	// serves the read, an insert and a lazy deletion are visible at once.
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
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 500; i++ {
				k := keys[rng.Intn(len(keys))]
				level := rng.Intn(3)
				if rng.Intn(2) == 0 {
					ix.Reach(k, level)
				} else {
					hits, _ := ix.ReachWithStats(k, level)
					for j := 1; j < len(hits); j++ {
						if hitLess(hits[j], hits[j-1]) {
							t.Errorf("unsorted hits under churn: %+v", hits)
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if info := ix.SnapshotInfo(); info.Patches == 0 || info.Patches == info.Rebuilds {
		t.Errorf("churn installed %d snapshots, %d patched: want both kinds", info.Rebuilds, info.Patches)
	}
	// After the dust settles the snapshot must converge, equal a full build
	// and agree with the locked traversal.
	quiesce(t, ix)
	ix.RefreshSnapshot()
	requireInstalledEqualsFull(t, ix, "post-churn")
	s := ix.snap.Load()
	for _, k := range keys {
		var ls, ss ReachStats
		locked := ix.reachLocked(k, 2, &ls)
		snap := s.reach(k, 2, &ss)
		if len(locked) != len(snap) {
			t.Fatalf("post-churn divergence at %v: %d vs %d hits", k, len(snap), len(locked))
		}
		for i := range locked {
			if locked[i] != snap[i] {
				t.Fatalf("post-churn hit %d at %v: %+v vs %+v", i, k, snap[i], locked[i])
			}
		}
	}
}

// TestSnapshotReachAllocs is the kill switch for the lock-free fast path:
// a snapshot Reach must allocate nothing beyond the result slice. A
// regression (lost pooling, map rebuilds, sort.Slice creeping back in) fails
// this immediately.
func TestSnapshotReachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments sync.Pool and skews allocation counts")
	}
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)

	ix, keys := buildRandomIndexT(t, 500, 9)
	// AllocsPerRun reads the global allocation counter, so no background
	// rebuild may run while it measures.
	quiesce(t, ix)
	k := keys[3]
	if _, st := ix.ReachWithStats(k, 1); !st.Snapshot {
		t.Fatal("fast path not active")
	}
	ix.Reach(k, 1) // warm the scratch pool

	gate := func(when string) {
		t.Helper()
		for _, level := range []int{0, 1, 2} {
			avg := testing.AllocsPerRun(100, func() {
				ix.Reach(k, level)
			})
			// One alloc for the result slice; header-growth slack only.
			if avg > 2 {
				t.Errorf("%s, level %d: snapshot Reach allocates %.1f/op, want <= 2", when, level, avg)
			}
		}
	}
	gate("full build")

	// A patched generation shares its predecessor's scratch pool: the
	// already-warm reader must not pay for a new visited table.
	patches := ix.SnapshotInfo().Patches
	nb := ix.Neighbors(k)[0].To
	if err := ix.InsertRaw(core.PRelation{From: k, To: nb, Type: core.Identity, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	ix.RefreshSnapshot()
	if _, st := ix.ReachWithStats(k, 1); !st.Snapshot || ix.SnapshotInfo().Patches != patches+1 {
		t.Fatal("patched snapshot not serving")
	}
	gate("after a patch")
}

// TestScratchStampWraparound drives the visited stamps across the uint32
// wraparound boundary: traversals must stay correct when the stamp resets
// and the mark arrays are re-zeroed.
func TestScratchStampWraparound(t *testing.T) {
	ix, keys := buildRandomIndexT(t, 40, 4)
	ix.RefreshSnapshot()
	s := ix.snap.Load()

	want := s.reach(keys[0], 2, nil)
	sc := s.getScratch()
	sc.stamp = math.MaxUint32 - 1
	sc.nstamp = math.MaxUint32 - 1
	// Poison the mark arrays with values a lapsed stamp could collide with.
	for i := range sc.mark {
		sc.mark[i] = 1
		sc.nmark[i] = 1
	}
	s.pool.Put(sc)

	for round := 0; round < 4; round++ { // crosses MaxUint32 on round 2
		got := s.reach(keys[0], 2, nil)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d hits, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d hit %d: %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestReachNegativeLevel pins the guard shared by both paths.
func TestReachNegativeLevel(t *testing.T) {
	ix, keys := buildRandomIndexT(t, 10, 2)
	if hits := ix.Reach(keys[0], -1); hits != nil {
		t.Errorf("Reach(level -1) = %v, want nil", hits)
	}
}
