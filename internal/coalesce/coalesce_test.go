package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quepa/internal/core"
)

var gk = core.NewGlobalKey("db", "coll", "hot")

// TestStampedeOneFetch: 100 concurrent callers of the same key cost exactly
// one fetch. The fetch blocks until all 99 followers are registered, so the
// test is deterministic rather than timing-dependent.
func TestStampedeOneFetch(t *testing.T) {
	g := NewGroup()
	var fetches atomic.Int64
	release := make(chan struct{})
	fetch := func(context.Context, core.GlobalKey) (core.Object, bool, error) {
		fetches.Add(1)
		<-release
		return core.NewObject(gk, map[string]string{"v": "1"}), true, nil
	}

	const callers = 100
	var wg sync.WaitGroup
	results := make([]bool, callers)
	shared := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obj, ok, sh, err := g.Do(context.Background(), gk, fetch)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = ok && obj.Fields["v"] == "1"
			shared[i] = sh
		}(i)
	}

	// Wait until the leader is in flight and every other caller joined it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		followers, inFlight := g.Waiters(gk)
		if inFlight && followers == callers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stampede never assembled: %d followers, inFlight=%v", followers, inFlight)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d, want 1", n)
	}
	sharedCount := 0
	for i := 0; i < callers; i++ {
		if !results[i] {
			t.Fatalf("caller %d got a wrong result", i)
		}
		if shared[i] {
			sharedCount++
		}
	}
	if sharedCount != callers-1 {
		t.Errorf("shared = %d, want %d", sharedCount, callers-1)
	}
}

// TestNotFoundShared: the found=false outcome is shared too (that is the
// lazy-deletion stampede the negative cache and coalescing guard against).
func TestNotFoundShared(t *testing.T) {
	g := NewGroup()
	_, ok, shared, err := g.Do(context.Background(), gk, func(context.Context, core.GlobalKey) (core.Object, bool, error) {
		return core.Object{}, false, nil
	})
	if err != nil || ok || shared {
		t.Fatalf("leader: ok=%v shared=%v err=%v", ok, shared, err)
	}
}

// TestErrorShared: a store error reaches every caller of the flight.
func TestErrorShared(t *testing.T) {
	g := NewGroup()
	boom := errors.New("store down")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, errs[i] = g.Do(context.Background(), gk, func(context.Context, core.GlobalKey) (core.Object, bool, error) {
				<-release
				return core.Object{}, false, boom
			})
		}(i)
	}
	for {
		if f, in := g.Waiters(gk); in && f == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: err = %v", i, err)
		}
	}
}

// TestLeaderCancelDoesNotPoisonFollower: a follower whose own context is
// alive retries as leader when the first flight died of the leader's
// cancellation, instead of propagating context.Canceled to an innocent
// caller.
func TestLeaderCancelDoesNotPoisonFollower(t *testing.T) {
	g := NewGroup()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var fetches atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: its fetch fails with its own cancellation
		defer wg.Done()
		_, _, _, err := g.Do(leaderCtx, gk, func(context.Context, core.GlobalKey) (core.Object, bool, error) {
			close(inFlight)
			<-release
			return core.Object{}, false, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-inFlight

	wg.Add(1)
	go func() { // follower with a live context
		defer wg.Done()
		obj, ok, _, err := g.Do(context.Background(), gk, func(context.Context, core.GlobalKey) (core.Object, bool, error) {
			fetches.Add(1)
			return core.NewObject(gk, map[string]string{"v": "retried"}), true, nil
		})
		if err != nil || !ok || obj.Fields["v"] != "retried" {
			t.Errorf("follower: obj=%v ok=%v err=%v", obj, ok, err)
		}
	}()
	for {
		if f, in := g.Waiters(gk); in && f == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancelLeader()
	close(release)
	wg.Wait()
	if n := fetches.Load(); n != 1 {
		t.Errorf("follower retries = %d, want 1", n)
	}
}

// TestDistinctKeysDoNotCoalesce: different keys fly independently.
func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	g := NewGroup()
	var fetches atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := core.NewGlobalKey("db", "coll", fmt.Sprintf("k%d", i))
			_, _, _, err := g.Do(context.Background(), k, func(context.Context, core.GlobalKey) (core.Object, bool, error) {
				fetches.Add(1)
				return core.NewObject(k, nil), true, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := fetches.Load(); n != 32 {
		t.Errorf("fetches = %d, want 32", n)
	}
}

// TestFollowerPathZeroAllocs pins the coalesced-hit path at zero heap
// allocations: joining a flight is a map read, a counter bump and a
// WaitGroup wait. An already-completed call stays registered for the whole
// run so every Do below takes the follower path.
func TestFollowerPathZeroAllocs(t *testing.T) {
	g := NewGroup()
	sh := g.shardFor(gk)
	c := &call{obj: core.NewObject(gk, map[string]string{"v": "1"}), ok: true}
	sh.mu.Lock()
	sh.flight[gk] = c
	sh.mu.Unlock()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		obj, ok, shared, err := g.Do(ctx, gk, nil)
		if !ok || !shared || err != nil || obj.Fields["v"] != "1" {
			t.Fatal("follower path broken")
		}
	})
	if allocs != 0 {
		t.Errorf("follower join allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkFollowerJoin measures the pure follower path: a permanently open
// flight that followers join and leave. 0 allocs/op is the contract.
func BenchmarkFollowerJoin(b *testing.B) {
	g := NewGroup()
	sh := g.shardFor(gk)
	c := &call{obj: core.NewObject(gk, nil), ok: true}
	// A completed call left registered: followers join, wait (returns
	// immediately) and read the result — the exact coalesced-hit sequence
	// minus the scheduling noise of a live leader.
	sh.mu.Lock()
	sh.flight[gk] = c
	sh.mu.Unlock()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, shared, err := g.Do(ctx, gk, nil)
		if !ok || !shared || err != nil {
			b.Fatal("follower path broken")
		}
	}
}

// TestNegativeCacheTTL: entries expire after the TTL and count hits while
// they live.
func TestNegativeCacheTTL(t *testing.T) {
	n := NewNegativeCache(8, time.Second)
	now := time.Unix(1000, 0)
	n.now = func() time.Time { return now }
	n.Put(gk)
	if !n.Has(gk) {
		t.Fatal("fresh negative entry not found")
	}
	now = now.Add(2 * time.Second)
	if n.Has(gk) {
		t.Fatal("expired negative entry still served")
	}
	if n.Hits() != 1 {
		t.Errorf("hits = %d, want 1", n.Hits())
	}
}

// TestNegativeCacheBounded: the capacity caps the remembered misses.
func TestNegativeCacheBounded(t *testing.T) {
	n := NewNegativeCache(4, time.Hour)
	for i := 0; i < 100; i++ {
		n.Put(core.NewGlobalKey("db", "c", fmt.Sprintf("k%d", i)))
	}
	if n.Len() > 4 {
		t.Errorf("Len = %d exceeds capacity 4", n.Len())
	}
	// The newest entries survived.
	if !n.Has(core.NewGlobalKey("db", "c", "k99")) {
		t.Error("newest negative entry evicted")
	}
	if n.Has(core.NewGlobalKey("db", "c", "k0")) {
		t.Error("oldest negative entry survived a full wrap")
	}
}

// TestNegativeCacheForgetThenPut: a key forgotten and remembered again is one
// of the last capacity misses, so three newer misses must not push it out.
func TestNegativeCacheForgetThenPut(t *testing.T) {
	n := NewNegativeCache(4, time.Hour)
	a := core.NewGlobalKey("db", "c", "a")
	n.Put(a)
	n.Forget(a)
	n.Put(a)
	for _, k := range []string{"b", "c", "d"} {
		n.Put(core.NewGlobalKey("db", "c", k))
	}
	if !n.Has(a) {
		t.Error("a is one of the last 4 misses but was dropped")
	}
	if n.Len() != 4 {
		t.Errorf("Len = %d, want 4", n.Len())
	}
}

// TestNegativeCacheForget: an observed re-insert clears the entry at once.
func TestNegativeCacheForget(t *testing.T) {
	n := NewNegativeCache(8, time.Hour)
	n.Put(gk)
	n.Forget(gk)
	if n.Has(gk) {
		t.Error("forgotten entry still served")
	}
}

// TestNegativeCacheConcurrent exercises the cache under -race.
func TestNegativeCacheConcurrent(t *testing.T) {
	n := NewNegativeCache(64, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := core.NewGlobalKey("db", "c", fmt.Sprintf("g%d-%d", g, i%16))
				n.Put(k)
				n.Has(k)
				if i%32 == 0 {
					n.Forget(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity", n.Len())
	}
}
