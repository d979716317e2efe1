package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"quepa/internal/core"
)

// intKey is a Hashable for the property test; below shardThreshold the hash
// never matters, so the identity will do.
type intKey uint32

func (k intKey) Hash() uint32 { return uint32(k) }

// refLRU is the specification Sharded is checked against: one exact LRU over
// a slice, most recently used first, with the same stamp and counter rules.
type refLRU struct {
	capacity int
	ents     []refEntry
	counts   Counts
}

type refEntry struct {
	key   intKey
	stamp uint64
	val   int
}

func (r *refLRU) find(k intKey) int {
	return slices.IndexFunc(r.ents, func(e refEntry) bool { return e.key == k })
}

func (r *refLRU) get(k intKey, stamp uint64) (int, bool) {
	i := r.find(k)
	if i < 0 {
		r.counts.Misses++
		return 0, false
	}
	e := r.ents[i]
	r.ents = slices.Delete(r.ents, i, i+1)
	if e.stamp != stamp {
		r.counts.Misses++
		r.counts.Mismatches++
		return 0, false
	}
	r.counts.Hits++
	r.ents = slices.Insert(r.ents, 0, e)
	return e.val, true
}

func (r *refLRU) put(k intKey, stamp uint64, v int) {
	if r.capacity == 0 {
		return
	}
	if i := r.find(k); i >= 0 {
		r.ents = slices.Delete(r.ents, i, i+1)
	}
	r.ents = slices.Insert(r.ents, 0, refEntry{k, stamp, v})
	r.resize(r.capacity)
}

func (r *refLRU) remove(k intKey) bool {
	i := r.find(k)
	if i >= 0 {
		r.ents = slices.Delete(r.ents, i, i+1)
	}
	return i >= 0
}

func (r *refLRU) resize(capacity int) {
	r.capacity = max(capacity, 0)
	for len(r.ents) > r.capacity {
		r.ents = r.ents[:len(r.ents)-1]
		r.counts.Evictions++
	}
}

// TestShardedMatchesReference runs seeded random Get/Put/Remove/Resize/Clear
// sequences, with stamps, against Sharded and refLRU at single-shard
// capacities, and requires every result, Len, Capacity and Counts to agree
// after every operation. Eviction at capacity, refresh, stale-stamp drops,
// shrinking, zero capacity and Clear keeping the counters are all cases of it.
func TestShardedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(24)
		if seed%8 == 0 {
			capacity = 0
		}
		got, want := NewSharded[intKey, int](capacity), &refLRU{capacity: capacity}
		if got.Shards() != 1 {
			t.Fatalf("capacity %d: %d shards, want 1", capacity, got.Shards())
		}
		keys := 2*capacity + 4
		for op := 0; op < 3000; op++ {
			k, stamp := intKey(rng.Intn(keys)), uint64(rng.Intn(3))
			var desc string
			switch r := rng.Intn(100); {
			case r < 45:
				v, ok := got.Get(k, stamp)
				wv, wok := want.get(k, stamp)
				desc = fmt.Sprintf("Get(%d, %d) = %d, %v; want %d, %v", k, stamp, v, ok, wv, wok)
				if v != wv || ok != wok {
					t.Fatalf("seed %d op %d: %s", seed, op, desc)
				}
			case r < 85:
				v := rng.Int()
				got.Put(k, stamp, v)
				want.put(k, stamp, v)
				desc = fmt.Sprintf("Put(%d, %d)", k, stamp)
			case r < 95:
				ok, wok := got.Remove(k), want.remove(k)
				desc = fmt.Sprintf("Remove(%d) = %v; want %v", k, ok, wok)
				if ok != wok {
					t.Fatalf("seed %d op %d: %s", seed, op, desc)
				}
			case r < 98:
				c := rng.Intn(2*shardThreshold) - 2
				got.Resize(c)
				want.resize(c)
				desc = fmt.Sprintf("Resize(%d)", c)
			default:
				got.Clear()
				want.ents = nil
				desc = "Clear()"
			}
			if got.Len() != len(want.ents) || got.Capacity() != want.capacity || got.Counts() != want.counts {
				t.Fatalf("seed %d op %d after %s: Len %d Capacity %d Counts %+v; want %d %d %+v",
					seed, op, desc, got.Len(), got.Capacity(), got.Counts(),
					len(want.ents), want.capacity, want.counts)
			}
		}
	}
}

// TestShardedAllocs pins the costs the intrusive list buys: a hit allocates
// nothing and storing a new key allocates its one entry.
func TestShardedAllocs(t *testing.T) {
	const runs = 1000
	objs := make([]core.Object, 2*runs)
	for i := range objs {
		objs[i] = obj(fmt.Sprintf("k%d", i))
	}
	c := NewLRU(1024)
	for _, o := range objs[:runs] {
		c.Put(o)
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() { c.Get(objs[i%runs].GK); i++ }); n != 0 {
		t.Errorf("Get hit: %.0f allocs, want 0", n)
	}
	// A shard with room allocates the new key's node: 16 shards of 1024
	// never fill on 1000 keys.
	room := NewLRU(16 * 1024)
	i = runs
	if n := testing.AllocsPerRun(runs-1, func() { room.Put(objs[i]); i++ }); n != 1 {
		t.Errorf("Put of a new key into a shard with room: %.0f allocs, want 1", n)
	}
	// A full shard reuses the node it evicts. All 2000 keys overfill every
	// shard of 64; cycling through them again, each key was evicted since
	// its last Put, so every Put is of a new key into a full shard.
	for _, o := range objs {
		c.Put(o)
	}
	evicted := c.Counts().Evictions
	i = 0
	if n := testing.AllocsPerRun(runs, func() { c.Put(objs[i]); i++ }); n != 0 {
		t.Errorf("Put of a new key into a full shard: %.0f allocs, want 0", n)
	}
	if got := c.Counts().Evictions - evicted; got != runs+1 || c.Len() != c.Capacity() {
		t.Errorf("%d evictions over %d Puts of new keys, %d entries for capacity %d", got, runs+1, c.Len(), c.Capacity())
	}
}

// TestShardedConcurrentAccess hammers a sharded cache from many goroutines
// with every operation (run under -race), then checks the capacity bound and
// that every probe was counted exactly once.
func TestShardedConcurrentAccess(t *testing.T) {
	c := NewSharded[core.GlobalKey, int](2048)
	const workers, ops = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < ops; i++ {
				k := obj(fmt.Sprintf("k%d", rng.Intn(4096))).GK
				stamp := uint64(rng.Intn(2))
				c.Get(k, stamp)
				switch r := rng.Intn(100); {
				case r < 70:
					c.Put(k, stamp, i)
				case r < 95:
					c.Remove(k)
				case r < 99:
					c.Resize(1024 + rng.Intn(2048))
				default:
					c.Clear()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	if c.Shards() != shardCount {
		t.Errorf("Shards = %d, want %d", c.Shards(), shardCount)
	}
	n := c.Counts()
	if n.Hits+n.Misses != workers*ops || n.Mismatches > n.Misses {
		t.Errorf("Counts %+v: want hits+misses = %d and mismatches <= misses", n, workers*ops)
	}
}
