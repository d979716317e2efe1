package aindex

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"quepa/internal/core"
)

// buildRandomIndex creates an index with n keys and ~2n edges.
func buildRandomIndex(n int, seed int64) (*Index, []core.GlobalKey) {
	rng := rand.New(rand.NewSource(seed))
	ix := New()
	keys := make([]core.GlobalKey, n)
	for i := range keys {
		keys[i] = core.NewGlobalKey(fmt.Sprintf("db%d", i%7), "c", fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 2*n; i++ {
		a := keys[rng.Intn(n)]
		b := keys[rng.Intn(n)]
		if a == b {
			continue
		}
		typ := core.Matching
		if rng.Intn(5) == 0 {
			typ = core.Identity
		}
		ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.6 + 0.4*rng.Float64()})
	}
	return ix, keys
}

func BenchmarkInsertMatching(b *testing.B) {
	ix := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		from := core.NewGlobalKey("db", "c", fmt.Sprintf("a%d", i))
		to := core.NewGlobalKey("db", "c", fmt.Sprintf("b%d", i))
		ix.Insert(core.NewMatching(from, to, 0.7))
	}
}

func BenchmarkInsertIdentityWithClosure(b *testing.B) {
	// Worst-ish case: identities chained into one growing class would be
	// quadratic; bound class size by cycling through many chains.
	ix := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chain := i % 1024
		from := core.NewGlobalKey("db", "c", fmt.Sprintf("x%d-%d", chain, i/1024))
		to := core.NewGlobalKey("db", "c", fmt.Sprintf("x%d-%d", chain, i/1024+1))
		ix.Insert(core.NewIdentity(from, to, 0.9))
	}
}

func BenchmarkReach(b *testing.B) {
	ix, keys := buildRandomIndex(5000, 1)
	for _, level := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Reach(keys[i%len(keys)], level)
			}
		})
	}
}

// scale16Index is an index the size of the ledger's dataset (quepa-server
// -scale 16: 52,847 keys, 110,635 relations), built once for the
// benchmarks below.
var scale16Index = sync.OnceValues(newScale16Index)

func newScale16Index() (*Index, []core.GlobalKey) {
	const nKeys, nRels = 52847, 110635
	rng := rand.New(rand.NewSource(16))
	keys := make([]core.GlobalKey, nKeys)
	for i := range keys {
		keys[i] = core.NewGlobalKey(fmt.Sprintf("db%d", i%4), "c", fmt.Sprintf("k%d", i))
	}
	rels := make([]core.PRelation, 0, nRels)
	for i := 0; len(rels) < nRels; i++ {
		a, b := keys[i%nKeys], keys[rng.Intn(nKeys)] // every key gets a row
		if a != b {
			rels = append(rels, core.NewMatching(a, b, 0.6+0.4*rng.Float64()))
		}
	}
	ix, err := BulkLoad(rels)
	if err != nil {
		panic(err)
	}
	return ix, keys
}

// BenchmarkIndexGC is what a scale-16 A' costs the garbage collector: it
// holds a private newScale16Index live and reports the live heap it adds
// (heap-MB) and the time one forced collection spends on it (gc-ms: a
// runtime.GC() with the index live minus one after it is dropped), at
// GOMAXPROCS(1) so the figure is CPU time, not wall time spread over cores.
func BenchmarkIndexGC(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, _ := newScale16Index()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	live := b.Elapsed()
	runtime.KeepAlive(ix)
	ix = nil
	runtime.GC()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	dropped := time.Since(start)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/1e6, "heap-MB")
	b.ReportMetric(float64(live-dropped)/1e6/float64(b.N), "gc-ms")
}

// BenchmarkStamp is the price of validating one result-cache entry at the
// ledger's index size: a read lock, an id probe and a parent walk. "hot" cycles over 64
// keys, as a skewed query stream does; "cold" over all 52,847, so every probe
// misses the CPU caches.
func BenchmarkStamp(b *testing.B) {
	ix, keys := scale16Index()
	for _, n := range []struct {
		name string
		keys []core.GlobalKey
	}{{"hot", keys[:64]}, {"cold", keys}} {
		b.Run(n.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Stamp(n.keys[i%len(n.keys)])
			}
		})
	}
}

// randomRelsBench produces the relation list buildRandomIndex would insert,
// for loading benchmarks that need the relations themselves.
func randomRelsBench(n int, seed int64) []core.PRelation {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]core.GlobalKey, n)
	for i := range keys {
		keys[i] = core.NewGlobalKey(fmt.Sprintf("db%d", i%7), "c", fmt.Sprintf("k%d", i))
	}
	var rels []core.PRelation
	for i := 0; i < 2*n; i++ {
		a := keys[rng.Intn(n)]
		b := keys[rng.Intn(n)]
		if a == b {
			continue
		}
		typ := core.Matching
		if rng.Intn(5) == 0 {
			typ = core.Identity
		}
		rels = append(rels, core.PRelation{From: a, To: b, Type: typ, Prob: 0.6 + 0.4*rng.Float64()})
	}
	return rels
}

// BenchmarkBulkLoad compares BulkLoad, the ordered insert replay into a
// private index, against the same relations inserted one locked Insert at a
// time.
func BenchmarkBulkLoad(b *testing.B) {
	rels := randomRelsBench(2000, 6)
	b.Run("insert-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := New()
			for _, r := range rels {
				if err := ix.Insert(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bulkload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BulkLoad(rels); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEdgesExport(b *testing.B) {
	ix, _ := buildRandomIndex(5000, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(ix.Edges()) == 0 {
			b.Fatal("no edges")
		}
	}
}

func BenchmarkNeighbors(b *testing.B) {
	ix, keys := buildRandomIndex(5000, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Neighbors(keys[i%len(keys)])
	}
}

// maxHeapPerHalfEdge bounds the live heap an index holds per stored
// half-edge: rows, id tables and components together. On the test's shape
// a map-of-maps adjacency held ~250 B per half-edge, id-addressed rows
// beside a pointer union-find in map shards ~94 B, and the same rows beside
// the id-addressed union-find ~73 B.
const maxHeapPerHalfEdge = 85

// TestIndexHeapPerHalfEdge guards the index's memory layout: an index of
// ~50k relations, with every key holding a row, must stay under
// maxHeapPerHalfEdge bytes of live heap per half-edge.
func TestIndexHeapPerHalfEdge(t *testing.T) {
	build := func() *Index {
		const nKeys, nRels = 24000, 50000
		rng := rand.New(rand.NewSource(50))
		keys := make([]core.GlobalKey, nKeys)
		for i := range keys {
			keys[i] = core.NewGlobalKey(fmt.Sprintf("db%d", i%4), "c", fmt.Sprintf("k%d", i))
		}
		rels := make([]core.PRelation, 0, nRels)
		for i := 0; len(rels) < nRels; i++ {
			a, b := keys[i%nKeys], keys[rng.Intn(nKeys)]
			if a != b {
				rels = append(rels, core.NewMatching(a, b, 0.6+0.4*rng.Float64()))
			}
		}
		ix, err := BulkLoad(rels)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	halfEdges := 2 * ix.EdgeCount()
	perHalfEdge := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(halfEdges)
	runtime.KeepAlive(ix)
	t.Logf("%.0f B of live heap per half-edge (%d half-edges)", perHalfEdge, halfEdges)
	if perHalfEdge > maxHeapPerHalfEdge {
		t.Errorf("index holds %.0f B of live heap per half-edge, want <= %d", perHalfEdge, maxHeapPerHalfEdge)
	}
}
