package aindex_test

import (
	"fmt"
	"runtime"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/workload"
)

// BenchmarkReach50Served is the A' work of one range_cold request: 50
// inventory origins reached at level 2 in one AppendReachMany call, into
// one buffer, as the augmenter reaches them, on the index workload.Build
// serves at the ledger's scale 16.
func BenchmarkReach50Served(b *testing.B) {
	built, err := workload.Build(workload.DefaultSpec().Scale(16), workload.Colocated())
	if err != nil {
		b.Fatal(err)
	}
	origins := make([]core.GlobalKey, 50)
	for i := range origins {
		origins[i] = core.NewGlobalKey("transactions", "inventory", fmt.Sprintf("a%d", i))
	}
	var (
		hits []aindex.Hit
		runs [][]aindex.Hit
		st   aindex.ReachStats
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, runs = built.Index.AppendReachMany(hits[:0], runs[:0], origins, 2, &st)
	}
	b.ReportMetric(float64(len(hits)), "hits/op")
}

// BenchmarkBulkLoadServed is the load every server pays at start: the
// relations workload.Build asserts at the ledger's scale 16, loaded into a
// fresh index. alloc-MB is the bytes one load allocates (TotalAlloc), most
// of which is garbage once the index is built.
func BenchmarkBulkLoadServed(b *testing.B) {
	_, rels, err := workload.BuildWithRelations(workload.DefaultSpec().Scale(16), workload.Colocated())
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aindex.BulkLoad(rels); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(b.N), "alloc-MB")
	b.ReportMetric(float64(len(rels)), "rels")
}
