package aindex_test

import (
	"fmt"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/workload"
)

// BenchmarkReach50Served is the A' work of one range_cold request: 50
// inventory origins reached at level 2 into one buffer, as the augmenter
// appends them, on the index workload.Build serves at the ledger's scale 16.
func BenchmarkReach50Served(b *testing.B) {
	built, err := workload.Build(workload.DefaultSpec().Scale(16), workload.Colocated())
	if err != nil {
		b.Fatal(err)
	}
	origins := make([]core.GlobalKey, 50)
	for i := range origins {
		origins[i] = core.NewGlobalKey("transactions", "inventory", fmt.Sprintf("a%d", i))
	}
	var hits []aindex.Hit
	var st aindex.ReachStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = hits[:0]
		for _, o := range origins {
			hits = built.Index.AppendReachWithStats(hits, o, 2, &st)
		}
	}
	b.ReportMetric(float64(len(hits)), "hits/op")
}
