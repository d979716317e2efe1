package graphstore

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, nodes, edgesPerNode int) *Store {
	b.Helper()
	s := New("bench")
	for i := 0; i < nodes; i++ {
		if err := s.AddNode(fmt.Sprintf("n%d", i), "items", map[string]string{
			"seq": fmt.Sprintf("%d", i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < nodes; i++ {
		for e := 0; e < edgesPerNode; e++ {
			j := rng.Intn(nodes)
			if j != i {
				s.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j), "SIMILAR")
			}
		}
	}
	return s
}

func BenchmarkNeighborsLookup(b *testing.B) {
	s := benchGraph(b, 5000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Neighbors(fmt.Sprintf("n%d", i%5000), ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchScan(b *testing.B) {
	s := benchGraph(b, 5000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(`MATCH (n:items) WHERE n.seq < 100 RETURN n`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectRange is the test bed's range selection: 50 consecutive
// seq values out of 10,000 nodes, read through CreateIndex("items", "seq")
// and by the scan an unindexed property gets.
func BenchmarkSelectRange(b *testing.B) {
	for _, indexed := range []bool{true, false} {
		name := "scan"
		if indexed {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			s := benchGraph(b, 10000, 2)
			if indexed {
				if err := s.CreateIndex("items", "seq"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * 50 % 9950
				nodes, err := s.Query(fmt.Sprintf(`MATCH (n:items) WHERE n.seq >= %d AND n.seq < %d RETURN n`, lo, lo+50))
				if err != nil || len(nodes) != 50 {
					b.Fatalf("%d nodes, %v", len(nodes), err)
				}
			}
		})
	}
}

func BenchmarkGetNodes(b *testing.B) {
	s := benchGraph(b, 5000, 1)
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i*41%5000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.GetNodes(ids); len(got) != 100 {
			b.Fatal("short read")
		}
	}
}
