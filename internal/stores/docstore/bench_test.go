package docstore

import (
	"fmt"
	"testing"
)

func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s := New("bench")
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`{"_id": "d%d", "seq": %d, "title": "Album %d", "year": %d, "label": {"name": "L%d"}}`,
			i, i, i, 1970+i%55, i%20)
		if _, err := s.Insert("albums", doc); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkFindEquality(b *testing.B) {
	s := benchStore(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Find("albums", `{"year": 1999}`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindRange(b *testing.B) {
	s := benchStore(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Find("albums", `{"year": {"$gte": 1990, "$lt": 2000}}`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectRange is the test bed's range selection: 50 consecutive
// seq values out of 10,000 documents, read through CreateIndex("albums",
// "seq") and by the scan an unindexed path gets.
func BenchmarkSelectRange(b *testing.B) {
	for _, indexed := range []bool{true, false} {
		name := "scan"
		if indexed {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			s := benchStore(b, 10000)
			if indexed {
				if err := s.CreateIndex("albums", "seq"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * 50 % 9950
				docs, err := s.Query(fmt.Sprintf(`albums.find({"seq": {"$gte": %d, "$lt": %d}})`, lo, lo+50))
				if err != nil || len(docs) != 50 {
					b.Fatalf("%d docs, %v", len(docs), err)
				}
			}
		})
	}
}

func BenchmarkGetBatchDocs(b *testing.B) {
	s := benchStore(b, 5000)
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%d", i*37%5000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.GetBatch("albums", ids); len(got) != 100 {
			b.Fatal("short read")
		}
	}
}

func BenchmarkFlatten(b *testing.B) {
	s := benchStore(b, 1)
	d, _ := s.Get("albums", "d0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &Document{ID: d.ID, Body: d.Body}
		if names, _ := fresh.Fields(); len(names) == 0 {
			b.Fatal("no fields")
		}
	}
}
