package relstore

import (
	"fmt"
	"testing"
)

func benchTable(b *testing.B, rows int) *Store {
	b.Helper()
	s := New("bench")
	if _, err := s.Exec(`CREATE TABLE t (id TEXT PRIMARY KEY, seq INT, name TEXT, price FLOAT)`); err != nil {
		b.Fatal(err)
	}
	batch := ""
	for i := 0; i < rows; i++ {
		if batch != "" {
			batch += ","
		}
		batch += fmt.Sprintf("('k%d', %d, 'name %d', %d.5)", i, i, i%100, i%40)
		if (i+1)%500 == 0 {
			if _, err := s.Exec("INSERT INTO t VALUES " + batch); err != nil {
				b.Fatal(err)
			}
			batch = ""
		}
	}
	if batch != "" {
		if _, err := s.Exec("INSERT INTO t VALUES " + batch); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkSelectPrimaryKey(b *testing.B) {
	s := benchTable(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(fmt.Sprintf(`SELECT * FROM t WHERE id = 'k%d'`, i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectFullScan(b *testing.B) {
	s := benchTable(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(`SELECT id FROM t WHERE price > 35`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectRange is the test bed's range selection: 50 consecutive
// seq values out of 10,000 rows, read through CREATE INDEX ON t (seq) and
// by the scan an unindexed column gets.
func BenchmarkSelectRange(b *testing.B) {
	for _, indexed := range []bool{true, false} {
		name := "scan"
		if indexed {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			s := benchTable(b, 10000)
			if indexed {
				if _, err := s.Exec(`CREATE INDEX ON t (seq)`); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * 50 % 9950
				rows, err := s.Select(fmt.Sprintf(`SELECT * FROM t WHERE seq >= %d AND seq < %d`, lo, lo+50))
				if err != nil || len(rows) != 50 {
					b.Fatalf("%d rows, %v", len(rows), err)
				}
			}
		})
	}
}

func BenchmarkSelectLike(b *testing.B) {
	s := benchTable(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(`SELECT id FROM t WHERE name LIKE '%42%'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetBatch(b *testing.B) {
	s := benchTable(b, 10000)
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i*97%10000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetBatch("t", keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	const q = `SELECT id, name FROM t WHERE (price > 10 AND name LIKE '%x%') OR id IN ('a', 'b') ORDER BY price DESC LIMIT 10 OFFSET 5`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
