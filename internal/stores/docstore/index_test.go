package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// An ordered index is an access path, not a second semantics: a collection
// with CreateIndex must answer every filter exactly as the same collection
// without it — same documents, same order, same errors — whatever the
// indexed field holds (numbers, ±Inf, NaN, numeric-looking and other
// strings, arrays, booleans, null, objects, nothing) and after any
// interleaving of inserts and deletes.

// docValues are the values a document's "v" may hold; one document in eight
// has no "v" at all.
var docValues = []any{
	1.0, 0.0, math.Copysign(0, -1), 2.5, 10.0, 9.0, -3.0, 1e300,
	math.Inf(1), math.Inf(-1), math.NaN(),
	"1", "01", "1e0", "abc", "ABC", "", "z", "NaN",
	true, false, nil,
	[]any{1.0, "abc"}, []any{}, map[string]any{"x": 1.0},
}

// filterArgs are JSON arguments the random filters compare against.
var filterArgs = []string{
	`1`, `1.0`, `0`, `-0`, `2.5`, `10`, `-3`, `1e300`, `1e400`,
	`"1"`, `"01"`, `"abc"`, `""`, `"z"`, `"NaN"`, `true`, `null`, `[1, "abc"]`, `{"x": 1}`,
}

type docPair struct {
	t          testing.TB
	idx, plain *Store
}

func (p *docPair) insert(rng *rand.Rand, id int) {
	p.t.Helper()
	w := float64(rng.Intn(4))
	body := func() map[string]any { return map[string]any{"_id": fmt.Sprintf("d%d", id), "w": w} }
	a, b := body(), body()
	if rng.Intn(8) != 0 {
		v := docValues[rng.Intn(len(docValues))]
		a["v"], b["v"] = v, v
	}
	_, err1 := p.idx.InsertMap("c", a)
	_, err2 := p.plain.InsertMap("c", b)
	if fmt.Sprint(err1) != fmt.Sprint(err2) {
		p.t.Fatalf("insert d%d: %v vs %v", id, err1, err2)
	}
}

func (p *docPair) check(filter string) {
	p.t.Helper()
	ids := func(s *Store) (string, error) {
		docs, err := s.Find("c", filter)
		var out []string
		for _, d := range docs {
			out = append(out, d.ID)
		}
		return strings.Join(out, ","), err
	}
	got, err1 := ids(p.idx)
	want, err2 := ids(p.plain)
	if got != want || fmt.Sprint(err1) != fmt.Sprint(err2) {
		p.t.Fatalf("%s\nindexed:   %s %v\nunindexed: %s %v", filter, got, err1, want, err2)
	}
}

func randCond(rng *rand.Rand) string {
	path := []string{"v", "v", "w", "v.0"}[rng.Intn(4)]
	arg := func() string { return filterArgs[rng.Intn(len(filterArgs))] }
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf(`{%q: %s}`, path, arg())
	case 1:
		return fmt.Sprintf(`{%q: {"$gte": %s, "$lt": %s}}`, path, arg(), arg())
	case 2:
		return fmt.Sprintf(`{%q: {"$in": [%s, %s]}}`, path, arg(), arg())
	case 3:
		return fmt.Sprintf(`{%q: {"$exists": %v}}`, path, rng.Intn(2) == 0)
	case 4:
		return fmt.Sprintf(`{%q: {"$regex": "1"}}`, path)
	default:
		op := []string{"$eq", "$ne", "$lt", "$lte", "$gt", "$gte", "$nin"}[rng.Intn(7)]
		if op == "$nin" {
			return fmt.Sprintf(`{%q: {"$nin": [%s]}}`, path, arg())
		}
		return fmt.Sprintf(`{%q: {%q: %s}}`, path, op, arg())
	}
}

func randFilter(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		return randCond(rng)
	}
	op := []string{"$and", "$and", "$or"}[rng.Intn(3)]
	return fmt.Sprintf(`{%q: [%s, %s]}`, op, randFilter(rng, depth-1), randFilter(rng, depth-1))
}

func TestIndexEquivalence(t *testing.T) {
	fixed := []string{
		`{"v": 1}`, `{"v": -0}`, `{"v": {"$lt": 2.5}}`, `{"v": {"$lte": 1}}`,
		`{"v": {"$gt": 1e300}}`, `{"v": {"$gte": 1e400}}`, `{"v": "abc"}`, `{"v": "1"}`,
		`{"v": {"$lt": "abc"}}`, `{"v": {"$gte": 0, "$lt": 10}}`, `{"v": {"$gt": 5, "$lt": 1}}`,
		`{"v": {"$gte": 0}, "w": 2}`, `{"$or": [{"v": {"$lt": 1}}, {"w": 3}]}`,
		`{"v": true}`, `{"v": null}`, `{"v": [1, "abc"]}`, `{"v": {"x": 1}}`,
		`{"v": {"$lt": 5, "$in": 3}}`, `{"v": {"$gt": 9, "$exists": "yes"}}`,
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &docPair{t: t, idx: New("idx"), plain: New("plain")}
		next := 0
		for ; next < 30; next++ {
			p.insert(rng, next)
		}
		if err := p.idx.CreateIndex("c", "v"); err != nil {
			t.Fatal(err)
		}
		if err := p.idx.CreateIndex("c", "v.0"); err != nil {
			t.Fatal(err)
		}
		for _, f := range fixed {
			p.check(f)
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			case 0, 1: // a new id, or an old one: a duplicate or a re-insert
				if id := rng.Intn(next + 10); id < next {
					p.insert(rng, id)
				} else {
					p.insert(rng, next)
					next++
				}
			case 2:
				id := fmt.Sprintf("d%d", rng.Intn(next))
				if a, b := p.idx.Delete("c", id), p.plain.Delete("c", id); a != b {
					t.Fatalf("delete %s: %v vs %v", id, a, b)
				}
			default:
				p.check(randFilter(rng, 2))
			}
		}
		for _, f := range fixed {
			p.check(f)
		}
	}
}

func TestCreateIndexErrors(t *testing.T) {
	s := newCatalogue(t)
	if err := s.CreateIndex("albums", "year"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("albums", "year"); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := s.CreateIndex("albums", ""); err == nil {
		t.Error("empty path should fail")
	}
	if err := s.CreateIndex("fresh", "seq"); err != nil {
		t.Fatalf("index on a new collection: %v", err)
	}
	if _, err := s.Insert("fresh", `{"_id": "f1", "seq": 3}`); err != nil {
		t.Fatal(err)
	}
	docs, err := s.Find("fresh", `{"seq": {"$lt": 4}}`)
	if err != nil || len(docs) != 1 {
		t.Errorf("indexed find on a new collection = %v, %v", docs, err)
	}
}

// TestFieldsConcurrent: Fields builds its flattened view on first use, and
// every catalogue answer reaches it from concurrent request goroutines.
// Each round inserts fresh documents, so every round races first uses of
// Fields; under -race this fails if the build is not synchronized.
func TestFieldsConcurrent(t *testing.T) {
	s := New("catalogue")
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			if _, err := s.Insert("albums", fmt.Sprintf(`{"_id": "r%d-%d", "round": %d, "tags": ["a", "b"]}`, round, i, round)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				docs, err := s.Query(fmt.Sprintf(`albums.find({"round": %d})`, round))
				if err != nil || len(docs) != 10 {
					t.Errorf("round %d: %d docs, %v", round, len(docs), err)
					return
				}
				for _, d := range docs {
					if f := fieldsMap(d); f["_id"] != d.ID || f["tags.1"] != "b" {
						t.Errorf("Fields() = %v for %s", f, d.ID)
					}
				}
			}()
		}
		wg.Wait()
	}
}
