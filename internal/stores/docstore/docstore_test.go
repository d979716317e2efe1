package docstore

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func newCatalogue(t *testing.T) *Store {
	t.Helper()
	s := New("catalogue")
	docs := []string{
		`{"_id": "d1", "title": "Wish", "artist": "The Cure", "artist_id": "a1", "year": 1992, "tracks": ["Open", "High", "Apart"]}`,
		`{"_id": "d2", "title": "Disintegration", "artist": "The Cure", "artist_id": "a1", "year": 1989}`,
		`{"_id": "d3", "title": "OK Computer", "artist": "Radiohead", "artist_id": "a2", "year": 1997, "label": {"name": "Parlophone", "country": "UK"}}`,
		`{"_id": "d4", "title": "Dummy", "artist": "Portishead", "artist_id": "a3", "year": 1994}`,
	}
	for _, d := range docs {
		if _, err := s.Insert("albums", d); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	return s
}

func TestInsertAndGet(t *testing.T) {
	s := newCatalogue(t)
	d, ok := s.Get("albums", "d1")
	if !ok {
		t.Fatal("Get d1 missing")
	}
	if got := fieldsMap(d)["title"]; got != "Wish" {
		t.Errorf("title = %q", got)
	}
	if _, ok := s.Get("albums", "ghost"); ok {
		t.Error("missing doc reported present")
	}
	if _, ok := s.Get("ghosts", "d1"); ok {
		t.Error("missing collection reported present")
	}
}

func TestInsertGeneratedID(t *testing.T) {
	s := New("db")
	id, err := s.Insert("c", `{"a": 1}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "doc:") {
		t.Errorf("generated id = %q", id)
	}
	if _, ok := s.Get("c", id); !ok {
		t.Error("generated-id doc not retrievable")
	}
}

func TestInsertErrors(t *testing.T) {
	s := newCatalogue(t)
	if _, err := s.Insert("albums", `{"_id": "d1"}`); err == nil {
		t.Error("duplicate _id should fail")
	}
	if _, err := s.Insert("albums", `{"_id": 42}`); err == nil {
		t.Error("non-string _id should fail")
	}
	if _, err := s.Insert("albums", `{"_id": ""}`); err == nil {
		t.Error("empty _id should fail")
	}
	if _, err := s.Insert("albums", `not json`); err == nil {
		t.Error("invalid JSON should fail")
	}
}

func TestFindFilters(t *testing.T) {
	s := newCatalogue(t)
	tests := []struct {
		filter string
		want   []string
	}{
		{`{}`, []string{"d1", "d2", "d3", "d4"}},
		{``, []string{"d1", "d2", "d3", "d4"}},
		{`{"artist": "The Cure"}`, []string{"d1", "d2"}},
		{`{"year": 1992}`, []string{"d1"}},
		{`{"year": {"$gt": 1992}}`, []string{"d3", "d4"}},
		{`{"year": {"$gte": 1992}}`, []string{"d1", "d3", "d4"}},
		{`{"year": {"$lt": 1990}}`, []string{"d2"}},
		{`{"year": {"$lte": 1989}}`, []string{"d2"}},
		{`{"year": {"$ne": 1992}}`, []string{"d2", "d3", "d4"}},
		{`{"artist": {"$in": ["Radiohead", "Portishead"]}}`, []string{"d3", "d4"}},
		{`{"title": {"$regex": "wish"}}`, []string{"d1"}},
		{`{"title": {"$regex": "^D"}}`, []string{"d2", "d4"}},
		{`{"artist": "The Cure", "year": 1989}`, []string{"d2"}},
		{`{"$or": [{"year": 1992}, {"year": 1994}]}`, []string{"d1", "d4"}},
		{`{"$and": [{"artist": "The Cure"}, {"year": {"$gt": 1990}}]}`, []string{"d1"}},
		{`{"label.name": "Parlophone"}`, []string{"d3"}},
		{`{"tracks": "High"}`, []string{"d1"}}, // implicit array membership
		{`{"tracks.1": "High"}`, []string{"d1"}},
		{`{"ghostfield": "x"}`, nil},
		{`{"year": {"$gt": 1990, "$lt": 1995}}`, []string{"d1", "d4"}},
	}
	for _, tt := range tests {
		docs, err := s.Find("albums", tt.filter)
		if err != nil {
			t.Errorf("Find(%s): %v", tt.filter, err)
			continue
		}
		var got []string
		for _, d := range docs {
			got = append(got, d.ID)
		}
		if strings.Join(got, ",") != strings.Join(tt.want, ",") {
			t.Errorf("Find(%s) = %v, want %v", tt.filter, got, tt.want)
		}
	}
}

func TestFindErrors(t *testing.T) {
	s := newCatalogue(t)
	for _, filter := range []string{
		`{"$bogus": []}`,
		`{"a": {"$bogus": 1}}`,
		`{"a": {"$regex": "["}}`,
		`{"a": {"$regex": 42}}`,
		`{"$and": "notarray"}`,
		`{"$or": [42]}`,
		`invalid`,
	} {
		if _, err := s.Find("albums", filter); err == nil {
			t.Errorf("Find(%s) should fail", filter)
		}
	}
	if _, err := s.Find("ghosts", `{}`); err == nil {
		t.Error("Find on unknown collection should fail")
	}
	// $in with a non-array arg fails when the filter compiles, so even an
	// empty collection (or an index that yields no candidate) rejects it.
	if _, err := s.Find("albums", `{"year": {"$in": 1992}}`); err == nil {
		t.Error("$in with non-array should fail")
	}
	if _, err := New("db").Find("albums", `{"year": {"$in": 1992}}`); err == nil {
		t.Error("$in with non-array should fail on an unknown collection too")
	}
}

// TestCountAndQuery: Query executes find; count parses, so the validator
// can refuse it as an aggregate, but Query refuses it and changes nothing.
func TestCountAndQuery(t *testing.T) {
	s := newCatalogue(t)
	docs, err := s.Query(`albums.find({"year": {"$gt": 1990}})`)
	if err != nil || len(docs) != 3 {
		t.Errorf("Query find: %d docs, %v", len(docs), err)
	}
	all, _ := s.Query(`albums.find({})`)
	if _, verb, _, err := ParseQuery(`albums.count({})`); err != nil || verb != "count" {
		t.Errorf("ParseQuery(count) = %q, %v", verb, err)
	}
	if docs, err := s.Query(`albums.count({})`); err == nil {
		t.Errorf("Query count executed: %+v", docs)
	}
	if after, _ := s.Query(`albums.find({})`); !slices.Equal(after, all) {
		t.Errorf("refused count changed the collection: %d docs, want %d", len(after), len(all))
	}
	if _, err := s.Query(`albums.drop({})`); err == nil {
		t.Error("unknown verb should fail")
	}
	if _, err := s.Query(`garbage`); err == nil {
		t.Error("malformed query should fail")
	}
}

func TestParseQuery(t *testing.T) {
	c, v, f, err := ParseQuery(`albums.find({"a": 1})`)
	if err != nil || c != "albums" || v != "find" || f != `{"a": 1}` {
		t.Errorf("ParseQuery = %q %q %q %v", c, v, f, err)
	}
	if _, _, _, err := ParseQuery(`albums.find`); err == nil {
		t.Error("missing parentheses should fail")
	}
}

func TestGetBatch(t *testing.T) {
	s := newCatalogue(t)
	docs := s.GetBatch("albums", []string{"d3", "ghost", "d1"})
	if len(docs) != 2 || docs[0].ID != "d3" || docs[1].ID != "d1" {
		t.Errorf("GetBatch = %+v", docs)
	}
	if s.GetBatch("ghosts", []string{"d1"}) != nil {
		t.Error("GetBatch on missing collection should be nil")
	}
}

func TestDelete(t *testing.T) {
	s := newCatalogue(t)
	if !s.Delete("albums", "d2") {
		t.Error("Delete existing returned false")
	}
	if s.Delete("albums", "d2") {
		t.Error("Delete missing returned true")
	}
	if s.Delete("ghosts", "d2") {
		t.Error("Delete on missing collection returned true")
	}
	docs, _ := s.Find("albums", `{}`)
	if len(docs) != 3 {
		t.Errorf("Find after delete = %d docs", len(docs))
	}
}

func TestFlatten(t *testing.T) {
	s := New("db")
	_, err := s.Insert("c", `{"_id": "x", "a": {"b": {"c": 1.5}}, "arr": [true, null, "s"], "n": 3}`)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.Get("c", "x")
	names, values := d.Fields()
	wantNames := []string{"_id", "a.b.c", "arr.0", "arr.1", "arr.2", "n"}
	wantValues := []string{"x", "1.5", "true", "null", "s", "3"}
	if !slices.Equal(names, wantNames) || !slices.Equal(values, wantValues) {
		t.Errorf("Fields() = %v %v, want %v %v", names, values, wantNames, wantValues)
	}
	if again, _ := d.Fields(); &again[0] != &names[0] {
		t.Error("a second Fields call rebuilt the view")
	}
}

// TestFlattenCollision pins the one case two paths flatten to one name: the
// view keeps the names strictly sorted, and the smaller value wins.
func TestFlattenCollision(t *testing.T) {
	s := New("db")
	if _, err := s.Insert("c", `{"_id": "x", "a.b": "2", "a": {"b": "1"}}`); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Get("c", "x")
	names, values := d.Fields()
	if !slices.Equal(names, []string{"_id", "a.b"}) || values[1] != "1" {
		t.Errorf("Fields() = %v %v", names, values)
	}
}

// fieldsMap returns a document's flattened view as a map.
func fieldsMap(d *Document) map[string]string {
	names, values := d.Fields()
	m := make(map[string]string, len(names))
	for i, name := range names {
		m[name] = values[i]
	}
	return m
}

func TestDocumentJSON(t *testing.T) {
	s := newCatalogue(t)
	d, _ := s.Get("albums", "d4")
	j, err := json.Marshal(d.Body)
	if err != nil || !strings.Contains(string(j), `"title":"Dummy"`) {
		t.Errorf("body as JSON = %s, %v", j, err)
	}
}

func TestCollectionsSorted(t *testing.T) {
	s := New("db")
	s.Insert("zz", `{"a": 1}`)
	s.Insert("aa", `{"a": 1}`)
	got := s.Collections()
	if len(got) != 2 || got[0] != "aa" || got[1] != "zz" {
		t.Errorf("Collections() = %v", got)
	}
}

func TestExistsAndNin(t *testing.T) {
	s := newCatalogue(t)
	tests := []struct {
		filter string
		want   int
	}{
		{`{"label": {"$exists": true}}`, 1}, // only d3 has a label
		{`{"label": {"$exists": false}}`, 3},
		{`{"tracks": {"$exists": true}}`, 1}, // only d1
		{`{"artist": {"$nin": ["The Cure"]}}`, 2},
		{`{"ghost": {"$nin": ["x"]}}`, 4}, // absent fields match $nin
		{`{"year": {"$nin": [1992, 1989]}}`, 2},
	}
	for _, tt := range tests {
		docs, err := s.Find("albums", tt.filter)
		if err != nil {
			t.Errorf("Find(%s): %v", tt.filter, err)
			continue
		}
		if len(docs) != tt.want {
			t.Errorf("Find(%s) = %d docs, want %d", tt.filter, len(docs), tt.want)
		}
	}
	if _, err := s.Find("albums", `{"a": {"$exists": "yes"}}`); err == nil {
		t.Error("$exists with non-boolean should fail")
	}
	if _, err := s.Find("albums", `{"a": {"$nin": 42}}`); err == nil {
		t.Error("$nin with non-array should fail")
	}
}

// TestLookupPathAllocs: resolving a nested path on a decoded body walks
// the path in place and allocates nothing; a filter runs it on every
// document it tests.
func TestLookupPathAllocs(t *testing.T) {
	s := newCatalogue(t)
	d, _ := s.Get("albums", "d3")
	var got any
	avg := testing.AllocsPerRun(100, func() { got, _ = lookupPath(d.Body, "label.country") })
	if got != "UK" {
		t.Fatalf("lookupPath(label.country) = %v, want UK", got)
	}
	if avg != 0 {
		t.Errorf("lookupPath allocates %.1f/op, want 0", avg)
	}
}
