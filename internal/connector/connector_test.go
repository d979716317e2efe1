package connector

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"quepa/internal/core"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
)

var ctx = context.Background()

// The four connectors must all satisfy core.Store.
var (
	_ core.Store  = (*Relational)(nil)
	_ core.Store  = (*Document)(nil)
	_ core.Store  = (*KeyValue)(nil)
	_ core.Store  = (*Graph)(nil)
	_ KeyResolver = (*Relational)(nil)
	_ KeyResolver = (*Document)(nil)
)

func newRelational(t *testing.T) *Relational {
	t.Helper()
	db := relstore.New("transactions")
	if _, err := db.Exec(`CREATE TABLE inventory (id TEXT PRIMARY KEY, artist TEXT, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO inventory VALUES ('a32', 'Cure', 'Wish'), ('a33', 'Cure', 'Disintegration')`); err != nil {
		t.Fatal(err)
	}
	return NewRelational(db)
}

func TestRelationalConnector(t *testing.T) {
	c := newRelational(t)
	if c.Name() != "transactions" || c.Kind() != core.KindRelational {
		t.Errorf("identity: %s %v", c.Name(), c.Kind())
	}
	if cols := c.Collections(); len(cols) != 1 || cols[0] != "inventory" {
		t.Errorf("Collections = %v", cols)
	}
	o, err := c.Get(ctx, "inventory", "a32")
	if err != nil {
		t.Fatal(err)
	}
	if o.GK.String() != "transactions.inventory.a32" || get(o, "name") != "Wish" {
		t.Errorf("Get object = %v", o)
	}
	if _, err := c.Get(ctx, "inventory", "nope"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("missing key error = %v", err)
	}
	objs, err := c.GetBatch(ctx, "inventory", []string{"a33", "missing", "a32"})
	if err != nil || len(objs) != 2 {
		t.Fatalf("GetBatch = %v, %v", objs, err)
	}
	objs, err = c.Query(ctx, `SELECT * FROM inventory WHERE name LIKE '%wish%'`)
	if err != nil || len(objs) != 1 || objs[0].GK.Key != "a32" {
		t.Errorf("Query = %v, %v", objs, err)
	}
	if kf, err := c.KeyField(ctx, "inventory"); err != nil || kf != "id" {
		t.Errorf("KeyField = %q, %v", kf, err)
	}
}

func TestDocumentConnector(t *testing.T) {
	db := docstore.New("catalogue")
	if _, err := db.Insert("albums", `{"_id": "d1", "title": "Wish", "label": {"name": "Fiction"}}`); err != nil {
		t.Fatal(err)
	}
	c := NewDocument(db)
	if c.Kind() != core.KindDocument {
		t.Error("kind")
	}
	o, err := c.Get(ctx, "albums", "d1")
	if err != nil {
		t.Fatal(err)
	}
	if get(o, "label.name") != "Fiction" {
		t.Errorf("flattened fields = %v", o.Fields)
	}
	if _, err := c.Get(ctx, "albums", "nope"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("missing doc error = %v", err)
	}
	objs, err := c.Query(ctx, `albums.find({"title": "Wish"})`)
	if err != nil || len(objs) != 1 || objs[0].GK.Collection != "albums" {
		t.Errorf("Query = %v, %v", objs, err)
	}
	if _, err := c.Query(ctx, `bogus`); err == nil {
		t.Error("bad query should fail")
	}
	if kf, _ := c.KeyField(ctx, "albums"); kf != "_id" {
		t.Errorf("KeyField = %q", kf)
	}
	objs, err = c.GetBatch(ctx, "albums", []string{"d1", "ghost"})
	if err != nil || len(objs) != 1 {
		t.Errorf("GetBatch = %v, %v", objs, err)
	}
}

func TestKeyValueConnector(t *testing.T) {
	db := kvstore.New("discount")
	db.Set("drop", "k1:cure:wish", "40%")
	c := NewKeyValue(db)
	if c.Kind() != core.KindKeyValue {
		t.Error("kind")
	}
	o, err := c.Get(ctx, "drop", "k1:cure:wish")
	if err != nil {
		t.Fatal(err)
	}
	if o.GK.String() != "discount.drop.k1:cure:wish" || get(o, core.ValueField) != "40%" {
		t.Errorf("Get = %v", o)
	}
	if _, err := c.Get(ctx, "drop", "nope"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("missing entry error = %v", err)
	}
	objs, err := c.Query(ctx, "KEYS drop *")
	if err != nil || len(objs) != 1 {
		t.Errorf("Query = %v, %v", objs, err)
	}
	if _, err := c.Query(ctx, "NOPE x"); err == nil {
		t.Error("bad command should fail")
	}
	objs, err = c.GetBatch(ctx, "drop", []string{"k1:cure:wish", "ghost"})
	if err != nil || len(objs) != 1 {
		t.Errorf("GetBatch = %v, %v", objs, err)
	}
}

func TestGraphConnector(t *testing.T) {
	db := graphstore.New("similar-items")
	db.AddNode("n1", "items", map[string]string{"title": "Wish"})
	db.AddNode("n2", "items", map[string]string{"title": "Disintegration"})
	db.AddNode("p1", "people", nil)
	db.AddEdge("n1", "n2", "SIMILAR")
	c := NewGraph(db)
	if c.Kind() != core.KindGraph {
		t.Error("kind")
	}
	o, err := c.Get(ctx, "items", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if o.GK.String() != "similar-items.items.n1" || get(o, "title") != "Wish" {
		t.Errorf("Get = %v", o)
	}
	// A node fetched under the wrong label (collection) is not found.
	if _, err := c.Get(ctx, "people", "n1"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("cross-label Get error = %v", err)
	}
	objs, err := c.GetBatch(ctx, "items", []string{"n1", "p1", "n2"})
	if err != nil || len(objs) != 2 {
		t.Errorf("GetBatch filters labels: %v, %v", objs, err)
	}
	objs, err = c.Query(ctx, `NEIGHBORS n1`)
	if err != nil || len(objs) != 1 || objs[0].GK.Key != "n2" {
		t.Errorf("Query = %v, %v", objs, err)
	}
	if _, err := c.Query(ctx, `garbage`); err == nil {
		t.Error("bad query should fail")
	}
}

// get returns the named field of o, "" when absent.
func get(o core.Object, name string) string {
	v, _ := o.Fields.Get(name)
	return v
}

// engines builds one connector of each kind over n objects of collection
// "c" keyed k0..k(n-1), each with a few fields.
func engines(t testing.TB, n int) []core.Store {
	t.Helper()
	rel := relstore.New("rel")
	if _, err := rel.Exec(`CREATE TABLE c (title TEXT, id TEXT PRIMARY KEY, artist TEXT, year INT)`); err != nil {
		t.Fatal(err)
	}
	doc, kv, graph := docstore.New("doc"), kvstore.New("kv"), graphstore.New("graph")
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, err := rel.Exec(fmt.Sprintf(`INSERT INTO c VALUES ('t%d', '%s', 'a%d', %d)`, i, k, i, 1990+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := doc.Insert("c", fmt.Sprintf(`{"_id": %q, "title": "t%d", "label": {"name": "l%d"}, "tags": ["x", "y"]}`, k, i, i)); err != nil {
			t.Fatal(err)
		}
		kv.Set("c", k, fmt.Sprintf("v%d", i))
		if err := graph.AddNode(k, "c", map[string]string{"title": fmt.Sprintf("t%d", i), "artist": "a", "year": "1999"}); err != nil {
			t.Fatal(err)
		}
	}
	return []core.Store{NewRelational(rel), NewDocument(doc), NewKeyValue(kv), NewGraph(graph)}
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%d", i)
	}
	return out
}

// TestFieldsAreSorted: whatever path an object comes out of an engine by
// (Get, GetBatch or Query), its field names are strictly increasing.
func TestFieldsAreSorted(t *testing.T) {
	queries := map[string]string{
		"rel":   `SELECT year, id, title FROM c WHERE year > 1991`,
		"doc":   `c.find({})`,
		"kv":    `SCAN c`,
		"graph": `MATCH (n:c) RETURN n`,
	}
	for _, s := range engines(t, 8) {
		one, err := s.Get(ctx, "c", "k3")
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.GetBatch(ctx, "c", keys(8))
		if err != nil {
			t.Fatal(err)
		}
		queried, err := s.Query(ctx, queries[s.Name()])
		if err != nil || len(queried) == 0 {
			t.Fatalf("%s: Query = %d objects, %v", s.Name(), len(queried), err)
		}
		for _, o := range append(append(batch, one), queried...) {
			if o.Fields.Len() == 0 {
				t.Errorf("%s: %s has no fields", s.Name(), o.GK)
			}
			for i := 1; i < o.Fields.Len(); i++ {
				prev, _ := o.Fields.At(i - 1)
				if name, _ := o.Fields.At(i); prev >= name {
					t.Errorf("%s: %s fields not strictly sorted: %q before %q", s.Name(), o.GK, prev, name)
				}
			}
		}
	}
}

// TestGetBatchAllocsFlat: a connector's GetBatch makes a fixed number of
// allocations per call, however many keys it reads — no per-object field
// storage.
func TestGetBatchAllocsFlat(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters allocate")
	}
	for _, s := range engines(t, 64) {
		allocs := func(n int) float64 {
			ks := keys(n)
			return testing.AllocsPerRun(20, func() {
				if objs, err := s.GetBatch(ctx, "c", ks); err != nil || len(objs) != n {
					t.Fatalf("%s: GetBatch = %d objects, %v", s.Name(), len(objs), err)
				}
			})
		}
		if small, large := allocs(8), allocs(64); large > small {
			t.Errorf("%s: GetBatch allocations grow with the key count: %v at 8 keys, %v at 64", s.Name(), small, large)
		}
	}
}

// TestReadsShareStorage: two reads of one key hand out views of the same
// storage. The key-value engine stores bare strings, so its reads share the
// names slice and the value's bytes, and each read gets its own
// one-element value slice.
func TestReadsShareStorage(t *testing.T) {
	for _, s := range engines(t, 4) {
		a, err := s.Get(ctx, "c", "k1")
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.GetBatch(ctx, "c", []string{"k1"})
		if err != nil || len(batch) != 1 {
			t.Fatalf("%s: GetBatch = %v, %v", s.Name(), batch, err)
		}
		an, av := backing(a.Fields)
		bn, bv := backing(batch[0].Fields)
		if an != bn {
			t.Errorf("%s: two reads of one key have different names arrays", s.Name())
		}
		if s.Kind() == core.KindKeyValue {
			x, _ := a.Fields.Get(core.ValueField)
			y, _ := batch[0].Fields.Get(core.ValueField)
			if unsafe.StringData(x) != unsafe.StringData(y) {
				t.Errorf("%s: two reads copied the value", s.Name())
			}
		} else if av != bv {
			t.Errorf("%s: two reads of one key have different values arrays", s.Name())
		}
	}
}

// backing returns the addresses of the arrays behind a view's names and
// values.
func backing(f core.Fields) (names, values uintptr) {
	v := reflect.ValueOf(f)
	return v.Field(0).Pointer(), v.Field(1).Pointer()
}

func TestContextCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rc := newRelational(t)
	stores := []core.Store{
		rc,
		NewDocument(docstore.New("d")),
		NewKeyValue(kvstore.New("k")),
		NewGraph(graphstore.New("g")),
	}
	for _, s := range stores {
		if _, err := s.Get(cancelled, "c", "k"); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Get with cancelled ctx = %v", s.Name(), err)
		}
		if _, err := s.GetBatch(cancelled, "c", []string{"k"}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: GetBatch with cancelled ctx = %v", s.Name(), err)
		}
		if _, err := s.Query(cancelled, "q"); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Query with cancelled ctx = %v", s.Name(), err)
		}
	}
}
