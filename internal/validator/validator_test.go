package validator

import (
	"context"
	"errors"
	"strings"
	"testing"

	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
)

var ctx = context.Background()

func newRelConnector(t *testing.T) *connector.Relational {
	t.Helper()
	db := relstore.New("transactions")
	if _, err := db.Exec(`CREATE TABLE inventory (id TEXT PRIMARY KEY, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	return connector.NewRelational(db)
}

func TestRelationalValidation(t *testing.T) {
	c := newRelConnector(t)

	v, err := Validate(ctx, c, `SELECT name FROM inventory WHERE name LIKE '%wish%'`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Rewritten || v.Query != `SELECT id, name FROM inventory WHERE name LIKE '%wish%'` {
		t.Errorf("rewrite = %+v", v)
	}

	v, err = Validate(ctx, c, `SELECT * FROM inventory`)
	if err != nil || v.Rewritten {
		t.Errorf("star query should pass unchanged: %+v, %v", v, err)
	}

	var na *ErrNotAugmentable
	if _, err := Validate(ctx, c, `SELECT COUNT(*) FROM inventory`); !errors.As(err, &na) {
		t.Errorf("aggregate should be not-augmentable, got %v", err)
	}
	if _, err := Validate(ctx, c, `SELECT DISTINCT name FROM inventory`); !errors.As(err, &na) {
		t.Errorf("DISTINCT should be not-augmentable, got %v", err)
	}
	if _, err := Validate(ctx, c, `INSERT INTO inventory VALUES ('1', 'x')`); !errors.As(err, &na) {
		t.Errorf("insert should be not-augmentable, got %v", err)
	}
	if _, err := Validate(ctx, c, `garbage sql`); err == nil {
		t.Error("malformed SQL should fail")
	}
	if _, err := Validate(ctx, c, `SELECT name FROM ghost`); err == nil {
		t.Error("unknown table should fail at key resolution")
	}
}

func TestDocumentValidation(t *testing.T) {
	c := connector.NewDocument(docstore.New("catalogue"))
	v, err := Validate(ctx, c, `albums.find({"artist": "The Cure"})`)
	if err != nil || v.Rewritten {
		t.Errorf("find should pass unchanged: %+v, %v", v, err)
	}
	var na *ErrNotAugmentable
	if _, err := Validate(ctx, c, `albums.count({})`); !errors.As(err, &na) {
		t.Errorf("count should be not-augmentable, got %v", err)
	}
	if _, err := Validate(ctx, c, `albums.find`); err == nil {
		t.Error("malformed query should fail")
	}
}

func TestKeyValueValidation(t *testing.T) {
	c := connector.NewKeyValue(kvstore.New("discount"))
	for _, q := range []string{"GET drop k1", "MGET drop k1 k2", "KEYS drop *", "SCAN drop", "get drop k1"} {
		if v, err := Validate(ctx, c, q); err != nil || v.Query != q {
			t.Errorf("Validate(%q) = %+v, %v", q, v, err)
		}
	}
	var na *ErrNotAugmentable
	for _, q := range []string{"SET drop k v", "DEL drop k", "LEN drop", "EXISTS drop k1", "EXISTS drop ghost"} {
		if _, err := Validate(ctx, c, q); !errors.As(err, &na) {
			t.Errorf("Validate(%q) should be not-augmentable, got %v", q, err)
		}
	}
	if _, err := Validate(ctx, c, "BOGUS x"); err == nil {
		t.Error("unknown command should fail")
	}
	if _, err := Validate(ctx, c, "   "); err == nil {
		t.Error("empty command should fail")
	}
}

func TestGraphValidation(t *testing.T) {
	c := connector.NewGraph(graphstore.New("similar-items"))
	for _, q := range []string{
		`MATCH (n:items) RETURN n`,
		`MATCH (n:items) WHERE n.year > 1990 RETURN n`,
		`NEIGHBORS n1`,
		`NEIGHBORS n1 SIMILAR`,
	} {
		if v, err := Validate(ctx, c, q); err != nil || v.Query != q {
			t.Errorf("Validate(%q) = %+v, %v", q, v, err)
		}
	}
	if _, err := Validate(ctx, c, `DROP EVERYTHING`); err == nil {
		t.Error("malformed graph query should fail")
	}
}

func TestJoinNotAugmentable(t *testing.T) {
	db := relstore.New("transactions")
	if _, err := db.Exec(`CREATE TABLE a (id TEXT PRIMARY KEY, x TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE b (id TEXT PRIMARY KEY, y TEXT)`); err != nil {
		t.Fatal(err)
	}
	c := connector.NewRelational(db)
	var na *ErrNotAugmentable
	if _, err := Validate(ctx, c, `SELECT * FROM a JOIN b ON a.x = b.id`); !errors.As(err, &na) {
		t.Errorf("join should be not-augmentable, got %v", err)
	}
}

// fixtures builds one small store of each engine kind, indexed by kind.
func fixtures(t testing.TB) []core.Store {
	t.Helper()
	rel := relstore.New("transactions")
	for _, sql := range []string{
		`CREATE TABLE inventory (id TEXT PRIMARY KEY, name TEXT, price FLOAT)`,
		`CREATE TABLE sales (id TEXT PRIMARY KEY, item TEXT)`,
		`INSERT INTO inventory VALUES ('a1', 'Wish', 18.5), ('a2', 'Dummy', 15.5)`,
		`INSERT INTO sales VALUES ('s1', 'a1')`,
	} {
		if _, err := rel.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	doc := docstore.New("catalogue")
	if _, err := doc.Insert("albums", `{"_id": "d1", "title": "Wish", "year": 1992}`); err != nil {
		t.Fatal(err)
	}
	kv := kvstore.New("discount")
	kv.Set("drop", "k1", "40%")
	g := graphstore.New("similar-items")
	for _, id := range []string{"n1", "n2"} {
		if err := g.AddNode(id, "items", map[string]string{"year": "1992"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("n1", "n2", "SIMILAR"); err != nil {
		t.Fatal(err)
	}
	return []core.Store{
		connector.NewRelational(rel), connector.NewDocument(doc),
		connector.NewKeyValue(kv), connector.NewGraph(g),
	}
}

// TestRefusedFormsAreNotAugmentable pins every refusal's type and reason:
// the store parsers still classify each form the engines no longer execute.
func TestRefusedFormsAreNotAugmentable(t *testing.T) {
	stores := fixtures(t)
	rel, doc, kv := stores[0], stores[1], stores[2]
	for _, tt := range []struct {
		store  core.Store
		query  string
		reason string
	}{
		{rel, `INSERT INTO inventory VALUES ('a3', 'x', 1)`, "only SELECT queries can be augmented"},
		{rel, `UPDATE inventory SET price = 1`, "only SELECT queries can be augmented"},
		{rel, `DELETE FROM inventory WHERE id = 'a1'`, "only SELECT queries can be augmented"},
		{rel, `SELECT COUNT(*) FROM inventory`, "queries with aggregate functions return values, not data objects"},
		{rel, `SELECT SUM(price) FROM inventory`, "queries with aggregate functions return values, not data objects"},
		{rel, `SELECT * FROM sales JOIN inventory ON item = id`, "joined rows are not data objects with a global key"},
		{rel, `SELECT DISTINCT name FROM inventory`, "DISTINCT returns column values, not data objects"},
		{doc, `albums.count({})`, "count() is an aggregate"},
		{kv, `LEN drop`, "LEN is an aggregate"},
		{kv, `EXISTS drop k1`, "EXISTS returns a boolean, not the stored entry"},
		{kv, `SET drop k2 v`, "writes cannot be augmented"},
		{kv, `DEL drop k1`, "writes cannot be augmented"},
	} {
		var na *ErrNotAugmentable
		if _, err := Validate(ctx, tt.store, tt.query); !errors.As(err, &na) || na.Reason != tt.reason {
			t.Errorf("Validate(%q) = %v; want ErrNotAugmentable %q", tt.query, err, tt.reason)
		}
	}
}

// engineRefusal reports whether err is an engine declining a form it parses
// but does not execute, or a kv command it does not know.
func engineRefusal(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "parsed, not executed") ||
		strings.Contains(err.Error(), "kvstore: unknown command"))
}

// FuzzValidate drives the validator with any query against each engine kind.
// It must not panic; a relational rewrite must be admitted again unchanged;
// and whatever it admits, its engine executes: an admitted query never meets
// an engine refusal.
func FuzzValidate(f *testing.F) {
	for _, seed := range []struct {
		kind  uint8
		query string
	}{
		{0, `SELECT name FROM inventory WHERE price > 16 ORDER BY name LIMIT 1`},
		{0, `SELECT * FROM inventory WHERE id IN ('a1', 'a2')`},
		{0, `SELECT DISTINCT name FROM inventory`},
		{0, `SELECT COUNT(*) FROM inventory`},
		{0, `SELECT * FROM sales JOIN inventory ON item = id`},
		{0, `UPDATE inventory SET price = 1`},
		{1, `albums.find({"year": {"$gt": 1990}})`},
		{1, `albums.count({})`},
		{2, `GET drop k1`},
		{2, `MGET drop k1 ghost`},
		{2, `EXISTS drop ghost`},
		{2, `LEN drop`},
		{3, `MATCH (n:items) WHERE n.year > 1990 RETURN n`},
		{3, `NEIGHBORS n1 SIMILAR`},
	} {
		f.Add(seed.kind, seed.query)
	}
	f.Fuzz(func(t *testing.T, kind uint8, query string) {
		stores := fixtures(t)
		s := stores[int(kind)%len(stores)]
		v, err := Validate(ctx, s, query)
		if err != nil {
			return
		}
		if s.Kind() == core.KindRelational {
			again, err := Validate(ctx, s, v.Query)
			if err != nil || again.Rewritten {
				t.Fatalf("rewrite %q of %q: re-validated as %+v, %v", v.Query, query, again, err)
			}
		}
		if _, err := s.Query(ctx, v.Query); engineRefusal(err) {
			t.Fatalf("admitted %q (run as %q) but its engine refused it: %v", query, v.Query, err)
		}
	})
}
