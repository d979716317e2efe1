package relstore

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// newInventory builds the running example's inventory table.
func newInventory(t *testing.T) *Store {
	t.Helper()
	s := New("transactions")
	mustExec(t, s, `CREATE TABLE inventory (id TEXT PRIMARY KEY, artist TEXT, name TEXT, price FLOAT)`)
	mustExec(t, s, `INSERT INTO inventory VALUES
		('a32', 'Cure', 'Wish', 18.5),
		('a33', 'Cure', 'Disintegration', 17.0),
		('a34', 'Radiohead', 'OK Computer', 21.0),
		('a35', 'Portishead', 'Dummy', 15.5)`)
	return s
}

// value returns the named column of a row, "" when it is not projected.
func value(r Row, name string) string {
	if i := sort.SearchStrings(r.Names, name); i < len(r.Names) && r.Names[i] == name {
		return r.Values[i]
	}
	return ""
}

func mustExec(t *testing.T, s *Store, sql string) int {
	t.Helper()
	n, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return n
}

func mustSelect(t *testing.T, s *Store, sql string) []Row {
	t.Helper()
	rows, err := s.Select(sql)
	if err != nil {
		t.Fatalf("Select(%s): %v", sql, err)
	}
	return rows
}

func TestCreateInsertSelect(t *testing.T) {
	s := newInventory(t)
	rows := mustSelect(t, s, `SELECT * FROM inventory WHERE name LIKE '%wish%'`)
	if len(rows) != 1 {
		t.Fatalf("LIKE query returned %d rows, want 1", len(rows))
	}
	if rows[0].Key != "a32" || value(rows[0], "artist") != "Cure" {
		t.Errorf("unexpected row %+v", rows[0])
	}
}

func TestSelectComparisons(t *testing.T) {
	s := newInventory(t)
	tests := []struct {
		where string
		want  []string
	}{
		{`price > 17.0`, []string{"a32", "a34"}},
		{`price >= 17.0`, []string{"a32", "a33", "a34"}},
		{`price < 17.0`, []string{"a35"}},
		{`price <= 15.5`, []string{"a35"}},
		{`artist = 'Cure'`, []string{"a32", "a33"}},
		{`artist != 'Cure'`, []string{"a34", "a35"}},
		{`artist <> 'Cure'`, []string{"a34", "a35"}},
		{`artist = 'Cure' AND price > 18`, []string{"a32"}},
		{`artist = 'Radiohead' OR artist = 'Portishead'`, []string{"a34", "a35"}},
		{`NOT artist = 'Cure'`, []string{"a34", "a35"}},
		{`(artist = 'Cure' OR artist = 'Radiohead') AND price > 18`, []string{"a32", "a34"}},
		{`id IN ('a32', 'a35', 'zzz')`, []string{"a32", "a35"}},
		{`id NOT IN ('a32', 'a33', 'a34')`, []string{"a35"}},
		{`name LIKE 'D%'`, []string{"a33", "a35"}},
		{`name LIKE '_ummy'`, []string{"a35"}},
	}
	for _, tt := range tests {
		rows := mustSelect(t, s, `SELECT id FROM inventory WHERE `+tt.where)
		var got []string
		for _, r := range rows {
			got = append(got, r.Key)
		}
		if fmt.Sprint(got) != fmt.Sprint(tt.want) {
			t.Errorf("WHERE %s: got %v, want %v", tt.where, got, tt.want)
		}
	}
}

func TestOrderByLimit(t *testing.T) {
	s := newInventory(t)
	rows := mustSelect(t, s, `SELECT id FROM inventory ORDER BY price DESC LIMIT 2`)
	if len(rows) != 2 || rows[0].Key != "a34" || rows[1].Key != "a32" {
		t.Fatalf("ORDER BY price DESC LIMIT 2 = %+v", rows)
	}
	rows = mustSelect(t, s, `SELECT id FROM inventory ORDER BY price ASC`)
	if rows[0].Key != "a35" {
		t.Errorf("ORDER BY price ASC first row = %v", rows[0].Key)
	}
	rows = mustSelect(t, s, `SELECT id FROM inventory LIMIT 0`)
	if len(rows) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(rows))
	}
}

// contents renders every table's SELECT * answer and row count.
func contents(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	for _, name := range s.Tables() {
		rows := mustSelect(t, s, `SELECT * FROM `+name)
		fmt.Fprintf(&b, "%s %d %v\n", name, len(rows), rows)
	}
	return b.String()
}

// assertRefused requires each statement, a form the engine parses for the
// validator but does not execute, to fail at both entry points and to leave
// every table as it was.
func assertRefused(t *testing.T, s *Store, sqls ...string) {
	t.Helper()
	before := contents(t, s)
	for _, sql := range sqls {
		if _, err := s.Select(sql); err == nil {
			t.Errorf("Select(%s) executed; want an error", sql)
		}
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%s) executed; want an error", sql)
		}
	}
	if after := contents(t, s); after != before {
		t.Errorf("refused statements changed the store:\nbefore %s\nafter  %s", before, after)
	}
}

// TestAggregates: aggregates parse, so the validator can classify them, and
// the engine refuses them.
func TestAggregates(t *testing.T) {
	s := newInventory(t)
	aggs := []string{
		`SELECT COUNT(*) FROM inventory`,
		`SELECT COUNT(*) FROM inventory WHERE artist = 'Cure'`,
		`SELECT SUM(price) FROM inventory WHERE artist = 'Cure'`,
		`SELECT AVG(price) FROM inventory`,
		`SELECT MIN(price) FROM inventory`,
		`SELECT MAX(price) FROM inventory`,
		`SELECT id, COUNT(*) FROM inventory`,
	}
	for _, sql := range aggs {
		if st, err := Parse(sql); err != nil || !st.HasAggregate() {
			t.Errorf("Parse(%s) = aggregate %v, %v", sql, st.HasAggregate(), err)
		}
	}
	assertRefused(t, s, aggs...)
}

func TestDistinct(t *testing.T) {
	s := newInventory(t)
	const sql = `SELECT DISTINCT artist FROM inventory`
	if st, err := Parse(sql); err != nil || !st.HasDistinct() {
		t.Errorf("Parse(%s) = distinct %v, %v", sql, st.HasDistinct(), err)
	}
	if st, _ := Parse(`SELECT artist FROM inventory`); st.HasDistinct() {
		t.Error("plain select reported as DISTINCT")
	}
	assertRefused(t, s, sql)
}

func TestGetAndGetBatch(t *testing.T) {
	s := newInventory(t)
	row, ok, err := s.Get("inventory", "a33")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if value(row, "name") != "Disintegration" {
		t.Errorf("Get returned %+v", row)
	}
	if _, ok, _ := s.Get("inventory", "missing"); ok {
		t.Error("Get of missing key reported present")
	}
	if _, _, err := s.Get("nope", "a"); err == nil {
		t.Error("Get on unknown table should fail")
	}

	rows, err := s.GetBatch("inventory", []string{"a35", "missing", "a32"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Key != "a35" || rows[1].Key != "a32" {
		t.Errorf("GetBatch = %+v", rows)
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	s := newInventory(t)
	assertRefused(t, s,
		`UPDATE inventory SET price = 19.0 WHERE id = 'a32'`,
		`UPDATE inventory SET id = 'x'`,
		`DELETE FROM inventory WHERE artist = 'Cure'`,
		`DELETE FROM inventory`,
	)
}

// newSalesDB adds a sales table to the inventory, for the JOIN tests.
func newSalesDB(t *testing.T) *Store {
	t.Helper()
	s := newInventory(t)
	mustExec(t, s, `CREATE TABLE sales (sid TEXT PRIMARY KEY, item TEXT, customer TEXT, total FLOAT)`)
	mustExec(t, s, `INSERT INTO sales VALUES ('s1', 'a32', 'John', 20.0), ('s2', 'a34', 'Mary', 22.0)`)
	return s
}

// TestJoinErrors: every JOIN is refused, whether or not its tables and
// columns resolve.
func TestJoinErrors(t *testing.T) {
	assertRefused(t, newSalesDB(t),
		`SELECT * FROM sales JOIN inventory ON sales.item = inventory.id`,
		`SELECT customer FROM sales JOIN inventory ON item = id WHERE price > 1 ORDER BY total LIMIT 1`,
		`SELECT * FROM ghost JOIN inventory ON a = b`,
		`SELECT * FROM sales JOIN sales ON item = item`,
		`SELECT COUNT(*) FROM sales JOIN inventory ON item = id`,
	)
}

func TestJoinStatementInspection(t *testing.T) {
	st, err := Parse(`SELECT * FROM sales JOIN inventory ON item = id`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasJoin() || !st.IsSelect() {
		t.Error("join statement misinspected")
	}
	st, err = Parse(`SELECT * FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if st.HasJoin() {
		t.Error("single-table select reported as join")
	}
}

func TestSecondaryIndex(t *testing.T) {
	s := newInventory(t)
	mustExec(t, s, `CREATE INDEX ON inventory (artist)`)
	rows := mustSelect(t, s, `SELECT id FROM inventory WHERE artist = 'Cure'`)
	if len(rows) != 2 {
		t.Fatalf("indexed lookup returned %d rows", len(rows))
	}
	// Index stays consistent under inserts.
	mustExec(t, s, `INSERT INTO inventory VALUES ('a40', 'Cure', 'Pornography', 16.0), ('a41', 'The Cure', 'Faith', 14.0)`)
	rows = mustSelect(t, s, `SELECT id FROM inventory WHERE artist = 'Cure'`)
	if len(rows) != 3 || rows[2].Key != "a40" {
		t.Errorf("index after insert: %+v", rows)
	}
	rows = mustSelect(t, s, `SELECT id FROM inventory WHERE artist = 'The Cure'`)
	if len(rows) != 1 || rows[0].Key != "a41" {
		t.Errorf("index after insert: %+v", rows)
	}
	if _, err := s.Exec(`CREATE INDEX ON inventory (artist)`); err == nil {
		t.Error("duplicate index should fail")
	}
	if _, err := s.Exec(`CREATE INDEX ON inventory (ghost)`); err == nil {
		t.Error("index on unknown column should fail")
	}
}

// TestIndexKeepsNumericEquality pins that an index is an access path, not a
// second semantics: '=' compares numerically, so 10.0 equals 10 whether or
// not the column is indexed.
func TestIndexKeepsNumericEquality(t *testing.T) {
	s := New("db")
	mustExec(t, s, `CREATE TABLE t (id TEXT PRIMARY KEY, price FLOAT)`)
	mustExec(t, s, `INSERT INTO t VALUES ('a', 10.0), ('b', 7)`)
	const q = `SELECT * FROM t WHERE price = 10`
	if rows := mustSelect(t, s, q); len(rows) != 1 || rows[0].Key != "a" {
		t.Fatalf("unindexed %s = %+v, want row a", q, rows)
	}
	mustExec(t, s, `CREATE INDEX ON t (price)`)
	if rows := mustSelect(t, s, q); len(rows) != 1 || rows[0].Key != "a" {
		t.Fatalf("indexed %s = %+v, want row a", q, rows)
	}
}

// TestPrimaryKeyPathKeepsSemantics: the key lookup serves only what a scan
// would answer the same way. A numeric literal can equal a key spelled
// differently, and a repeated IN value still matches its row once.
func TestPrimaryKeyPathKeepsSemantics(t *testing.T) {
	s := New("db")
	mustExec(t, s, `CREATE TABLE n (id INT PRIMARY KEY, v TEXT)`)
	mustExec(t, s, `INSERT INTO n VALUES (1, 'one'), (2, 'two')`)
	for _, q := range []string{
		`SELECT * FROM n WHERE id = 1.0`,
		`SELECT * FROM n WHERE id IN ('1e0')`,
		`SELECT * FROM n WHERE id IN ('1', '1')`,
	} {
		if rows := mustSelect(t, s, q); len(rows) != 1 || rows[0].Key != "1" {
			t.Errorf("%s = %+v, want row 1 once", q, rows)
		}
	}
}

func TestPrimaryKeyFastPath(t *testing.T) {
	s := newInventory(t)
	rows := mustSelect(t, s, `SELECT * FROM inventory WHERE id = 'a34'`)
	if len(rows) != 1 || value(rows[0], "artist") != "Radiohead" {
		t.Fatalf("pk fast path: %+v", rows)
	}
	rows = mustSelect(t, s, `SELECT * FROM inventory WHERE id = 'nope'`)
	if len(rows) != 0 {
		t.Errorf("pk fast path for missing key: %+v", rows)
	}
	rows = mustSelect(t, s, `SELECT * FROM inventory WHERE id IN ('a32', 'a34')`)
	if len(rows) != 2 {
		t.Errorf("pk IN fast path returned %d rows", len(rows))
	}
}

func TestRowIDTables(t *testing.T) {
	s := New("db")
	mustExec(t, s, `CREATE TABLE logs (msg TEXT)`)
	mustExec(t, s, `INSERT INTO logs VALUES ('one'), ('two')`)
	rows := mustSelect(t, s, `SELECT * FROM logs`)
	if len(rows) != 2 {
		t.Fatalf("rowid table scan: %d rows", len(rows))
	}
	if !strings.HasPrefix(rows[0].Key, "rowid:") {
		t.Errorf("synthetic key = %q", rows[0].Key)
	}
	pk, err := s.PrimaryKey("logs")
	if err != nil || pk != "rowid" {
		t.Errorf("PrimaryKey = %q, %v", pk, err)
	}
	rows = mustSelect(t, s, `SELECT * FROM logs WHERE rowid = 'rowid:1'`)
	if len(rows) != 1 || value(rows[0], "msg") != "one" {
		t.Errorf("rowid lookup: %+v", rows)
	}
}

func TestErrorCases(t *testing.T) {
	s := newInventory(t)
	errCases := []string{
		`SELECT * FROM ghost`,
		`SELECT ghost FROM inventory`,
		`SELECT * FROM inventory WHERE ghost = '1'`,
		`SELECT * FROM inventory ORDER BY ghost`,
		`INSERT INTO ghost VALUES ('a')`,
		`INSERT INTO inventory (id) VALUES ('a32')`, // duplicate pk
		`INSERT INTO inventory (ghost) VALUES ('x')`,
		`INSERT INTO inventory (id, artist) VALUES ('z')`, // arity mismatch
		`DELETE FROM ghost`,
		`UPDATE ghost SET a = '1'`,
		`SELECT * FROM inventory WHERE`,
		`SELECT`,
		`FROM inventory`,
		`SELECT * FROM inventory GROUP BY artist`,
		`SELECT * FROM inventory LIMIT 'x'`,
		`SELECT SUM(*) FROM inventory`,
		`CREATE TABLE inventory (id TEXT PRIMARY KEY)`, // duplicate table
		`CREATE TABLE bad ()`,
		`CREATE TABLE bad (a TEXT, a INT)`,
		`CREATE TABLE bad (a TEXT PRIMARY KEY, b INT PRIMARY KEY)`,
	}
	for _, sql := range errCases {
		_, selErr := s.Select(sql)
		_, execErr := s.Exec(sql)
		if selErr == nil && execErr == nil {
			t.Errorf("%s: expected an error from Select or Exec", sql)
		}
	}
	if _, err := s.Exec(`SELECT * FROM inventory`); err == nil {
		t.Error("Exec of SELECT should direct caller to Select")
	}
	if _, err := s.Select(`DELETE FROM inventory`); err == nil {
		t.Error("Select of DELETE should fail")
	}
}

func TestLexerErrors(t *testing.T) {
	for _, sql := range []string{
		`SELECT * FROM t WHERE a = 'unterminated`,
		`SELECT * FROM t WHERE a ! b`,
		"SELECT \x00 FROM t",
	} {
		if _, err := parse(sql); err == nil {
			t.Errorf("parse(%q) should fail", sql)
		}
	}
}

func TestStatementInspection(t *testing.T) {
	st, err := Parse(`SELECT COUNT(*) FROM inventory`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsSelect() || !st.HasAggregate() || st.Table() != "inventory" {
		t.Errorf("inspection of aggregate select: %+v", st)
	}
	st, err = Parse(`SELECT * FROM inventory WHERE id = 'a1'`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsSelect() || st.HasAggregate() {
		t.Error("star select misinspected")
	}
	st, err = Parse(`INSERT INTO x VALUES ('1')`)
	if err != nil {
		t.Fatal(err)
	}
	if st.IsSelect() || st.Table() != "x" {
		t.Error("insert misinspected")
	}
}

func TestTablesAndColumns(t *testing.T) {
	s := newInventory(t)
	if got := s.Tables(); len(got) != 1 || got[0] != "inventory" {
		t.Errorf("Tables() = %v", got)
	}
	// A star select projects every declared column.
	rows := mustSelect(t, s, `SELECT * FROM inventory WHERE id = 'a32'`)
	if len(rows) != 1 {
		t.Fatalf("star select returned %d rows, want 1", len(rows))
	}
	if want := []string{"artist", "id", "name", "price"}; fmt.Sprint(rows[0].Names) != fmt.Sprint(want) {
		t.Errorf("star select columns = %v, want %v", rows[0].Names, want)
	}
}

func TestEscapedQuote(t *testing.T) {
	s := New("db")
	mustExec(t, s, `CREATE TABLE t (id TEXT PRIMARY KEY, v TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES ('1', 'it''s here')`)
	rows := mustSelect(t, s, `SELECT * FROM t WHERE v = 'it''s here'`)
	if len(rows) != 1 {
		t.Fatalf("escaped quote round trip failed: %+v", rows)
	}
}

func TestBetween(t *testing.T) {
	s := newInventory(t)
	tests := []struct {
		where string
		want  int
	}{
		{`price BETWEEN 16 AND 19`, 2},     // a32 (18.5), a33 (17.0)
		{`price BETWEEN 15.5 AND 15.5`, 1}, // inclusive bounds
		{`price NOT BETWEEN 16 AND 19`, 2}, // a34 (21.0), a35 (15.5)
		{`price BETWEEN 100 AND 200`, 0},
		{`artist BETWEEN 'C' AND 'D'`, 2}, // string range: Cure twice
	}
	for _, tt := range tests {
		rows := mustSelect(t, s, `SELECT id FROM inventory WHERE `+tt.where)
		if len(rows) != tt.want {
			t.Errorf("WHERE %s: %d rows, want %d", tt.where, len(rows), tt.want)
		}
	}
	if _, err := s.Select(`SELECT id FROM inventory WHERE price BETWEEN 16`); err == nil {
		t.Error("BETWEEN without AND should fail")
	}
	if _, err := s.Select(`SELECT id FROM inventory WHERE ghost BETWEEN 1 AND 2`); err == nil {
		t.Error("BETWEEN on unknown column should fail")
	}
}

func TestLimitOffset(t *testing.T) {
	s := newInventory(t)
	rows := mustSelect(t, s, `SELECT id FROM inventory ORDER BY price ASC LIMIT 2 OFFSET 1`)
	if len(rows) != 2 || rows[0].Key != "a33" || rows[1].Key != "a32" {
		t.Fatalf("LIMIT 2 OFFSET 1 = %+v", rows)
	}
	rows = mustSelect(t, s, `SELECT id FROM inventory OFFSET 3`)
	if len(rows) != 1 {
		t.Errorf("OFFSET 3 = %d rows", len(rows))
	}
	rows = mustSelect(t, s, `SELECT id FROM inventory OFFSET 100`)
	if len(rows) != 0 {
		t.Errorf("past-end OFFSET = %d rows", len(rows))
	}
	if _, err := s.Select(`SELECT id FROM inventory OFFSET 'x'`); err == nil {
		t.Error("non-numeric OFFSET should fail")
	}
}

func TestBetweenRenderRoundTrip(t *testing.T) {
	st, err := Parse(`SELECT name FROM inventory WHERE price BETWEEN 10 AND 20 OR name NOT BETWEEN 'A' AND 'B' LIMIT 3 OFFSET 2`)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, ok := st.EnsureKeyColumn("id")
	if !ok {
		t.Fatal("expected rewrite")
	}
	if _, err := Parse(rewritten); err != nil {
		t.Fatalf("rendered SQL %q does not parse: %v", rewritten, err)
	}
	if !strings.Contains(rewritten, "BETWEEN 10 AND 20") || !strings.Contains(rewritten, "OFFSET 2") {
		t.Errorf("rendered = %q", rewritten)
	}
}

// TestRowsAreStorageViews pins the row layout: names come back sorted and
// distinct whatever the SELECT list's order, a SELECT that covers every
// column (by * or by name) and a key read both return the stored value slice
// itself, and a narrower projection gets values of its own.
func TestRowsAreStorageViews(t *testing.T) {
	s := newInventory(t)
	stored, ok, err := s.Get("inventory", "a32")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	for _, q := range []string{
		`SELECT * FROM inventory WHERE id = 'a32'`,
		`SELECT price, name, id, artist, name FROM inventory WHERE id = 'a32'`,
	} {
		rows := mustSelect(t, s, q)
		if &rows[0].Values[0] != &stored.Values[0] || &rows[0].Names[0] != &stored.Names[0] {
			t.Errorf("%s: row copied the stored slices", q)
		}
	}
	rows := mustSelect(t, s, `SELECT name, id, name FROM inventory WHERE id = 'a32'`)
	if got := fmt.Sprint(rows[0].Names, rows[0].Values); got != "[id name] [a32 Wish]" {
		t.Errorf("projection = %s, want [id name] [a32 Wish]", got)
	}
	batch, err := s.GetBatch("inventory", []string{"a33", "a32"})
	if err != nil || len(batch) != 2 || &batch[1].Values[0] != &stored.Values[0] {
		t.Errorf("GetBatch did not hand out the stored row: %v, %v", batch, err)
	}
}
