// Package relstore implements an embedded relational engine with a small SQL
// dialect. It stands in for the MySQL instance of the paper's polystore: the
// sales department's transactions database, queried with SQL, with primary
// keys providing the key-based access paths the augmentation operator needs
// and ordered secondary indexes serving range selections.
//
// The engine is deliberately self-contained (stdlib only) and safe for
// concurrent use. DDL and loads go through Exec, queries through Select; both
// accept the textual dialect documented in the package-level grammar below.
//
// Grammar (informal), executed:
//
//	CREATE TABLE t (col TEXT|INT|FLOAT [PRIMARY KEY], ...)
//	CREATE INDEX ON t (col)      -- ordered; serves =, <, <=, >, >=, BETWEEN
//	INSERT INTO t [(cols)] VALUES (lit, ...), (...)
//	SELECT */cols FROM t [WHERE expr] [ORDER BY col [ASC|DESC]] [LIMIT n] [OFFSET n]
//
// with expr combining comparisons (=, !=, <>, <, >, <=, >=, LIKE, IN,
// BETWEEN) with AND, OR, NOT and parentheses.
//
// Parsed for the validator's refusal, not executed: UPDATE, DELETE, SELECT
// DISTINCT, aggregates (COUNT, SUM, AVG, MIN, MAX) and FROM t1 JOIN t2 ON
// a = b. None of them returns data objects or runs in augmented mode, so
// Parse classifies them and Exec and Select return an error without
// touching the store.
//
// An index changes how rows are found, never which: a SELECT whose WHERE
// AND-s a comparison or BETWEEN on an indexed column against a numeric
// literal (or '=' against a text one) reads the index's candidates, and
// every other WHERE scans. Either way the full WHERE is evaluated on each
// row read, so the answer and its row order are the scan's.
package relstore

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"quepa/internal/stores/ordindex"
	"quepa/internal/telemetry"
)

// Row is a query result: the owning table, the row's primary key (or
// synthetic row id) and the projected columns, as parallel name and value
// slices sorted by column name. Both are views of the table's storage, shared
// with every other read of the row, so they must not be written: rows are
// immutable once inserted, and a projection of some columns gets fresh ones.
type Row struct {
	Table  string
	Key    string
	Names  []string
	Values []string
}

// Store is an embedded relational database.
type Store struct {
	name   string
	mu     sync.RWMutex
	tables map[string]*table
	tel    telemetry.StoreOps
}

// table stores each row as one value slice in column-name order, parallel to
// names, so a read hands out the stored slice and the shared names instead
// of building a row of its own (DESIGN §3.17). cols keeps the declaration
// order an INSERT without a column list follows.
type table struct {
	name      string
	cols      []columnDef
	names     []string                   // column names, sorted: the storage order
	colIdx    map[string]int             // column name -> storage position
	pk        int                        // storage position of the primary key, -1 when the table has a synthetic rowid
	rows      map[string][]string        // key -> values (parallel to names)
	order     []string                   // insertion order of keys for deterministic scans
	indexes   map[string]*ordindex.Index // column -> ordered index
	nextRowID uint64
}

// New creates an empty relational database with the given name.
func New(name string) *Store {
	return &Store{name: name, tables: map[string]*table{}, tel: telemetry.NewStoreOps(name)}
}

// Name returns the database name.
func (s *Store) Name() string { return s.name }

// Tables lists the table names in sorted order.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Exec parses and executes CREATE TABLE, CREATE INDEX or INSERT, returning
// the number of inserted rows (0 for DDL).
func (s *Store) Exec(sql string) (int, error) {
	st, err := parse(sql)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch st := st.(type) {
	case *createTableStmt:
		return 0, s.createTable(st)
	case *createIndexStmt:
		return 0, s.createIndex(st)
	case *insertStmt:
		return s.insert(st)
	case *deleteStmt, *updateStmt:
		return 0, fmt.Errorf("relstore: UPDATE and DELETE are parsed, not executed")
	case *selectStmt:
		return 0, fmt.Errorf("relstore: use Select for queries")
	default:
		return 0, fmt.Errorf("relstore: unsupported statement %T", st)
	}
}

// Select parses and executes a SELECT statement. A JOIN, an aggregate or
// DISTINCT is refused with an error: see the package grammar.
func (s *Store) Select(sql string) ([]Row, error) {
	defer s.tel.Query.Since(telemetry.Now())
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("relstore: Select requires a SELECT statement")
	}
	switch {
	case sel.join != nil:
		return nil, fmt.Errorf("relstore: JOIN is parsed, not executed")
	case sel.hasAggregate():
		return nil, fmt.Errorf("relstore: aggregates are parsed, not executed")
	case sel.distinct:
		return nil, fmt.Errorf("relstore: DISTINCT is parsed, not executed")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.runSelect(sel)
}

// Parse exposes statement parsing for the validator, which must inspect a
// query (e.g. for aggregates) without executing it. The returned Statement is
// opaque outside this package; use the Inspect helpers.
func Parse(sql string) (Statement, error) {
	st, err := parse(sql)
	if err != nil {
		return Statement{}, err
	}
	return Statement{st}, nil
}

// Statement is a parsed SQL statement handle exposed to the validator.
type Statement struct{ inner statement }

// IsSelect reports whether the statement is a SELECT.
func (st Statement) IsSelect() bool {
	_, ok := st.inner.(*selectStmt)
	return ok
}

// HasAggregate reports whether the statement is a SELECT using aggregates.
func (st Statement) HasAggregate() bool {
	sel, ok := st.inner.(*selectStmt)
	return ok && sel.hasAggregate()
}

// HasJoin reports whether the statement is a SELECT joining two tables.
// Joined rows are not data objects, so the validator rejects such queries
// in augmented mode.
func (st Statement) HasJoin() bool {
	sel, ok := st.inner.(*selectStmt)
	return ok && sel.join != nil
}

// HasDistinct reports whether the statement is a SELECT DISTINCT. Distinct
// column values are not data objects, so the validator rejects such queries
// in augmented mode.
func (st Statement) HasDistinct() bool {
	sel, ok := st.inner.(*selectStmt)
	return ok && sel.distinct
}

// Table returns the table the statement targets, if any.
func (st Statement) Table() string {
	switch n := st.inner.(type) {
	case *selectStmt:
		return n.table
	case *insertStmt:
		return n.table
	case *deleteStmt:
		return n.table
	case *updateStmt:
		return n.table
	case *createTableStmt:
		return n.table
	case *createIndexStmt:
		return n.table
	}
	return ""
}

// Get retrieves one row by primary key. The boolean reports presence.
func (s *Store) Get(tableName, key string) (Row, bool, error) {
	defer s.tel.Get.Since(telemetry.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return Row{}, false, fmt.Errorf("relstore: unknown table %q", tableName)
	}
	vals, ok := t.rows[key]
	if !ok {
		return Row{}, false, nil
	}
	return t.row(key, vals), true, nil
}

// GetBatch retrieves many rows by primary key in one round trip, preserving
// the order of found keys and skipping missing ones.
func (s *Store) GetBatch(tableName string, keys []string) ([]Row, error) {
	defer s.tel.GetBatch.Since(telemetry.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("relstore: unknown table %q", tableName)
	}
	out := make([]Row, 0, len(keys))
	for _, k := range keys {
		if vals, ok := t.rows[k]; ok {
			out = append(out, t.row(k, vals))
		}
	}
	return out, nil
}

// row returns the whole stored row: no copy, no allocation.
func (t *table) row(key string, vals []string) Row {
	return Row{Table: t.name, Key: key, Names: t.names, Values: vals}
}

func (s *Store) createTable(st *createTableStmt) error {
	if _, dup := s.tables[st.table]; dup {
		return fmt.Errorf("relstore: table %q already exists", st.table)
	}
	if len(st.columns) == 0 {
		return fmt.Errorf("relstore: table %q has no columns", st.table)
	}
	t := &table{
		name:    st.table,
		cols:    st.columns,
		names:   make([]string, len(st.columns)),
		colIdx:  map[string]int{},
		pk:      -1,
		rows:    map[string][]string{},
		indexes: map[string]*ordindex.Index{},
	}
	for i, c := range st.columns {
		if _, dup := t.colIdx[c.name]; dup {
			return fmt.Errorf("relstore: duplicate column %q in table %q", c.name, st.table)
		}
		t.colIdx[c.name] = i
		t.names[i] = c.name
	}
	sort.Strings(t.names)
	for i, name := range t.names {
		t.colIdx[name] = i
	}
	for _, c := range st.columns {
		if c.primaryKey {
			if t.pk >= 0 {
				return fmt.Errorf("relstore: table %q declares multiple primary keys", st.table)
			}
			t.pk = t.colIdx[c.name]
		}
	}
	s.tables[st.table] = t
	return nil
}

func (s *Store) createIndex(st *createIndexStmt) error {
	t, ok := s.tables[st.table]
	if !ok {
		return fmt.Errorf("relstore: unknown table %q", st.table)
	}
	ci, ok := t.colIdx[st.column]
	if !ok {
		return fmt.Errorf("relstore: unknown column %q in table %q", st.column, st.table)
	}
	if _, dup := t.indexes[st.column]; dup {
		return fmt.Errorf("relstore: index on %s(%s) already exists", st.table, st.column)
	}
	t.indexes[st.column] = ordindex.Build(t.order, func(key string) ordindex.Value {
		return ordindex.ParseValue(t.rows[key][ci])
	})
	return nil
}

func (s *Store) insert(st *insertStmt) (int, error) {
	t, ok := s.tables[st.table]
	if !ok {
		return 0, fmt.Errorf("relstore: unknown table %q", st.table)
	}
	cols := st.columns
	if len(cols) == 0 {
		cols = make([]string, len(t.cols))
		for i, c := range t.cols {
			cols[i] = c.name
		}
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := t.colIdx[c]
		if !ok {
			return 0, fmt.Errorf("relstore: unknown column %q in table %q", c, st.table)
		}
		positions[i] = ci
	}
	inserted := 0
	for _, literals := range st.rows {
		if len(literals) != len(cols) {
			return inserted, fmt.Errorf("relstore: row has %d values for %d columns", len(literals), len(cols))
		}
		vals := make([]string, len(t.names))
		for i, lit := range literals {
			vals[positions[i]] = lit
		}
		var key string
		if t.pk >= 0 {
			key = vals[t.pk]
			if key == "" {
				return inserted, fmt.Errorf("relstore: empty primary key in table %q", st.table)
			}
			if _, dup := t.rows[key]; dup {
				return inserted, fmt.Errorf("relstore: duplicate primary key %q in table %q", key, st.table)
			}
		} else {
			t.nextRowID++
			key = "rowid:" + strconv.FormatUint(t.nextRowID, 10)
		}
		t.rows[key] = vals
		t.order = append(t.order, key)
		for col, idx := range t.indexes {
			idx.Insert(key, ordindex.ParseValue(vals[t.colIdx[col]]))
		}
		inserted++
	}
	return inserted, nil
}

// lookupFunc builds the column resolver used by expression evaluation.
// The pseudo-column "rowid" resolves to the row key for tables without a
// declared primary key.
func (t *table) lookupFunc(key string, vals []string) func(string) (string, bool) {
	return func(col string) (string, bool) {
		if ci, ok := t.colIdx[col]; ok {
			return vals[ci], true
		}
		if col == "rowid" {
			return key, true
		}
		return "", false
	}
}

func (s *Store) runSelect(sel *selectStmt) ([]Row, error) {
	t, ok := s.tables[sel.table]
	if !ok {
		return nil, fmt.Errorf("relstore: unknown table %q", sel.table)
	}
	for _, it := range sel.items {
		if it.column != "" {
			if _, ok := t.colIdx[it.column]; !ok {
				return nil, fmt.Errorf("relstore: unknown column %q in table %q", it.column, sel.table)
			}
		}
	}

	var matched []string
	for _, key := range t.candidateKeys(sel.where) {
		vals, ok := t.rows[key]
		if !ok {
			continue
		}
		match := true
		if sel.where != nil {
			var err error
			match, err = evalExpr(sel.where, t.lookupFunc(key, vals))
			if err != nil {
				return nil, err
			}
		}
		if match {
			matched = append(matched, key)
		}
	}

	if sel.orderBy != "" {
		ci, ok := t.colIdx[sel.orderBy]
		if !ok {
			return nil, fmt.Errorf("relstore: unknown ORDER BY column %q", sel.orderBy)
		}
		asc := sel.orderDir != "DESC"
		sort.SliceStable(matched, func(i, j int) bool {
			c := compareValues(t.rows[matched[i]][ci], t.rows[matched[j]][ci])
			if asc {
				return c < 0
			}
			return c > 0
		})
	}

	if sel.offset > 0 {
		if sel.offset >= len(matched) {
			matched = nil
		} else {
			matched = matched[sel.offset:]
		}
	}
	if sel.limit >= 0 && len(matched) > sel.limit {
		matched = matched[:sel.limit]
	}

	names, cols := t.projection(sel)
	out := make([]Row, len(matched))
	for i, key := range matched {
		vals := t.rows[key]
		if cols != nil {
			projected := make([]string, len(cols))
			for j, c := range cols {
				projected[j] = vals[c]
			}
			vals = projected
		}
		out[i] = Row{Table: t.name, Key: key, Names: names, Values: vals}
	}
	return out, nil
}

// projection resolves a SELECT list once per statement: the projected column
// names in storage order, each once, and their storage positions. cols is nil
// when the list covers every column (* or all of them by name), so each row
// is its stored slice.
func (t *table) projection(sel *selectStmt) (names []string, cols []int) {
	picked := make([]bool, len(t.names))
	n := 0
	for _, it := range sel.items {
		if it.star {
			return t.names, nil
		}
		if c := t.colIdx[it.column]; !picked[c] {
			picked[c] = true
			n++
		}
	}
	if n == len(t.names) {
		return t.names, nil
	}
	names, cols = make([]string, 0, n), make([]int, 0, n)
	for c, ok := range picked {
		if ok {
			names = append(names, t.names[c])
			cols = append(cols, c)
		}
	}
	return names, cols
}

// PrimaryKey returns the primary-key column of a table, or "rowid" when the
// table uses synthetic row ids.
func (s *Store) PrimaryKey(tableName string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return "", fmt.Errorf("relstore: unknown table %q", tableName)
	}
	if t.pk < 0 {
		return "rowid", nil
	}
	return t.names[t.pk], nil
}
