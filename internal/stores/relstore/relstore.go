// Package relstore implements an embedded relational engine with a small SQL
// dialect. It stands in for the MySQL instance of the paper's polystore: the
// sales department's transactions database, queried with SQL, with primary
// keys providing the key-based access paths the augmentation operator needs
// and ordered secondary indexes serving range selections.
//
// The engine is deliberately self-contained (stdlib only) and safe for
// concurrent use. DDL and DML go through Exec, queries through Select; both
// accept the textual dialect documented in the package-level grammar below.
//
// Grammar (informal):
//
//	CREATE TABLE t (col TEXT|INT|FLOAT [PRIMARY KEY], ...)
//	CREATE INDEX ON t (col)      -- ordered; serves =, <, <=, >, >=, BETWEEN
//	INSERT INTO t [(cols)] VALUES (lit, ...), (...)
//	UPDATE t SET col = lit [, ...] [WHERE expr]
//	DELETE FROM t [WHERE expr]
//	SELECT */cols/aggs FROM t [WHERE expr] [ORDER BY col [ASC|DESC]] [LIMIT n]
//
// with expr combining comparisons (=, !=, <>, <, >, <=, >=, LIKE, IN) with
// AND, OR, NOT and parentheses. Aggregates are COUNT, SUM, AVG, MIN, MAX.
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
	"sync/atomic"

	"quepa/internal/stores/ordindex"
	"quepa/internal/telemetry"
)

// Row is a query result: the owning table, the row's primary key (or
// synthetic row id) and the projected column values.
type Row struct {
	Table  string
	Key    string
	Values map[string]string
}

// Store is an embedded relational database.
type Store struct {
	name       string
	mu         sync.RWMutex
	tables     map[string]*table
	roundTrips atomic.Uint64
	tel        telemetry.StoreOps
}

type table struct {
	name      string
	cols      []columnDef
	colIdx    map[string]int
	pk        int                        // index into cols, -1 when the table has a synthetic rowid
	rows      map[string][]string        // key -> values (parallel to cols)
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

// RoundTrips returns the number of public engine calls served so far.
func (s *Store) RoundTrips() uint64 { return s.roundTrips.Load() }

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

// Exec parses and executes a DDL or DML statement, returning the number of
// affected rows (0 for DDL).
func (s *Store) Exec(sql string) (int, error) {
	s.roundTrips.Add(1)
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
	case *deleteStmt:
		return s.delete(st)
	case *updateStmt:
		return s.update(st)
	case *selectStmt:
		return 0, fmt.Errorf("relstore: use Select for queries")
	default:
		return 0, fmt.Errorf("relstore: unsupported statement %T", st)
	}
}

// Select parses and executes a SELECT statement.
func (s *Store) Select(sql string) ([]Row, error) {
	s.roundTrips.Add(1)
	defer s.tel.Query.Since(telemetry.Now())
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("relstore: Select requires a SELECT statement")
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
	s.roundTrips.Add(1)
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
	return t.materialize(key, vals), true, nil
}

// GetBatch retrieves many rows by primary key in one round trip, preserving
// the order of found keys and skipping missing ones.
func (s *Store) GetBatch(tableName string, keys []string) ([]Row, error) {
	s.roundTrips.Add(1)
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
			out = append(out, t.materialize(k, vals))
		}
	}
	return out, nil
}

func (t *table) materialize(key string, vals []string) Row {
	m := make(map[string]string, len(t.cols))
	for i, c := range t.cols {
		m[c.name] = vals[i]
	}
	return Row{Table: t.name, Key: key, Values: m}
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
		if c.primaryKey {
			if t.pk >= 0 {
				return fmt.Errorf("relstore: table %q declares multiple primary keys", st.table)
			}
			t.pk = i
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
		vals := make([]string, len(t.cols))
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

func (s *Store) delete(st *deleteStmt) (int, error) {
	t, ok := s.tables[st.table]
	if !ok {
		return 0, fmt.Errorf("relstore: unknown table %q", st.table)
	}
	var kept []string
	deleted := 0
	for _, key := range t.order {
		vals := t.rows[key]
		match := true
		if st.where != nil {
			var err error
			match, err = evalExpr(st.where, t.lookupFunc(key, vals))
			if err != nil {
				return deleted, err
			}
		}
		if !match {
			kept = append(kept, key)
			continue
		}
		delete(t.rows, key)
		deleted++
	}
	t.order = kept
	if deleted > 0 {
		for _, idx := range t.indexes {
			idx.Retain(func(key string) bool {
				_, ok := t.rows[key]
				return ok
			})
		}
	}
	return deleted, nil
}

func (s *Store) update(st *updateStmt) (int, error) {
	t, ok := s.tables[st.table]
	if !ok {
		return 0, fmt.Errorf("relstore: unknown table %q", st.table)
	}
	for col := range st.set {
		if _, ok := t.colIdx[col]; !ok {
			return 0, fmt.Errorf("relstore: unknown column %q in table %q", col, st.table)
		}
		if t.pk >= 0 && t.colIdx[col] == t.pk {
			return 0, fmt.Errorf("relstore: updating the primary key is not supported")
		}
	}
	updated := 0
	for _, key := range t.order {
		vals := t.rows[key]
		match := true
		if st.where != nil {
			var err error
			match, err = evalExpr(st.where, t.lookupFunc(key, vals))
			if err != nil {
				return updated, err
			}
		}
		if !match {
			continue
		}
		for col, newVal := range st.set {
			ci := t.colIdx[col]
			if idx, indexed := t.indexes[col]; indexed {
				idx.Move(key, ordindex.ParseValue(vals[ci]), ordindex.ParseValue(newVal))
			}
			vals[ci] = newVal
		}
		updated++
	}
	return updated, nil
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
	if sel.join != nil {
		return s.runJoinSelect(sel)
	}
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

	if sel.hasAggregate() {
		return t.aggregate(sel, matched)
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

	out := make([]Row, 0, len(matched))
	seen := map[string]bool{}
	for _, key := range matched {
		row := t.project(sel, key)
		if sel.distinct {
			sig := rowSignature(row)
			if seen[sig] {
				continue
			}
			seen[sig] = true
		}
		out = append(out, row)
	}
	return out, nil
}

func (t *table) project(sel *selectStmt, key string) Row {
	vals := t.rows[key]
	m := map[string]string{}
	for _, it := range sel.items {
		if it.star {
			for i, c := range t.cols {
				m[c.name] = vals[i]
			}
			continue
		}
		m[it.column] = vals[t.colIdx[it.column]]
	}
	return Row{Table: t.name, Key: key, Values: m}
}

func rowSignature(r Row) string {
	names := make([]string, 0, len(r.Values))
	for n := range r.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb []byte
	for _, n := range names {
		sb = append(sb, n...)
		sb = append(sb, 0x1)
		sb = append(sb, r.Values[n]...)
		sb = append(sb, 0x2)
	}
	return string(sb)
}

func (t *table) aggregate(sel *selectStmt, keys []string) ([]Row, error) {
	m := map[string]string{}
	for _, it := range sel.items {
		if it.agg == aggNone {
			return nil, fmt.Errorf("relstore: mixing aggregates and plain columns is not supported")
		}
		label := it.agg.String() + "("
		if it.star {
			label += "*"
		} else {
			label += it.column
		}
		label += ")"
		if it.agg == aggCount {
			m[label] = strconv.Itoa(len(keys))
			continue
		}
		ci := t.colIdx[it.column]
		var sum float64
		var minV, maxV float64
		count := 0
		for _, key := range keys {
			f, err := strconv.ParseFloat(t.rows[key][ci], 64)
			if err != nil {
				return nil, fmt.Errorf("relstore: non-numeric value %q in %s", t.rows[key][ci], label)
			}
			if count == 0 {
				minV, maxV = f, f
			} else {
				if f < minV {
					minV = f
				}
				if f > maxV {
					maxV = f
				}
			}
			sum += f
			count++
		}
		switch it.agg {
		case aggSum:
			m[label] = formatFloat(sum)
		case aggAvg:
			if count == 0 {
				m[label] = "0"
			} else {
				m[label] = formatFloat(sum / float64(count))
			}
		case aggMin:
			if count == 0 {
				m[label] = ""
			} else {
				m[label] = formatFloat(minV)
			}
		case aggMax:
			if count == 0 {
				m[label] = ""
			} else {
				m[label] = formatFloat(maxV)
			}
		}
	}
	return []Row{{Table: t.name, Key: "aggregate", Values: m}}, nil
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
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
	return t.cols[t.pk].name, nil
}

// Len returns the number of rows in a table (0 for unknown tables).
func (s *Store) Len(tableName string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tableName]; ok {
		return len(t.order)
	}
	return 0
}
