package relstore

// This file defines the abstract syntax tree of the SQL dialect understood by
// the engine. The dialect covers the fragment the paper's experiments need:
// table creation, inserts, and SELECT with WHERE / ORDER BY / LIMIT, plus the
// forms the augmentation validator must recognize and reject because they do
// not return data objects (Section III-A): UPDATE, DELETE, aggregates,
// DISTINCT and JOIN. The engine parses those but does not execute them.

// statement is the interface implemented by every parsed SQL statement.
type statement interface{ stmt() }

// colType is a declared column type. Storage is dynamically typed (values are
// strings compared numerically when both sides parse as numbers), so the
// declared type is used only for validation and metadata.
type colType int

const (
	typeText colType = iota
	typeInt
	typeFloat
)

// columnDef is one column of a CREATE TABLE statement.
type columnDef struct {
	name       string
	typ        colType
	primaryKey bool
}

// createTableStmt is CREATE TABLE name (col TYPE [PRIMARY KEY], ...).
type createTableStmt struct {
	table   string
	columns []columnDef
}

func (*createTableStmt) stmt() {}

// createIndexStmt is CREATE INDEX ON table (column).
type createIndexStmt struct {
	table  string
	column string
}

func (*createIndexStmt) stmt() {}

// insertStmt is INSERT INTO table [(cols)] VALUES (...), (...).
type insertStmt struct {
	table   string
	columns []string   // empty means "all columns in table order"
	rows    [][]string // literal values per row
}

func (*insertStmt) stmt() {}

// deleteStmt is DELETE FROM table [WHERE expr].
type deleteStmt struct {
	table string
	where expr // nil means delete all rows
}

func (*deleteStmt) stmt() {}

// updateStmt is UPDATE table SET col = literal [, ...] [WHERE expr].
type updateStmt struct {
	table string
	set   map[string]string
	where expr
}

func (*updateStmt) stmt() {}

// aggFunc enumerates the supported aggregate functions.
type aggFunc int

const (
	aggNone aggFunc = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

func (a aggFunc) String() string {
	switch a {
	case aggCount:
		return "COUNT"
	case aggSum:
		return "SUM"
	case aggAvg:
		return "AVG"
	case aggMin:
		return "MIN"
	case aggMax:
		return "MAX"
	default:
		return ""
	}
}

// selectItem is one projection of a SELECT list: either a plain column,
// "*" (star), or an aggregate over a column or "*".
type selectItem struct {
	star   bool
	column string
	agg    aggFunc
}

// joinClause is an INNER JOIN of a second table on an equality condition:
// FROM t1 JOIN t2 ON t1.a = t2.b.
type joinClause struct {
	table    string // right-hand table
	leftCol  string // column of the FROM table
	rightCol string // column of the joined table
}

// selectStmt is the SELECT statement.
type selectStmt struct {
	items    []selectItem
	distinct bool
	table    string
	join     *joinClause // nil for single-table queries
	where    expr        // nil when absent
	orderBy  string
	orderDir string // "ASC" or "DESC"; empty when no ORDER BY
	limit    int    // -1 when no LIMIT
	offset   int    // 0 when no OFFSET
}

func (*selectStmt) stmt() {}

// hasAggregate reports whether any projection is an aggregate function.
// The augmentation validator uses this to reject non-augmentable queries.
func (s *selectStmt) hasAggregate() bool {
	for _, it := range s.items {
		if it.agg != aggNone {
			return true
		}
	}
	return false
}

// expr is a boolean or comparison expression in a WHERE clause.
type expr interface{ exprNode() }

// binaryExpr is AND / OR over two sub-expressions.
type binaryExpr struct {
	op    string // "AND" or "OR"
	left  expr
	right expr
}

func (*binaryExpr) exprNode() {}

// notExpr negates a sub-expression.
type notExpr struct{ inner expr }

func (*notExpr) exprNode() {}

// compareExpr is column OP literal, where OP is one of = != <> < > <= >= LIKE.
type compareExpr struct {
	column string
	op     string
	value  string
}

func (*compareExpr) exprNode() {}

// inExpr is column IN (v1, v2, ...) or column NOT IN (...).
type inExpr struct {
	column string
	values []string
	negate bool
}

func (*inExpr) exprNode() {}

// betweenExpr is column BETWEEN lo AND hi (inclusive on both ends), or the
// NOT BETWEEN negation.
type betweenExpr struct {
	column string
	lo, hi string
	negate bool
}

func (*betweenExpr) exprNode() {}
