package relstore

import (
	"slices"
	"strconv"

	"quepa/internal/stores/ordindex"
)

// This file chooses how a SELECT finds its rows: the primary key, an ordered
// index, or a scan. Each returns a superset of the matching rows; runSelect
// evaluates the full WHERE on every row read, so the access path never
// changes the answer.

// candidateKeys returns the keys of the rows that can satisfy where, in
// insertion order except for a primary-key IN list, which keeps list order.
// A WHERE naming an unknown column always scans, so whether its error
// surfaces does not depend on the access path.
func (t *table) candidateKeys(where expr) []string {
	if where == nil || !t.resolves(where) {
		return t.order
	}
	if keys, ok := t.primaryKeys(where); ok {
		return keys
	}
	var plan ordindex.Plan
	for _, c := range conjuncts(where, nil) {
		if col, r, ok := indexRange(c); ok && t.indexes[col] != nil {
			plan.And(t.indexes[col], r)
		}
	}
	if keys, ok := plan.Keys(); ok {
		return keys
	}
	return t.order
}

// primaryKeys serves a top-level equality or IN list on the primary key
// whose literals are text: a number never equals text, so the row keyed by
// the literal is its only match. A numeric literal can equal a key spelled
// differently ('1.0' = '1'), so it scans.
func (t *table) primaryKeys(where expr) ([]string, bool) {
	var col string
	var lits []string
	switch n := where.(type) {
	case *compareExpr:
		if n.op != "=" {
			return nil, false
		}
		col, lits = n.column, []string{n.value}
	case *inExpr:
		if n.negate {
			return nil, false
		}
		col, lits = n.column, n.values
	default:
		return nil, false
	}
	if ci, ok := t.colIdx[col]; !ok || ci != t.pk {
		return nil, false
	}
	var keys []string
	for _, v := range lits {
		if mayBeFloat(v) {
			if _, err := strconv.ParseFloat(v, 64); err == nil {
				return nil, false
			}
		}
		if _, exists := t.rows[v]; exists && !slices.Contains(keys, v) {
			keys = append(keys, v)
		}
	}
	return keys, true
}

// conjuncts appends the AND-ed terms of e to out.
func conjuncts(e expr, out []expr) []expr {
	if b, ok := e.(*binaryExpr); ok && b.op == "AND" {
		return conjuncts(b.right, conjuncts(b.left, out))
	}
	return append(out, e)
}

// indexRange returns the column a comparison or BETWEEN constrains and the
// index Range it can match; ok is false for terms an index cannot serve.
func indexRange(e expr) (col string, r ordindex.Range, ok bool) {
	switch n := e.(type) {
	case *compareExpr:
		if op, known := ordindex.SymbolOp(n.op); known {
			r, ok = ordindex.ParseLiteral(op, n.value)
		}
		return n.column, r, ok
	case *betweenExpr:
		if n.negate {
			return "", r, false
		}
		lo, okLo := ordindex.ParseLiteral(ordindex.Ge, n.lo)
		hi, okHi := ordindex.ParseLiteral(ordindex.Le, n.hi)
		return n.column, lo.And(hi), okLo && okHi
	}
	return "", r, false
}

// resolves reports whether every column e names exists.
func (t *table) resolves(e expr) bool {
	has := func(col string) bool {
		_, ok := t.colIdx[col]
		return ok || col == "rowid"
	}
	switch n := e.(type) {
	case *binaryExpr:
		return t.resolves(n.left) && t.resolves(n.right)
	case *notExpr:
		return t.resolves(n.inner)
	case *compareExpr:
		return has(n.column)
	case *inExpr:
		return has(n.column)
	case *betweenExpr:
		return has(n.column)
	}
	return false
}
