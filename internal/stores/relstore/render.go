package relstore

import (
	"strconv"
	"strings"
)

// This file renders SELECT statements back to SQL text. The augmentation
// validator uses it to rewrite queries so that the identifiers of the
// returned data objects are part of the projection (step 3 of the paper's
// Fig. 2): a query like SELECT name FROM inventory is rewritten to
// SELECT id, name FROM inventory before execution.

// EnsureKeyColumn returns the statement's SQL with the given key column added
// to the projection when the statement is a SELECT of rows (no aggregate, no
// DISTINCT) that does not already project it (directly or via *). The
// boolean reports whether a rewrite happened; when false, the returned string
// is the rendering of the original statement.
func (st Statement) EnsureKeyColumn(keyColumn string) (string, bool) {
	sel, ok := st.inner.(*selectStmt)
	if !ok || sel.hasAggregate() || sel.distinct {
		return renderStatement(st.inner), false
	}
	for _, it := range sel.items {
		if it.star || it.column == keyColumn {
			return renderSelect(sel), false
		}
	}
	rewritten := *sel
	rewritten.items = append([]selectItem{{column: keyColumn}}, sel.items...)
	return renderSelect(&rewritten), true
}

func renderStatement(st statement) string {
	if sel, ok := st.(*selectStmt); ok {
		return renderSelect(sel)
	}
	// Only SELECTs are ever rendered; other statements are not rewritten.
	return ""
}

func renderSelect(sel *selectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if sel.distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range sel.items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.agg != aggNone:
			b.WriteString(it.agg.String())
			b.WriteByte('(')
			if it.star {
				b.WriteByte('*')
			} else {
				b.WriteString(it.column)
			}
			b.WriteByte(')')
		case it.star:
			b.WriteByte('*')
		default:
			b.WriteString(it.column)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(sel.table)
	if sel.where != nil {
		b.WriteString(" WHERE ")
		renderExpr(&b, sel.where)
	}
	if sel.orderBy != "" {
		b.WriteString(" ORDER BY ")
		b.WriteString(sel.orderBy)
		b.WriteByte(' ')
		b.WriteString(sel.orderDir)
	}
	if sel.limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(sel.limit))
	}
	if sel.offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(strconv.Itoa(sel.offset))
	}
	return b.String()
}

func renderExpr(b *strings.Builder, e expr) {
	switch n := e.(type) {
	case *binaryExpr:
		b.WriteByte('(')
		renderExpr(b, n.left)
		b.WriteByte(' ')
		b.WriteString(n.op)
		b.WriteByte(' ')
		renderExpr(b, n.right)
		b.WriteByte(')')
	case *notExpr:
		b.WriteString("NOT (")
		renderExpr(b, n.inner)
		b.WriteByte(')')
	case *compareExpr:
		b.WriteString(n.column)
		b.WriteByte(' ')
		b.WriteString(n.op)
		b.WriteByte(' ')
		renderLiteral(b, n.value)
	case *inExpr:
		b.WriteString(n.column)
		if n.negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, v := range n.values {
			if i > 0 {
				b.WriteString(", ")
			}
			renderLiteral(b, v)
		}
		b.WriteByte(')')
	case *betweenExpr:
		b.WriteString(n.column)
		if n.negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		renderLiteral(b, n.lo)
		b.WriteString(" AND ")
		renderLiteral(b, n.hi)
	}
}

// renderLiteral quotes a value as a SQL string literal unless it is a plain
// number, doubling embedded quotes. A plain number is one the lexer reads
// back as one number token: strconv.ParseFloat also takes "0E0", "Inf" and
// hex floats, which the dialect spells only as strings. ParseFloat runs last,
// once the cheap checks (stricter than mayBeFloat) have passed, so a
// non-numeric value pays no error allocation.
func renderLiteral(b *strings.Builder, v string) {
	digits := strings.TrimPrefix(v, "-")
	if digits != "" && digits[0] >= '0' && digits[0] <= '9' && strings.Trim(digits, "0123456789.") == "" {
		if _, err := strconv.ParseFloat(v, 64); err == nil {
			b.WriteString(v)
			return
		}
	}
	b.WriteByte('\'')
	b.WriteString(strings.ReplaceAll(v, "'", "''"))
	b.WriteByte('\'')
}
