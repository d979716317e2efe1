package relstore

import (
	"fmt"
	"strconv"
	"strings"
)

// compareValues orders two stored values. When both parse as floating-point
// numbers they compare numerically; otherwise they compare as strings. This
// dynamic typing mirrors lightweight engines and keeps the storage uniform.
func compareValues(a, b string) int {
	if mayBeFloat(a) && mayBeFloat(b) {
		fa, errA := strconv.ParseFloat(a, 64)
		fb, errB := strconv.ParseFloat(b, 64)
		if errA == nil && errB == nil {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(a, b)
}

// mayBeFloat reports whether strconv.ParseFloat might accept s: after an
// optional sign, s starts with a digit, '.', or the first letter of "inf",
// "infinity" or "nan" in either case. A false answer means ParseFloat
// rejects s, so callers skip it on identifiers like "a12", whose rejection
// allocates a *strconv.NumError (FuzzMayBeFloat).
func mayBeFloat(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// matchLike implements the SQL LIKE operator: '%' matches any (possibly
// empty) sequence, '_' matches exactly one character. Matching is
// case-insensitive, following MySQL's default collation, which the paper's
// running example relies on ("name like '%wish%'" matching "Wish").
func matchLike(value, pattern string) bool {
	return likeMatch(strings.ToLower(value), strings.ToLower(pattern))
}

func likeMatch(v, p string) bool {
	// Iterative matcher with backtracking on the last '%' seen.
	vi, pi := 0, 0
	star, vStar := -1, 0
	for vi < len(v) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star = pi
			vStar = vi
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == v[vi]):
			vi++
			pi++
		case star >= 0:
			pi = star + 1
			vStar++
			vi = vStar
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// evalExpr evaluates a WHERE expression against a row presented as a
// column-name → value lookup. Unknown columns evaluate to an error so typos
// surface instead of silently filtering everything out.
func evalExpr(e expr, lookup func(string) (string, bool)) (bool, error) {
	switch n := e.(type) {
	case *binaryExpr:
		l, err := evalExpr(n.left, lookup)
		if err != nil {
			return false, err
		}
		// Short-circuit evaluation.
		if n.op == "AND" && !l {
			return false, nil
		}
		if n.op == "OR" && l {
			return true, nil
		}
		return evalExpr(n.right, lookup)
	case *notExpr:
		v, err := evalExpr(n.inner, lookup)
		return !v, err
	case *compareExpr:
		v, ok := lookup(n.column)
		if !ok {
			return false, fmt.Errorf("relstore: unknown column %q", n.column)
		}
		switch n.op {
		case "=":
			return compareValues(v, n.value) == 0, nil
		case "!=":
			return compareValues(v, n.value) != 0, nil
		case "<":
			return compareValues(v, n.value) < 0, nil
		case ">":
			return compareValues(v, n.value) > 0, nil
		case "<=":
			return compareValues(v, n.value) <= 0, nil
		case ">=":
			return compareValues(v, n.value) >= 0, nil
		case "LIKE":
			return matchLike(v, n.value), nil
		default:
			return false, fmt.Errorf("relstore: unknown operator %q", n.op)
		}
	case *inExpr:
		v, ok := lookup(n.column)
		if !ok {
			return false, fmt.Errorf("relstore: unknown column %q", n.column)
		}
		found := false
		for _, candidate := range n.values {
			if compareValues(v, candidate) == 0 {
				found = true
				break
			}
		}
		return found != n.negate, nil
	case *betweenExpr:
		v, ok := lookup(n.column)
		if !ok {
			return false, fmt.Errorf("relstore: unknown column %q", n.column)
		}
		in := compareValues(v, n.lo) >= 0 && compareValues(v, n.hi) <= 0
		return in != n.negate, nil
	default:
		return false, fmt.Errorf("relstore: unknown expression node %T", e)
	}
}
