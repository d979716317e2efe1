package docstore

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"quepa/internal/stores/ordindex"
)

// filter is a compiled document predicate.
type filter interface {
	matches(d *Document) (bool, error)
}

// allFilter matches every document (the empty filter {}).
type allFilter struct{}

func (allFilter) matches(*Document) (bool, error) { return true, nil }

// andFilter / orFilter combine sub-filters.
type andFilter struct{ subs []filter }

func (f andFilter) matches(d *Document) (bool, error) {
	for _, s := range f.subs {
		ok, err := s.matches(d)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

type orFilter struct{ subs []filter }

func (f orFilter) matches(d *Document) (bool, error) {
	for _, s := range f.subs {
		ok, err := s.matches(d)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// fieldFilter applies one operator to one dot-path field.
type fieldFilter struct {
	path string
	op   string // $eq, $ne, $gt, $gte, $lt, $lte, $in, $regex
	arg  any
	re   *regexp.Regexp // compiled for $regex
}

func (f fieldFilter) matches(d *Document) (bool, error) {
	v, present := lookupPath(d.Body, f.path)
	switch f.op {
	case "$eq":
		return present && compareAny(v, f.arg) == 0, nil
	case "$ne":
		// Mongo semantics: $ne matches documents where the field is absent too.
		return !present || compareAny(v, f.arg) != 0, nil
	case "$gt":
		return present && compareAny(v, f.arg) > 0, nil
	case "$gte":
		return present && compareAny(v, f.arg) >= 0, nil
	case "$lt":
		return present && compareAny(v, f.arg) < 0, nil
	case "$lte":
		return present && compareAny(v, f.arg) <= 0, nil
	case "$in":
		if !present {
			return false, nil
		}
		for _, cand := range f.arg.([]any) {
			if compareAny(v, cand) == 0 {
				return true, nil
			}
		}
		return false, nil
	case "$nin":
		if !present {
			return true, nil // Mongo: $nin matches absent fields
		}
		for _, cand := range f.arg.([]any) {
			if compareAny(v, cand) == 0 {
				return false, nil
			}
		}
		return true, nil
	case "$exists":
		return present == f.arg.(bool), nil
	case "$regex":
		if !present {
			return false, nil
		}
		return f.re.MatchString(scalarString(v)), nil
	default:
		return false, fmt.Errorf("docstore: unknown operator %q", f.op)
	}
}

// lookupPath resolves a dot path against a decoded JSON value. Numeric path
// components index into arrays. Additionally, a path into an array of scalars
// matches if any element matches (Mongo's implicit array traversal), which is
// handled by the caller via compareAny on the array value.
func lookupPath(v any, path string) (any, bool) {
	if path == "" {
		return v, true
	}
	cur := v
	for rest, more := path, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ".")
		switch node := cur.(type) {
		case map[string]any:
			nxt, ok := node[part]
			if !ok {
				return nil, false
			}
			cur = nxt
		case []any:
			idx := -1
			if _, err := fmt.Sscanf(part, "%d", &idx); err != nil || idx < 0 || idx >= len(node) {
				return nil, false
			}
			cur = node[idx]
		default:
			return nil, false
		}
	}
	return cur, true
}

// compareAny orders two decoded JSON scalars. Numbers compare numerically;
// everything else compares through its string rendering. When the left value
// is an array, the comparison succeeds (returns 0) if any element equals the
// right value — Mongo's implicit array membership for equality.
func compareAny(a, b any) int {
	if arr, ok := a.([]any); ok {
		for _, el := range arr {
			if compareAny(el, b) == 0 {
				return 0
			}
		}
		return -1
	}
	fa, aNum := a.(float64)
	fb, bNum := b.(float64)
	if aNum && bNum {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(scalarString(a), scalarString(b))
}

// parseFilter compiles a JSON filter expression. The empty string and "{}"
// compile to the match-everything filter.
func parseFilter(filterJSON string) (filter, error) {
	filterJSON = strings.TrimSpace(filterJSON)
	if filterJSON == "" || filterJSON == "{}" {
		return allFilter{}, nil
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(filterJSON), &raw); err != nil {
		return nil, fmt.Errorf("docstore: invalid filter JSON: %w", err)
	}
	return compileFilter(raw)
}

func compileFilter(raw map[string]any) (filter, error) {
	var subs []filter
	for key, val := range raw {
		switch key {
		case "$and", "$or":
			list, ok := val.([]any)
			if !ok {
				return nil, fmt.Errorf("docstore: %s requires an array of filters", key)
			}
			var inner []filter
			for _, el := range list {
				m, ok := el.(map[string]any)
				if !ok {
					return nil, fmt.Errorf("docstore: %s elements must be objects", key)
				}
				f, err := compileFilter(m)
				if err != nil {
					return nil, err
				}
				inner = append(inner, f)
			}
			if key == "$and" {
				subs = append(subs, andFilter{subs: inner})
			} else {
				subs = append(subs, orFilter{subs: inner})
			}
		default:
			if strings.HasPrefix(key, "$") {
				return nil, fmt.Errorf("docstore: unknown top-level operator %q", key)
			}
			f, err := compileField(key, val)
			if err != nil {
				return nil, err
			}
			subs = append(subs, f...)
		}
	}
	if len(subs) == 0 {
		return allFilter{}, nil
	}
	if len(subs) == 1 {
		return subs[0], nil
	}
	return andFilter{subs: subs}, nil
}

func compileField(path string, val any) ([]filter, error) {
	ops, isOps := val.(map[string]any)
	if !isOps {
		return []filter{fieldFilter{path: path, op: "$eq", arg: val}}, nil
	}
	// Distinguish {"field": {"$gt": 3}} from equality against a literal
	// object: an operator object has only $-prefixed keys.
	allDollar := len(ops) > 0
	for k := range ops {
		if !strings.HasPrefix(k, "$") {
			allDollar = false
			break
		}
	}
	if !allDollar {
		return []filter{fieldFilter{path: path, op: "$eq", arg: val}}, nil
	}
	var out []filter
	for op, arg := range ops {
		ff := fieldFilter{path: path, op: op, arg: arg}
		switch op {
		case "$eq", "$ne", "$gt", "$gte", "$lt", "$lte":
		case "$in", "$nin":
			if _, ok := arg.([]any); !ok {
				return nil, fmt.Errorf("docstore: %s requires an array", op)
			}
		case "$exists":
			if _, ok := arg.(bool); !ok {
				return nil, fmt.Errorf("docstore: $exists requires a boolean")
			}
		case "$regex":
			pat, ok := arg.(string)
			if !ok {
				return nil, fmt.Errorf("docstore: $regex requires a string pattern")
			}
			re, err := regexp.Compile("(?i)" + pat)
			if err != nil {
				return nil, fmt.Errorf("docstore: bad $regex %q: %w", pat, err)
			}
			ff.re = re
		default:
			return nil, fmt.Errorf("docstore: unknown operator %q on field %q", op, path)
		}
		out = append(out, ff)
	}
	return out, nil
}

// candidates returns the ids of the documents that can satisfy f, in
// insertion order: an ordered index's candidates when f AND-s a condition on
// an indexed path that the index serves, every document otherwise.
func (c *collection) candidates(f filter) []string {
	var plan ordindex.Plan
	for _, sub := range conjuncts(f, nil) {
		ff, ok := sub.(fieldFilter)
		if !ok || c.indexes[ff.path] == nil {
			continue
		}
		if r, ok := ff.indexRange(); ok {
			plan.And(c.indexes[ff.path], r)
		}
	}
	if ids, ok := plan.Keys(); ok {
		return ids
	}
	return c.order
}

// conjuncts appends the AND-ed terms of f to out.
func conjuncts(f filter, out []filter) []filter {
	if a, ok := f.(andFilter); ok {
		for _, sub := range a.subs {
			out = conjuncts(sub, out)
		}
		return out
	}
	return append(out, f)
}

var indexOps = map[string]ordindex.Op{
	"$eq": ordindex.Eq, "$lt": ordindex.Lt, "$lte": ordindex.Le, "$gt": ordindex.Gt, "$gte": ordindex.Ge,
}

// indexRange returns the index Range of the documents f can match under
// compareAny; ok is false for conditions an index cannot serve. A string
// argument that reads as a number is one of them: a number's rendering can
// equal it ("5").
func (f fieldFilter) indexRange() (ordindex.Range, bool) {
	op, ok := indexOps[f.op]
	if !ok {
		return ordindex.Range{}, false
	}
	switch a := f.arg.(type) {
	case float64:
		return ordindex.ForLiteral(op, scalarString(a), a, true)
	case string:
		if _, err := strconv.ParseFloat(a, 64); err != nil {
			return ordindex.ForLiteral(op, a, 0, false)
		}
	}
	return ordindex.Range{}, false
}

// indexValue places a document's value at path the way compareAny orders
// it: numbers by value, strings bytewise, and everything else (absent,
// arrays, objects, booleans, null) in the residual.
func indexValue(body map[string]any, path string) ordindex.Value {
	v, _ := lookupPath(body, path)
	switch x := v.(type) {
	case float64:
		return ordindex.Number(x)
	case string:
		return ordindex.Text(x)
	}
	return ordindex.Value{}
}
