// Package ordindex is the secondary access path of the three scan stores
// (relstore, docstore, graphstore): an ordered index over one field, so that
// a range, equality or BETWEEN predicate costs two binary searches plus the
// rows in range instead of a walk over every row.
//
// The stores compare dynamically: two numbers compare numerically, anything
// else compares as text. The index therefore keeps three sections:
//
//   - numbers (every float64 but NaN), sorted by value;
//   - text, sorted bytewise;
//   - a residual of what neither order can place: NaN (which compares equal
//     to every number), absent fields, and store-specific kinds such as the
//     docstore's arrays, booleans and nulls.
//
// A Range says which run of each section a predicate can match; the residual
// is always a candidate. A Plan returns candidates, not answers: the store
// re-runs its full predicate on them, so LIMIT, conditions on other fields
// and row order stay exactly what a scan gives. Candidates come back in
// insertion order for that reason.
//
// An Index is not safe for concurrent use; the stores mutate it under their
// write lock and read it under their read lock.
package ordindex

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Value is one row's indexed value. The zero Value is residual.
type Value struct {
	kind uint8
	num  float64
	text string
}

const (
	kindResidual uint8 = iota
	kindNumber
	kindText
)

// Number is a numeric value; NaN is residual.
func Number(f float64) Value {
	if math.IsNaN(f) {
		return Value{}
	}
	return Value{kind: kindNumber, num: f}
}

// Text is a text value, ordered bytewise.
func Text(s string) Value { return Value{kind: kindText, text: s} }

// Op is a comparison an index can serve.
type Op int

// The comparisons, read as "value Op literal".
const (
	Eq Op = iota
	Lt
	Le
	Gt
	Ge
)

// bound is one end of a span; the zero bound is unbounded.
type bound[T float64 | string] struct {
	v    T
	set  bool
	open bool // v itself is excluded
}

// span is the run of one section a predicate can match. The zero span is
// the whole section.
type span[T float64 | string] struct {
	lo, hi bound[T]
	none   bool // matches nothing in this section
}

// Range is the part of each section a predicate can match. The zero Range
// matches every row, so it is the identity of And.
type Range struct {
	num  span[float64]
	text span[string]
}

// ForLiteral returns the Range of "value op literal" under the stores'
// comparison: numbers compare with a numeric literal numerically and with
// anything else as text. text is the literal's text form; num is its value
// when isNum. ok is false when the index cannot serve the comparison and
// the store must scan: a NaN literal (equal to every number), or a range
// against a text literal (numbers would compare with it as text, an order
// the number section does not keep). Equality with a text literal is
// served: a number never equals it.
func ForLiteral(op Op, text string, num float64, isNum bool) (r Range, ok bool) {
	switch {
	case isNum && !math.IsNaN(num):
		return Range{num: compare(op, num), text: compare(op, text)}, true
	case !isNum && op == Eq:
		return Range{num: span[float64]{none: true}, text: compare(op, text)}, true
	}
	return Range{}, false
}

// ParseValue places a stored string the way relstore and graphstore compare
// one: as a number when strconv.ParseFloat accepts it, as text otherwise.
func ParseValue(s string) Value {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Number(f)
	}
	return Text(s)
}

// ParseLiteral is ForLiteral for a literal those two stores compare: it is
// a number when strconv.ParseFloat accepts it.
func ParseLiteral(op Op, lit string) (Range, bool) {
	f, err := strconv.ParseFloat(lit, 64)
	return ForLiteral(op, lit, f, err == nil)
}

// SymbolOp maps a comparison symbol (=, <, <=, >, >=) to its Op.
func SymbolOp(sym string) (Op, bool) {
	switch sym {
	case "=":
		return Eq, true
	case "<":
		return Lt, true
	case "<=":
		return Le, true
	case ">":
		return Gt, true
	case ">=":
		return Ge, true
	}
	return 0, false
}

func compare[T float64 | string](op Op, x T) span[T] {
	b := bound[T]{v: x, set: true, open: op == Lt || op == Gt}
	switch op {
	case Eq:
		return span[T]{lo: b, hi: b}
	case Lt, Le:
		return span[T]{hi: b}
	default:
		return span[T]{lo: b}
	}
}

// And intersects two Ranges: the rows both predicates can match.
func (r Range) And(o Range) Range {
	return Range{num: r.num.and(o.num), text: r.text.and(o.text)}
}

func (s span[T]) and(o span[T]) span[T] {
	return span[T]{lo: tighter(s.lo, o.lo, 1), hi: tighter(s.hi, o.hi, -1), none: s.none || o.none}
}

// tighter returns the more restrictive of two bounds on one side: dir is +1
// for lower bounds (the larger wins) and -1 for upper bounds.
func tighter[T float64 | string](a, b bound[T], dir int) bound[T] {
	switch {
	case !a.set:
		return b
	case !b.set:
		return a
	}
	switch c := cmp.Compare(a.v, b.v) * dir; {
	case c > 0:
		return a
	case c < 0:
		return b
	}
	a.open = a.open || b.open
	return a
}

// entry is one indexed row: its value, its place in insertion order and its
// key. Sections are sorted by (v, seq).
type entry[T float64 | string] struct {
	v   T
	seq uint64
	key string
}

func byValue[T float64 | string](a, b entry[T]) int {
	if c := cmp.Compare(a.v, b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Index is an ordered index over one field of one table, collection or
// label.
type Index struct {
	nums  []entry[float64]
	texts []entry[string]
	rest  []entry[string] // residual; v unused
	next  uint64          // seq of the next Insert
}

// Build indexes keys, given in insertion order, with one sort per section.
func Build(keys []string, value func(key string) Value) *Index {
	ix := &Index{}
	for _, k := range keys {
		ix.append(k, value(k), ix.next)
		ix.next++
	}
	slices.SortFunc(ix.nums, byValue[float64])
	slices.SortFunc(ix.texts, byValue[string])
	return ix
}

// append adds an entry at the end of its section, unsorted.
func (ix *Index) append(key string, v Value, seq uint64) {
	switch v.kind {
	case kindNumber:
		ix.nums = append(ix.nums, entry[float64]{v.num, seq, key})
	case kindText:
		ix.texts = append(ix.texts, entry[string]{v.text, seq, key})
	default:
		ix.rest = append(ix.rest, entry[string]{seq: seq, key: key})
	}
}

// Insert adds a row after every row already indexed.
func (ix *Index) Insert(key string, v Value) {
	switch v.kind {
	case kindNumber:
		ix.nums = insertSorted(ix.nums, entry[float64]{v.num, ix.next, key})
	case kindText:
		ix.texts = insertSorted(ix.texts, entry[string]{v.text, ix.next, key})
	default:
		ix.rest = append(ix.rest, entry[string]{seq: ix.next, key: key})
	}
	ix.next++
}

// Retain drops every row whose key keep rejects, in one pass per section.
func (ix *Index) Retain(keep func(key string) bool) {
	ix.nums = slices.DeleteFunc(ix.nums, func(e entry[float64]) bool { return !keep(e.key) })
	ix.texts = slices.DeleteFunc(ix.texts, func(e entry[string]) bool { return !keep(e.key) })
	ix.rest = slices.DeleteFunc(ix.rest, func(e entry[string]) bool { return !keep(e.key) })
}

func insertSorted[T float64 | string](es []entry[T], e entry[T]) []entry[T] {
	i, _ := slices.BinarySearchFunc(es, e, byValue[T])
	return slices.Insert(es, i, e)
}

// run returns the half-open slice [i, j) of a sorted section inside s.
func run[T float64 | string](es []entry[T], s span[T]) (i, j int) {
	if s.none {
		return 0, 0
	}
	i, j = 0, len(es)
	if s.lo.set {
		i = sort.Search(len(es), func(k int) bool {
			c := cmp.Compare(es[k].v, s.lo.v)
			return c > 0 || c == 0 && !s.lo.open
		})
	}
	if s.hi.set {
		j = sort.Search(len(es), func(k int) bool {
			c := cmp.Compare(es[k].v, s.hi.v)
			return c > 0 || c == 0 && s.hi.open
		})
	}
	return i, max(i, j)
}

// Plan chooses the access path of a conjunction. And records each conjunct
// an index can serve; Keys reads the index whose intersected Range has the
// fewest candidates. The zero Plan has no candidates.
type Plan struct {
	uses []use
}

type use struct {
	ix *Index
	r  Range
}

// And records that the conjunction implies r on ix.
func (p *Plan) And(ix *Index, r Range) {
	for i := range p.uses {
		if p.uses[i].ix == ix {
			p.uses[i].r = p.uses[i].r.And(r)
			return
		}
	}
	p.uses = append(p.uses, use{ix, r})
}

// Keys returns the chosen index's candidates; ok is false when no conjunct
// was recorded and the store must scan.
func (p *Plan) Keys() (keys []string, ok bool) {
	if len(p.uses) == 0 {
		return nil, false
	}
	best, n := p.uses[0], p.uses[0].ix.count(p.uses[0].r)
	for _, u := range p.uses[1:] {
		if c := u.ix.count(u.r); c < n {
			best, n = u, c
		}
	}
	return best.ix.lookup(best.r), true
}

// count returns how many candidates lookup(r) would return, in O(log n).
func (ix *Index) count(r Range) int {
	ni, nj := run(ix.nums, r.num)
	ti, tj := run(ix.texts, r.text)
	return nj - ni + tj - ti + len(ix.rest)
}

// lookup returns the keys of every row r can match, plus the residual, in
// insertion order.
func (ix *Index) lookup(r Range) []string {
	ni, nj := run(ix.nums, r.num)
	ti, tj := run(ix.texts, r.text)
	hits := make([]entry[string], 0, nj-ni+tj-ti+len(ix.rest))
	for _, e := range ix.nums[ni:nj] {
		hits = append(hits, entry[string]{seq: e.seq, key: e.key})
	}
	hits = append(hits, ix.texts[ti:tj]...)
	hits = append(hits, ix.rest...)
	slices.SortFunc(hits, func(a, b entry[string]) int { return cmp.Compare(a.seq, b.seq) })
	keys := make([]string, len(hits))
	for i, e := range hits {
		keys[i] = e.key
	}
	return keys
}
