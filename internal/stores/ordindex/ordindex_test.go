package ordindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// row is one entry of the reference model, a slice in insertion order.
type row struct {
	key string
	v   Value
}

// inSpan is the definition a span's binary searches must agree with.
func inSpan[T float64 | string](v T, s span[T]) bool {
	if s.none {
		return false
	}
	if s.lo.set && (v < s.lo.v || v == s.lo.v && s.lo.open) {
		return false
	}
	if s.hi.set && (v > s.hi.v || v == s.hi.v && s.hi.open) {
		return false
	}
	return true
}

// want is lookup by brute force over rows kept in insertion order.
func want(rows []row, r Range) []string {
	var keys []string
	for _, x := range rows {
		switch x.v.kind {
		case kindNumber:
			if !inSpan(x.v.num, r.num) {
				continue
			}
		case kindText:
			if !inSpan(x.v.text, r.text) {
				continue
			}
		}
		keys = append(keys, x.key)
	}
	return keys
}

var (
	testNums  = []float64{-3, math.Copysign(0, -1), 0, 1, 1, 2.5, 10, math.Inf(1), math.Inf(-1), math.NaN()}
	testTexts = []string{"", "1", "a", "ab", "b", "z"}
)

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Value{}
	case 1, 2:
		return Text(testTexts[rng.Intn(len(testTexts))])
	}
	return Number(testNums[rng.Intn(len(testNums))])
}

func randRange(rng *rand.Rand) Range {
	var r Range
	for i := rng.Intn(3); i >= 0; i-- {
		op := Op(rng.Intn(5))
		isNum := rng.Intn(3) > 0
		sub, ok := ForLiteral(op, testTexts[rng.Intn(len(testTexts))], testNums[rng.Intn(len(testNums))], isNum)
		if ok {
			r = r.And(sub)
		}
	}
	return r
}

// TestLookupMatchesBruteForce interleaves Insert and Retain with
// lookups: lookup must return exactly the rows in range plus the residual,
// in insertion order, and count must agree with it.
func TestLookupMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rows []row
		for i := 0; i < 40; i++ {
			rows = append(rows, row{fmt.Sprintf("k%d", i), randValue(rng)})
		}
		values := map[string]Value{}
		keys := make([]string, len(rows))
		for i, x := range rows {
			keys[i], values[x.key] = x.key, x.v
		}
		ix := Build(keys, func(k string) Value { return values[k] })
		next := len(rows)
		for step := 0; step < 400; step++ {
			switch rng.Intn(5) {
			case 0:
				x := row{fmt.Sprintf("k%d", next), randValue(rng)}
				next++
				rows = append(rows, x)
				ix.Insert(x.key, x.v)
			case 1:
				if len(rows) > 0 {
					gone := rows[rng.Intn(len(rows))].key
					ix.Retain(func(k string) bool { return k != gone })
					rows = slices.DeleteFunc(rows, func(x row) bool { return x.key == gone })
				}
			default:
				r := randRange(rng)
				got, exp := ix.lookup(r), want(rows, r)
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Fatalf("seed %d step %d: lookup(%+v) = %v, want %v", seed, step, r, got, exp)
				}
				if n := ix.count(r); n != len(exp) {
					t.Fatalf("seed %d step %d: count = %d, want %d", seed, step, n, len(exp))
				}
			}
		}
	}
}

func TestForLiteral(t *testing.T) {
	if _, ok := ForLiteral(Lt, "abc", 0, false); ok {
		t.Error("a range against a text literal must scan")
	}
	if _, ok := ForLiteral(Eq, "NaN", math.NaN(), true); ok {
		t.Error("a NaN literal equals every number and must scan")
	}
	r, ok := ForLiteral(Eq, "abc", 0, false)
	if !ok || !r.num.none {
		t.Errorf("equality with text selects no number: %+v, %v", r, ok)
	}
	// An empty intersection selects only the residual.
	lo, _ := ForLiteral(Gt, "5", 5, true)
	hi, _ := ForLiteral(Lt, "1", 1, true)
	ix := Build([]string{"a", "b", "c"}, func(k string) Value {
		return map[string]Value{"a": Number(3), "b": Number(math.NaN()), "c": Text("2")}[k]
	})
	if got := ix.lookup(lo.And(hi)); fmt.Sprint(got) != "[b]" {
		t.Errorf("empty range = %v, want the residual [b]", got)
	}
}

func TestPlanPicksFewestCandidates(t *testing.T) {
	wide := Build([]string{"a", "b", "c"}, func(string) Value { return Number(1) })
	narrow := Build([]string{"a", "b", "c"}, func(k string) Value {
		return map[string]Value{"a": Number(1), "b": Number(2), "c": Number(3)}[k]
	})
	eq1, _ := ForLiteral(Eq, "1", 1, true)
	var p Plan
	if _, ok := p.Keys(); ok {
		t.Fatal("the zero Plan must scan")
	}
	p.And(wide, eq1)
	p.And(narrow, eq1)
	if keys, ok := p.Keys(); !ok || fmt.Sprint(keys) != "[a]" {
		t.Errorf("Keys = %v, %v; want the narrow index's [a]", keys, ok)
	}
}
