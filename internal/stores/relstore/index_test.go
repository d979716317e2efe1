package relstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// An ordered index is an access path, not a second semantics: a table with
// CREATE INDEX must answer every statement exactly as the same table without
// it — same rows, same order, same errors — across values that compare
// unusually (1 / 1.0 / 01 / 1e0, -0, ±Inf, NaN, text, the empty string) and
// after any sequence of inserts, rejected duplicates included.

// indexValues mixes spellings of one number, signed zeros, infinities, NaN
// (equal to every number under compareValues), an out-of-range literal
// (text to ParseFloat), text, and duplicates.
var indexValues = []string{
	"1", "1.0", "01", "1e0", "-0", "0", "2.5", "10", "9", "-3",
	"Inf", "-Inf", "+Inf", "NaN", "1e400", "0x1p-2",
	"abc", "ABC", "z", "", "1 ", "a b",
}

func sqlQuote(v string) string { return "'" + strings.ReplaceAll(v, "'", "''") + "'" }

// indexPair is one table twice: idx declares ordered indexes on v, s and
// the primary key id; plain has none.
type indexPair struct {
	t          testing.TB
	idx, plain *Store
}

func newIndexPair(t testing.TB) *indexPair {
	p := &indexPair{t: t, idx: New("idx"), plain: New("plain")}
	p.exec(`CREATE TABLE t (id TEXT PRIMARY KEY, v FLOAT, w INT, s TEXT)`)
	return p
}

func (p *indexPair) index() {
	for _, col := range []string{"v", "s", "id"} {
		if _, err := p.idx.Exec(`CREATE INDEX ON t (` + col + `)`); err != nil {
			p.t.Fatal(err)
		}
	}
}

// exec runs a statement on both tables and requires the same outcome.
func (p *indexPair) exec(sql string) {
	p.t.Helper()
	n1, err1 := p.idx.Exec(sql)
	n2, err2 := p.plain.Exec(sql)
	if n1 != n2 || fmt.Sprint(err1) != fmt.Sprint(err2) {
		p.t.Fatalf("%s: indexed (%d, %v), unindexed (%d, %v)", sql, n1, err1, n2, err2)
	}
}

// check runs a query on both tables and requires identical rows in identical
// order, or the same error.
func (p *indexPair) check(sql string) {
	p.t.Helper()
	got, err1 := p.idx.Select(sql)
	want, err2 := p.plain.Select(sql)
	if fmt.Sprint(err1) != fmt.Sprint(err2) || fmt.Sprint(got) != fmt.Sprint(want) {
		p.t.Fatalf("%s\nindexed:   %v %v\nunindexed: %v %v", sql, got, err1, want, err2)
	}
}

func randLit(rng *rand.Rand) string {
	v := indexValues[rng.Intn(len(indexValues))]
	if rng.Intn(4) == 0 && strings.Trim(v, "0123456789.") == "" && v != "" {
		return v // bare number token
	}
	return sqlQuote(v)
}

func randAtom(rng *rand.Rand) string {
	col := []string{"v", "v", "s", "w", "id"}[rng.Intn(5)]
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, randLit(rng), randLit(rng))
	case 1:
		return fmt.Sprintf("%s NOT BETWEEN %s AND %s", col, randLit(rng), randLit(rng))
	case 2:
		return fmt.Sprintf("%s LIKE '%%1%%'", col)
	case 3:
		return fmt.Sprintf("%s IN (%s, %s)", col, randLit(rng), randLit(rng))
	default:
		op := []string{"=", "<", "<=", ">", ">=", "!=", "<>"}[rng.Intn(7)]
		return fmt.Sprintf("%s %s %s", col, op, randLit(rng))
	}
}

func randWhere(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		return randAtom(rng)
	}
	switch rng.Intn(4) {
	case 0:
		return "NOT " + randAtom(rng)
	case 1:
		return "(" + randWhere(rng, depth-1) + " OR " + randWhere(rng, depth-1) + ")"
	default:
		return randWhere(rng, depth-1) + " AND " + randWhere(rng, depth-1)
	}
}

func randSelect(rng *rand.Rand) string {
	q := "SELECT * FROM t WHERE " + randWhere(rng, 2)
	if rng.Intn(3) == 0 {
		q += " ORDER BY " + []string{"v", "w", "s"}[rng.Intn(3)] + []string{"", " ASC", " DESC"}[rng.Intn(3)]
	}
	if rng.Intn(3) == 0 {
		q += fmt.Sprintf(" LIMIT %d", rng.Intn(5))
	}
	return q
}

func (p *indexPair) insertRandom(rng *rand.Rand, id int) {
	if rng.Intn(8) == 0 { // v and s left empty
		p.exec(fmt.Sprintf(`INSERT INTO t (id, w) VALUES ('k%d', %d)`, id, rng.Intn(5)))
		return
	}
	p.exec(fmt.Sprintf(`INSERT INTO t VALUES ('k%d', %s, %d, %s)`,
		id, randLit(rng), rng.Intn(5), sqlQuote(indexValues[rng.Intn(len(indexValues))])))
}

// TestIndexEquivalence drives one random history per seed: rows loaded
// before CREATE INDEX (bulk build), then inserts of new keys and of keys
// already present (duplicates, refused alike) interleaved with queries.
func TestIndexEquivalence(t *testing.T) {
	fixed := []string{
		`SELECT * FROM t WHERE v = 1`,
		`SELECT * FROM t WHERE v = '1e0'`,
		`SELECT * FROM t WHERE v = -0`,
		`SELECT * FROM t WHERE v < 2.5`,
		`SELECT * FROM t WHERE v <= '01'`,
		`SELECT * FROM t WHERE v > 'Inf'`,
		`SELECT * FROM t WHERE v >= '-Inf'`,
		`SELECT * FROM t WHERE v = 'NaN'`,
		`SELECT * FROM t WHERE v < 'abc'`,
		`SELECT * FROM t WHERE v = 'abc'`,
		`SELECT * FROM t WHERE s = ''`,
		`SELECT * FROM t WHERE v BETWEEN 0 AND 10`,
		`SELECT * FROM t WHERE v BETWEEN 10 AND 0`,
		`SELECT * FROM t WHERE v >= 1 AND v < 10 AND w = 2`,
		`SELECT * FROM t WHERE v > 5 AND v < 1`,
		`SELECT * FROM t WHERE v < 1 OR w = 3`,
		`SELECT * FROM t WHERE NOT v < 1`,
		`SELECT * FROM t WHERE v >= 0 ORDER BY w DESC LIMIT 3`,
		`SELECT * FROM t WHERE v >= 0 LIMIT 2`,
		`SELECT * FROM t WHERE id = 'k3'`,
		`SELECT * FROM t WHERE id = 3`,
		`SELECT * FROM t WHERE v < 5 AND ghost = 1`,
		`SELECT * FROM t WHERE ghost = 1 AND v = 999`,
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newIndexPair(t)
		next := 0
		for ; next < 30; next++ {
			p.insertRandom(rng, next)
		}
		p.index()
		for _, q := range fixed {
			p.check(q)
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // a new key, or an old one: a duplicate
				if id := rng.Intn(next + 10); id < next {
					p.insertRandom(rng, id)
				} else {
					p.insertRandom(rng, next)
					next++
				}
			default:
				p.check(randSelect(rng))
			}
		}
		for _, q := range fixed {
			p.check(q)
		}
	}
}

// FuzzRangeIndex fuzzes one extra stored value and a WHERE clause: the
// indexed and unindexed tables must answer the same.
func FuzzRangeIndex(f *testing.F) {
	for _, seed := range [][2]string{
		{"1.0", "v = 1"},
		{"NaN", "v BETWEEN 0 AND 1"},
		{"-0", "v >= 0 AND v < 5"},
		{"Inf", "v > 1e400"},
		{"abc", "v < 'abd' OR s = 'z'"},
		{"", "s = '' AND v <= 2.5"},
		{"01", "NOT v = '1e0' ORDER BY w DESC LIMIT 2"},
		{"x", "id = 'k1' AND v > -3"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, value, where string) {
		p := newIndexPair(t)
		for i, v := range indexValues {
			p.exec(fmt.Sprintf(`INSERT INTO t VALUES ('k%d', %s, %d, %s)`, i, sqlQuote(v), i%3, sqlQuote(indexValues[(i*7)%len(indexValues)])))
		}
		p.index()
		p.exec(fmt.Sprintf(`INSERT INTO t VALUES ('extra', %s, 1, %s)`, sqlQuote(value), sqlQuote(value)))
		p.check(`SELECT * FROM t WHERE ` + where)
	})
}
