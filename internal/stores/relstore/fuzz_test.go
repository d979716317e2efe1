package relstore

import (
	"strconv"
	"testing"
)

// FuzzParse drives the SQL lexer and parser with arbitrary input: they must
// never panic, and whatever parses must render back (via EnsureKeyColumn)
// into SQL that parses again.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`SELECT * FROM t`,
		`SELECT a, b FROM t WHERE a = 'x' AND (b > 3 OR c IN ('p', 'q'))`,
		`SELECT COUNT(*) FROM t`,
		`SELECT DISTINCT a FROM t WHERE a LIKE '%x%' ORDER BY a DESC LIMIT 3 OFFSET 1`,
		`SELECT a FROM t WHERE b BETWEEN 1 AND 2`,
		`INSERT INTO t (a, b) VALUES ('1', 2), ('3', 4)`,
		`CREATE TABLE t (a TEXT PRIMARY KEY, b INT, c FLOAT)`,
		`UPDATE t SET a = 'x' WHERE b != 1`,
		`DELETE FROM t WHERE a NOT IN ('1')`,
		`SELECT * FROM t WHERE v = 'it''s'`,
		`SELECT*FROM A WHERE A='0E0'`, // ParseFloat reads these; the lexer does not
		`SELECT * FROM t WHERE a IN ('Inf', '0x1p-2', '-.5', '1.5')`,
		"SELECT \x00 FROM t",
		`)(`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := parse(input)
		if err != nil {
			return
		}
		sel, ok := st.(*selectStmt)
		if !ok {
			return
		}
		rendered := renderSelect(sel)
		if _, err := parse(rendered); err != nil {
			t.Fatalf("rendered SQL %q (from %q) does not re-parse: %v", rendered, input, err)
		}
	})
}

// FuzzLikeMatch checks that the LIKE matcher never panics and that a '%'
// prefix+suffix pattern built from the value always matches.
func FuzzLikeMatch(f *testing.F) {
	f.Add("Wish", "%wish%")
	f.Add("", "%")
	f.Add("a_b", "a__b")
	f.Add("%0", "0") // a '%' in the value must not consume the pattern's wildcard
	f.Fuzz(func(t *testing.T, value, pattern string) {
		matchLike(value, pattern) // must not panic
		if !matchLike(value, "%") {
			t.Fatal("bare %% must match everything")
		}
	})
}

// FuzzMayBeFloat holds mayBeFloat to its one promise: every string
// strconv.ParseFloat accepts passes it, so skipping ParseFloat where it
// answers false never changes a result.
func FuzzMayBeFloat(f *testing.F) {
	for _, seed := range []string{"Inf", "-infinity", "NaN", "nan", "0x1p-2", "0E0", "+.5", "-0", "1_0", "0x_1p0", "a12", "", "+", ".", "e5"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if _, err := strconv.ParseFloat(s, 64); err == nil && !mayBeFloat(s) {
			t.Fatalf("ParseFloat accepts %q, mayBeFloat rejects it", s)
		}
	})
}
