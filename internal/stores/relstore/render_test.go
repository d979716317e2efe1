package relstore

import "testing"

func TestEnsureKeyColumn(t *testing.T) {
	tests := []struct {
		sql         string
		key         string
		want        string
		wantRewrite bool
	}{
		{
			`SELECT name FROM inventory WHERE name LIKE '%wish%'`,
			"id",
			`SELECT id, name FROM inventory WHERE name LIKE '%wish%'`,
			true,
		},
		{
			`SELECT * FROM inventory`,
			"id",
			`SELECT * FROM inventory`,
			false,
		},
		{
			`SELECT id, name FROM inventory`,
			"id",
			`SELECT id, name FROM inventory`,
			false,
		},
		{
			`SELECT COUNT(*) FROM inventory`,
			"id",
			`SELECT COUNT(*) FROM inventory`,
			false,
		},
		{
			`SELECT name FROM inventory WHERE a = 'x' AND (b > 3 OR c IN ('p', 'q')) ORDER BY name DESC LIMIT 5`,
			"id",
			`SELECT id, name FROM inventory WHERE (a = 'x' AND (b > 3 OR c IN ('p', 'q'))) ORDER BY name DESC LIMIT 5`,
			true,
		},
		{
			`SELECT DISTINCT artist FROM inventory WHERE NOT price < 10`,
			"id",
			`SELECT DISTINCT artist FROM inventory WHERE NOT (price < 10)`,
			false,
		},
		{
			`SELECT name FROM inventory WHERE note = 'it''s'`,
			"id",
			`SELECT id, name FROM inventory WHERE note = 'it''s'`,
			true,
		},
	}
	for _, tt := range tests {
		st, err := Parse(tt.sql)
		if err != nil {
			t.Fatalf("Parse(%s): %v", tt.sql, err)
		}
		got, rewrote := st.EnsureKeyColumn(tt.key)
		if got != tt.want || rewrote != tt.wantRewrite {
			t.Errorf("EnsureKeyColumn(%s):\n got  %q (rewrite=%v)\n want %q (rewrite=%v)",
				tt.sql, got, rewrote, tt.want, tt.wantRewrite)
		}
		// The rewritten SQL must itself parse.
		if _, err := Parse(got); err != nil {
			t.Errorf("rewritten SQL %q does not parse: %v", got, err)
		}
	}
}

func TestRenderedQueryEquivalence(t *testing.T) {
	// The rewritten query must return the same rows as the original, plus
	// the key column.
	s := newInventory(t)
	st, err := Parse(`SELECT name FROM inventory WHERE artist = 'Cure' ORDER BY price ASC`)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, ok := st.EnsureKeyColumn("id")
	if !ok {
		t.Fatal("expected a rewrite")
	}
	rows := mustSelect(t, s, rewritten)
	if len(rows) != 2 {
		t.Fatalf("rewritten query rows = %d", len(rows))
	}
	if value(rows[0], "id") != "a33" || value(rows[0], "name") != "Disintegration" {
		t.Errorf("rewritten first row = %+v", rows[0])
	}
}

func TestEnsureKeyColumnNonSelect(t *testing.T) {
	st, err := Parse(`INSERT INTO t VALUES ('1')`)
	if err != nil {
		t.Fatal(err)
	}
	got, rewrote := st.EnsureKeyColumn("id")
	if got != "" || rewrote {
		t.Errorf("non-select rewrite = %q, %v", got, rewrote)
	}
}
