package core

import (
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseGlobalKey(t *testing.T) {
	tests := []struct {
		in      string
		want    GlobalKey
		wantErr bool
	}{
		{"transactions.sales.s8", GlobalKey{"transactions", "sales", "s8"}, false},
		{"discount.drop.k1:cure:wish", GlobalKey{"discount", "drop", "k1:cure:wish"}, false},
		{"catalogue.albums.d1", GlobalKey{"catalogue", "albums", "d1"}, false},
		// Local keys may contain dots: everything after the second dot is key.
		{"db.coll.a.b.c", GlobalKey{"db", "coll", "a.b.c"}, false},
		{"nodots", GlobalKey{}, true},
		{"only.one", GlobalKey{}, true},
		{".coll.key", GlobalKey{}, true},
		{"db..key", GlobalKey{}, true},
		{"db.coll.", GlobalKey{}, true},
		{"", GlobalKey{}, true},
	}
	for _, tt := range tests {
		got, err := ParseGlobalKey(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseGlobalKey(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseGlobalKey(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestGlobalKeyRoundTrip(t *testing.T) {
	// Property: String followed by ParseGlobalKey is the identity for keys
	// whose database and collection are dot-free and non-empty.
	f := func(db, coll, key string) bool {
		db = sanitizeComponent(db)
		coll = sanitizeComponent(coll)
		if key == "" {
			key = "k"
		}
		gk := NewGlobalKey(db, coll, key)
		parsed, err := ParseGlobalKey(gk.String())
		return err == nil && parsed == gk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitizeComponent(s string) string {
	s = strings.ReplaceAll(s, ".", "_")
	if s == "" {
		return "x"
	}
	return s
}

func TestMustParseGlobalKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseGlobalKey on malformed input did not panic")
		}
	}()
	MustParseGlobalKey("garbage")
}

func TestGlobalKeyValidate(t *testing.T) {
	tests := []struct {
		gk      GlobalKey
		wantErr bool
	}{
		{GlobalKey{"db", "coll", "key"}, false},
		{GlobalKey{"", "coll", "key"}, true},
		{GlobalKey{"db", "", "key"}, true},
		{GlobalKey{"db", "coll", ""}, true},
		{GlobalKey{"d.b", "coll", "key"}, true},
		{GlobalKey{"db", "co.ll", "key"}, true},
		{GlobalKey{"db", "coll", "key.with.dots"}, false},
	}
	for _, tt := range tests {
		if err := tt.gk.Validate(); (err != nil) != tt.wantErr {
			t.Errorf("Validate(%+v) error = %v, wantErr %v", tt.gk, err, tt.wantErr)
		}
	}
}

func TestGlobalKeyCompare(t *testing.T) {
	a := GlobalKey{"a", "b", "c"}
	b := GlobalKey{"a", "b", "d"}
	c := GlobalKey{"a", "c", "a"}
	d := GlobalKey{"b", "a", "a"}
	if a.Compare(a) != 0 {
		t.Error("Compare(self) != 0")
	}
	for _, pair := range [][2]GlobalKey{{a, b}, {b, c}, {c, d}, {a, d}} {
		if pair[0].Compare(pair[1]) >= 0 {
			t.Errorf("Compare(%v, %v) should be negative", pair[0], pair[1])
		}
		if pair[1].Compare(pair[0]) <= 0 {
			t.Errorf("Compare(%v, %v) should be positive", pair[1], pair[0])
		}
	}
}

func TestGlobalKeyIsZero(t *testing.T) {
	if !(GlobalKey{}).IsZero() {
		t.Error("zero value should report IsZero")
	}
	if (GlobalKey{Database: "d"}).IsZero() {
		t.Error("non-zero value should not report IsZero")
	}
}

// TestGlobalKeyHashIsFNV1a: Hash equals FNV-1a over the textual form, so the
// three loops skip building the string and nothing else.
func TestGlobalKeyHashIsFNV1a(t *testing.T) {
	f := func(db, coll, key string) bool {
		gk := GlobalKey{db, coll, key}
		h := fnv.New32a()
		h.Write([]byte(gk.String()))
		return gk.Hash() == h.Sum32()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
