package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPRelationValidate(t *testing.T) {
	a := MustParseGlobalKey("catalogue.albums.d1")
	b := MustParseGlobalKey("transactions.inventory.a32")
	tests := []struct {
		name    string
		r       PRelation
		wantErr bool
	}{
		{"valid identity", NewIdentity(a, b, 0.9), false},
		{"valid matching", NewMatching(a, b, 0.6), false},
		{"probability one", NewIdentity(a, b, 1.0), false},
		{"zero probability", NewIdentity(a, b, 0), true},
		{"negative probability", NewIdentity(a, b, -0.1), true},
		{"probability above one", NewIdentity(a, b, 1.01), true},
		{"NaN probability", NewIdentity(a, b, math.NaN()), true},
		{"infinite probability", NewMatching(a, b, math.Inf(1)), true},
		{"self relation", NewIdentity(a, a, 0.9), true},
		{"invalid endpoint", NewIdentity(GlobalKey{}, b, 0.9), true},
		{"unknown type", PRelation{From: a, To: b, Type: RelType(7), Prob: 0.5}, true},
	}
	for _, tt := range tests {
		if err := tt.r.Validate(); (err != nil) != tt.wantErr {
			t.Errorf("%s: Validate() error = %v, wantErr %v", tt.name, err, tt.wantErr)
		}
	}
}

func TestPRelationReverseProperty(t *testing.T) {
	// Property: p-relations are symmetric, so swapping the endpoints
	// preserves validity.
	f := func(p float64) bool {
		prob := math.Mod(math.Abs(p), 1)
		if prob == 0 {
			prob = 0.5
		}
		r := NewIdentity(MustParseGlobalKey("x.y.1"), MustParseGlobalKey("x.y.2"), prob)
		rev := PRelation{From: r.To, To: r.From, Type: r.Type, Prob: r.Prob}
		return (r.Validate() == nil) == (rev.Validate() == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelTypeString(t *testing.T) {
	if Identity.String() != "identity" || Matching.String() != "matching" {
		t.Error("RelType names wrong")
	}
	if RelType(42).String() != "unknown" {
		t.Error("unknown RelType should stringify as unknown")
	}
}

func TestPRelationString(t *testing.T) {
	a := MustParseGlobalKey("d.c.a")
	b := MustParseGlobalKey("d.c.b")
	if got := NewIdentity(a, b, 0.8).String(); got != "d.c.a ~(0.8) d.c.b" {
		t.Errorf("identity String() = %q", got)
	}
	if got := NewMatching(a, b, 0.65).String(); got != "d.c.a ≡(0.65) d.c.b" {
		t.Errorf("matching String() = %q", got)
	}
}
