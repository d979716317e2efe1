package core

import (
	"reflect"
	"testing"
)

func TestObjectFieldAccess(t *testing.T) {
	o := NewObject(MustParseGlobalKey("transactions.inventory.a32"), map[string]string{
		"name":   "Wish",
		"artist": "Cure",
	})
	if v, ok := o.Fields.Get("artist"); !ok || v != "Cure" {
		t.Errorf("Get(artist) = %q, %v", v, ok)
	}
	for _, missing := range []string{"missing", "a", "zzz", ""} {
		if _, ok := o.Fields.Get(missing); ok {
			t.Errorf("Get(%q) reported present", missing)
		}
	}
	var names, values []string
	o.Fields.All(func(name, value string) bool {
		names = append(names, name)
		values = append(values, value)
		return true
	})
	if want := []string{"artist", "name"}; !reflect.DeepEqual(names, want) {
		t.Errorf("All() names = %v, want %v", names, want)
	}
	if want := []string{"Cure", "Wish"}; !reflect.DeepEqual(values, want) {
		t.Errorf("All() values = %v, want %v", values, want)
	}
	if name, value := o.Fields.At(1); o.Fields.Len() != 2 || name != "name" || value != "Wish" {
		t.Errorf("Len() = %d, At(1) = %q, %q", o.Fields.Len(), name, value)
	}
	calls := 0
	o.Fields.All(func(string, string) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("All kept calling after yield returned false: %d calls", calls)
	}
}

// TestNewObjectNilFields pins the split the encoders keep: the zero Fields
// is "no field map" (null), and NewObject and SortedFields always give a
// non-zero view, empty when there is no field.
func TestNewObjectNilFields(t *testing.T) {
	var zero Fields
	if !zero.IsZero() || zero.Len() != 0 {
		t.Errorf("zero Fields: IsZero %v, Len %d", zero.IsZero(), zero.Len())
	}
	if _, ok := zero.Get("a"); ok {
		t.Error("zero Fields reported a field")
	}
	for _, f := range []Fields{NewObject(MustParseGlobalKey("d.c.k"), nil).Fields, SortedFields(nil, nil)} {
		if f.IsZero() || f.Len() != 0 {
			t.Errorf("empty Fields: IsZero %v, Len %d", f.IsZero(), f.Len())
		}
	}
	gk := MustParseGlobalKey("d.c.k")
	if !(Object{GK: gk}).Equal(NewObject(gk, nil)) {
		t.Error("no field map and an empty one should be Equal")
	}
}

// TestSortedFieldsShares pins the zero-copy constructor: the view reads the
// caller's slices, so two views of one storage see the same backing array.
func TestSortedFieldsShares(t *testing.T) {
	names, values := []string{"a", "b"}, []string{"1", "2"}
	f, g := SortedFields(names, values), SortedFields(names, values)
	if &f.names[0] != &names[0] || &f.values[0] != &g.values[0] {
		t.Error("SortedFields copied its slices")
	}
}

func TestObjectEqual(t *testing.T) {
	gk := MustParseGlobalKey("d.c.k")
	base := NewObject(gk, map[string]string{"a": "1", "b": "2"})
	tests := []struct {
		name  string
		other Object
		want  bool
	}{
		{"identical", NewObject(gk, map[string]string{"a": "1", "b": "2"}), true},
		{"different key", NewObject(MustParseGlobalKey("d.c.k2"), map[string]string{"a": "1", "b": "2"}), false},
		{"different value", NewObject(gk, map[string]string{"a": "1", "b": "3"}), false},
		{"missing field", NewObject(gk, map[string]string{"a": "1"}), false},
		{"extra field", NewObject(gk, map[string]string{"a": "1", "b": "2", "c": "3"}), false},
	}
	for _, tt := range tests {
		if got := base.Equal(tt.other); got != tt.want {
			t.Errorf("%s: Equal = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestObjectString(t *testing.T) {
	o := NewObject(MustParseGlobalKey("catalogue.albums.d1"), map[string]string{
		"title": "Wish", "artist": "The Cure",
	})
	want := "catalogue.albums.d1{artist: The Cure, title: Wish}"
	if got := o.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestStoreKindString(t *testing.T) {
	tests := []struct {
		k    StoreKind
		want string
	}{
		{KindRelational, "relational"},
		{KindDocument, "document"},
		{KindKeyValue, "keyvalue"},
		{KindGraph, "graph"},
		{StoreKind(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("StoreKind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}
