// Package core defines the Polystore Data Model (PDM) of the QUEPA system:
// global keys, data objects, probabilistic relations between objects
// (p-relations), and the polystore registry that binds heterogeneous storage
// engines together.
//
// The model follows Section II of Maccioni & Torlone, "Augmented Access for
// Querying and Exploring a Polystore" (ICDE 2018). A polystore is a set of
// databases, each stored in its own data management system. A database holds
// data collections; a collection holds data objects; an object is a key/value
// pair whose key identifies it uniquely within its collection. The triple
// (database, collection, key) — written D.C.k — identifies an object uniquely
// in the whole polystore and is called its global key.
package core

import (
	"fmt"
	"strings"
)

// GlobalKey identifies a data object uniquely inside a polystore.
// Its textual form is "database.collection.key"; because local keys may
// themselves contain dots (e.g. the Redis key "k1:cure:wish"), only the first
// two dots act as separators when parsing.
type GlobalKey struct {
	Database   string // name of the database inside the polystore
	Collection string // name of the data collection inside the database
	Key        string // local key of the object inside the collection
}

// NewGlobalKey builds a GlobalKey from its three components.
func NewGlobalKey(database, collection, key string) GlobalKey {
	return GlobalKey{Database: database, Collection: collection, Key: key}
}

// ParseGlobalKey parses the textual form "database.collection.key".
// The database and collection components must not be empty and must not
// contain dots; everything after the second dot is the local key verbatim.
func ParseGlobalKey(s string) (GlobalKey, error) {
	first := strings.IndexByte(s, '.')
	if first <= 0 {
		return GlobalKey{}, fmt.Errorf("core: malformed global key %q: missing database component", s)
	}
	rest := s[first+1:]
	second := strings.IndexByte(rest, '.')
	if second <= 0 {
		return GlobalKey{}, fmt.Errorf("core: malformed global key %q: missing collection component", s)
	}
	gk := GlobalKey{
		Database:   s[:first],
		Collection: rest[:second],
		Key:        rest[second+1:],
	}
	if gk.Key == "" {
		return GlobalKey{}, fmt.Errorf("core: malformed global key %q: empty local key", s)
	}
	return gk, nil
}

// MustParseGlobalKey is like ParseGlobalKey but panics on error.
// It is intended for tests and for literals known to be well formed.
func MustParseGlobalKey(s string) GlobalKey {
	gk, err := ParseGlobalKey(s)
	if err != nil {
		panic(err)
	}
	return gk
}

// String renders the global key in its canonical "database.collection.key"
// textual form.
func (gk GlobalKey) String() string {
	return gk.Database + "." + gk.Collection + "." + gk.Key
}

// IsZero reports whether the global key has no components set.
func (gk GlobalKey) IsZero() bool {
	return gk.Database == "" && gk.Collection == "" && gk.Key == ""
}

// Validate checks that all three components are present and that database and
// collection contain no separator dots.
func (gk GlobalKey) Validate() error {
	switch {
	case gk.Database == "":
		return fmt.Errorf("core: global key %v: empty database", gk)
	case gk.Collection == "":
		return fmt.Errorf("core: global key %v: empty collection", gk)
	case gk.Key == "":
		return fmt.Errorf("core: global key %v: empty local key", gk)
	case strings.ContainsRune(gk.Database, '.'):
		return fmt.Errorf("core: global key %v: database name contains a dot", gk)
	case strings.ContainsRune(gk.Collection, '.'):
		return fmt.Errorf("core: global key %v: collection name contains a dot", gk)
	}
	return nil
}

// Compare orders global keys lexicographically by database, then collection,
// then local key. It returns -1, 0 or +1.
func (gk GlobalKey) Compare(other GlobalKey) int {
	if c := strings.Compare(gk.Database, other.Database); c != 0 {
		return c
	}
	if c := strings.Compare(gk.Collection, other.Collection); c != 0 {
		return c
	}
	return strings.Compare(gk.Key, other.Key)
}

// Hash is the 32-bit FNV-1a hash of the key's textual form, computed without
// building the string. It places keys over in-process shards (the caches and
// the A' component table); it is not the cluster ring's
// placement, which keeps its own seeded hash. Three explicit loops are faster
// than ranging over the components.
func (gk GlobalKey) Hash() uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(gk.Database); i++ {
		h = (h ^ uint32(gk.Database[i])) * prime
	}
	h = (h ^ '.') * prime
	for i := 0; i < len(gk.Collection); i++ {
		h = (h ^ uint32(gk.Collection[i])) * prime
	}
	h = (h ^ '.') * prime
	for i := 0; i < len(gk.Key); i++ {
		h = (h ^ uint32(gk.Key[i])) * prime
	}
	return h
}
