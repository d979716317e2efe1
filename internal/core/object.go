package core

import (
	"slices"
	"sort"
	"strings"
)

// StoreKind enumerates the families of storage engines a polystore database
// can live in. The kind determines which native query language a connector
// accepts and how data objects are rendered back to the user.
type StoreKind int

const (
	// KindRelational is a relational engine queried with SQL (the paper uses MySQL).
	KindRelational StoreKind = iota
	// KindDocument is a document store queried with a JSON filter language
	// (the paper uses MongoDB).
	KindDocument
	// KindKeyValue is a key-value store queried with GET/MGET-style commands
	// (the paper uses Redis).
	KindKeyValue
	// KindGraph is a property-graph store queried with a pattern language
	// (the paper uses Neo4j).
	KindGraph
)

// String returns the lowercase name of the store kind.
func (k StoreKind) String() string {
	switch k {
	case KindRelational:
		return "relational"
	case KindDocument:
		return "document"
	case KindKeyValue:
		return "keyvalue"
	case KindGraph:
		return "graph"
	default:
		return "unknown"
	}
}

// Object is a PDM data object: a uniquely identified piece of data inside a
// collection of a database. A relational tuple, a JSON document, a key-value
// entry and a graph node are all data objects.
//
// Values are kept as flattened name/value pairs so that objects from
// different engines share one internal representation (the paper's
// connectors "parse data objects into an internal representation"). Nested
// document fields use dot-separated paths. A bare key-value entry stores its
// payload under the ValueField name.
type Object struct {
	GK     GlobalKey // the object's global key within the polystore
	Fields Fields    // flattened field/value pairs, sorted by name
}

// ValueField is the field name under which engines without named attributes
// (e.g. key-value stores) expose the object's payload.
const ValueField = "value"

// Fields is a read-only view of a data object's field/value pairs, held as
// two parallel slices sorted by name (DESIGN §3.17). The engines hand out
// views of storage they already hold, so a read copies nothing and every
// consumer walks the fields in name order without sorting them. The zero
// Fields is "no field map" (JSON null); an empty one has no fields ({}).
// Nothing may write through a view: the slices may be shared with an engine
// and with other objects.
type Fields struct {
	names, values []string
}

// empty is the canonical non-nil Fields with no field.
var empty = Fields{names: []string{}, values: []string{}}

// SortedFields returns the view of names and values without copying them.
// names must be strictly increasing and as long as values, and neither slice
// may change afterwards: engines build them once and then only read them.
func SortedFields(names, values []string) Fields {
	if names == nil {
		return empty
	}
	return Fields{names: names, values: values}
}

// Len returns the number of fields.
func (f Fields) Len() int { return len(f.names) }

// IsZero reports whether f is the zero Fields, which encodes as null rather
// than as an empty object.
func (f Fields) IsZero() bool { return f.names == nil }

// At returns the i-th field in name order.
func (f Fields) At(i int) (name, value string) { return f.names[i], f.values[i] }

// Get returns the value of the named field and whether it is present.
func (f Fields) Get(name string) (string, bool) {
	i := sort.SearchStrings(f.names, name)
	if i < len(f.names) && f.names[i] == name {
		return f.values[i], true
	}
	return "", false
}

// All is an iterator over the fields in name order: it calls yield for
// each field until yield returns false. Its method value f.All has the
// shape of an iter.Seq2, so it can be ranged over once the module's go line
// allows range-over-func.
func (f Fields) All(yield func(name, value string) bool) {
	for i, name := range f.names {
		if !yield(name, f.values[i]) {
			return
		}
	}
}

// NewObject builds an object from a global key and a field map, sorting the
// map into a fresh view; a nil map gives an object with no fields. Engines
// with sorted storage of their own build the view with SortedFields instead.
func NewObject(gk GlobalKey, fields map[string]string) Object {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	values := make([]string, len(names))
	for i, name := range names {
		values[i] = fields[name]
	}
	return Object{GK: gk, Fields: SortedFields(names, values)}
}

// Equal reports whether two objects have the same global key and identical
// fields; no field map and an empty one are equal.
func (o Object) Equal(other Object) bool {
	return o.GK == other.GK &&
		slices.Equal(o.Fields.names, other.Fields.names) && slices.Equal(o.Fields.values, other.Fields.values)
}

// String renders the object as "D.C.k{f1: v1, f2: v2}" with fields in sorted
// order. Intended for logs, examples and debugging.
func (o Object) String() string {
	var b strings.Builder
	b.WriteString(o.GK.String())
	b.WriteByte('{')
	for i, name := range o.Fields.names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(name)
		b.WriteString(": ")
		b.WriteString(o.Fields.values[i])
	}
	b.WriteByte('}')
	return b.String()
}
