// Package docstore implements an embedded JSON document store with a
// MongoDB-like filter language. It stands in for the MongoDB instance of the
// paper's polystore: the warehouse department's catalogue database.
//
// Documents are JSON objects identified by a string "_id" field (generated
// when absent). Queries are expressed either through the typed Find API or
// through the textual form accepted by Query:
//
//	<collection>.find(<filter>)
//
// ParseQuery also classifies <collection>.count(<filter>), so that the
// validator can refuse it as an aggregate; Query does not execute it.
//
// where <filter> is a JSON object combining equality ({"artist": "The Cure"}),
// comparison operators ({"year": {"$gt": 1990}} with $gt/$gte/$lt/$lte/$ne/
// $regex/$in) and the logical operators {"$and": [...]} / {"$or": [...]}.
// Nested fields are addressed with dot paths ("label.name").
//
// CreateIndex declares an ordered index on a path, as MongoDB's createIndex
// does. A filter that AND-s $eq/$gt/$gte/$lt/$lte on an indexed path against
// a number (or $eq against a string that is not one) reads the index's
// candidates instead of every document; every other filter scans. The full
// filter is evaluated on each document read either way, so the answer and
// its order are the scan's.
package docstore

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"quepa/internal/stores/ordindex"
	"quepa/internal/telemetry"
)

// Document is a stored JSON object plus its identifier.
type Document struct {
	ID   string
	Body map[string]any

	flatten sync.Once
	names   []string // flattened view, sorted by name, built on first Fields call
	values  []string
}

// Fields returns a flattened field/value view of the document as parallel
// name and value slices sorted by name: nested objects use dot paths, arrays
// use numeric path components, scalars are rendered with JSON formatting
// conventions (no quotes on strings). It is built once, on first use, and
// safe to call from concurrent readers; every call returns the same slices,
// which callers must not write.
func (d *Document) Fields() (names, values []string) {
	d.flatten.Do(func() {
		fields := flattenInto(nil, "", d.Body)
		// Two paths can flatten to one name ({"a.b": 1, "a": {"b": 2}}): the
		// smaller value wins, whatever order the maps were walked in.
		slices.SortFunc(fields, func(x, y field) int {
			if c := strings.Compare(x.name, y.name); c != 0 {
				return c
			}
			return strings.Compare(x.value, y.value)
		})
		fields = slices.CompactFunc(fields, func(x, y field) bool { return x.name == y.name })
		d.names, d.values = make([]string, len(fields)), make([]string, len(fields))
		for i, f := range fields {
			d.names[i], d.values[i] = f.name, f.value
		}
	})
	return d.names, d.values
}

// field is one flattened path and its rendered scalar.
type field struct{ name, value string }

func flattenInto(out []field, prefix string, v any) []field {
	switch val := v.(type) {
	case map[string]any:
		for k, sub := range val {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out = flattenInto(out, p, sub)
		}
	case []any:
		for i, sub := range val {
			p := strconv.Itoa(i)
			if prefix != "" {
				p = prefix + "." + p
			}
			out = flattenInto(out, p, sub)
		}
	default:
		out = append(out, field{prefix, scalarString(v)})
	}
	return out
}

func scalarString(v any) string {
	switch val := v.(type) {
	case nil:
		return "null"
	case string:
		return val
	case bool:
		return strconv.FormatBool(val)
	case float64:
		return strconv.FormatFloat(val, 'g', -1, 64)
	case json.Number:
		return val.String()
	default:
		b, err := json.Marshal(val)
		if err != nil {
			return fmt.Sprint(val)
		}
		return string(b)
	}
}

// Store is an embedded document database.
type Store struct {
	name        string
	mu          sync.RWMutex
	collections map[string]*collection
	nextID      uint64
	tel         telemetry.StoreOps
}

type collection struct {
	docs    map[string]*Document
	order   []string
	indexes map[string]*ordindex.Index // dot path -> ordered index
}

// New creates an empty document database with the given name.
func New(name string) *Store {
	return &Store{name: name, collections: map[string]*collection{}, tel: telemetry.NewStoreOps(name)}
}

// Name returns the database name.
func (s *Store) Name() string { return s.name }

// Collections lists collection names in sorted order.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Insert stores a document given as a JSON string. A missing "_id" gets a
// generated one. It returns the document id.
func (s *Store) Insert(collectionName, jsonBody string) (string, error) {
	var body map[string]any
	dec := json.NewDecoder(strings.NewReader(jsonBody))
	if err := dec.Decode(&body); err != nil {
		return "", fmt.Errorf("docstore: invalid document JSON: %w", err)
	}
	return s.InsertMap(collectionName, body)
}

// InsertMap stores a document given as a decoded JSON object. The map is
// owned by the store afterwards and must not be mutated by the caller.
func (s *Store) InsertMap(collectionName string, body map[string]any) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.collection(collectionName)
	var id string
	if raw, ok := body["_id"]; ok {
		id, ok = raw.(string)
		if !ok || id == "" {
			return "", fmt.Errorf("docstore: _id must be a non-empty string, got %v", raw)
		}
	} else {
		s.nextID++
		id = "doc:" + strconv.FormatUint(s.nextID, 10)
		body["_id"] = id
	}
	if _, dup := c.docs[id]; dup {
		return "", fmt.Errorf("docstore: duplicate _id %q in collection %q", id, collectionName)
	}
	c.docs[id] = &Document{ID: id, Body: body}
	c.order = append(c.order, id)
	for path, idx := range c.indexes {
		idx.Insert(id, indexValue(body, path))
	}
	return id, nil
}

// collection returns the named collection, creating it empty if absent.
// The caller holds the write lock.
func (s *Store) collection(name string) *collection {
	c, ok := s.collections[name]
	if !ok {
		c = &collection{docs: map[string]*Document{}, indexes: map[string]*ordindex.Index{}}
		s.collections[name] = c
	}
	return c
}

// CreateIndex declares an ordered index on a dot path of a collection,
// creating the collection if it does not exist: the equivalent of MongoDB's
// createIndex. Indexing the same path twice is an error.
func (s *Store) CreateIndex(collectionName, path string) error {
	if path == "" {
		return fmt.Errorf("docstore: index path must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.collection(collectionName)
	if _, dup := c.indexes[path]; dup {
		return fmt.Errorf("docstore: index on %s.%s already exists", collectionName, path)
	}
	c.indexes[path] = ordindex.Build(c.order, func(id string) ordindex.Value {
		return indexValue(c.docs[id].Body, path)
	})
	return nil
}

// Get retrieves one document by id. The boolean reports presence.
func (s *Store) Get(collectionName, id string) (*Document, bool) {
	defer s.tel.Get.Since(telemetry.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[collectionName]
	if !ok {
		return nil, false
	}
	d, ok := c.docs[id]
	return d, ok
}

// GetBatch retrieves many documents by id in one round trip, preserving the
// order of found ids and skipping missing ones.
func (s *Store) GetBatch(collectionName string, ids []string) []*Document {
	defer s.tel.GetBatch.Since(telemetry.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[collectionName]
	if !ok {
		return nil
	}
	out := make([]*Document, 0, len(ids))
	for _, id := range ids {
		if d, ok := c.docs[id]; ok {
			out = append(out, d)
		}
	}
	return out
}

// Delete removes a document by id, reporting whether it existed.
func (s *Store) Delete(collectionName, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[collectionName]
	if !ok {
		return false
	}
	if _, exists := c.docs[id]; !exists {
		return false
	}
	delete(c.docs, id)
	for i, k := range c.order {
		if k == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for _, idx := range c.indexes {
		idx.Retain(func(k string) bool { return k != id })
	}
	return true
}

// Find returns the documents of a collection matching a filter given as a
// JSON string ("{}" or "" matches everything), in insertion order.
func (s *Store) Find(collectionName, filterJSON string) ([]*Document, error) {
	f, err := parseFilter(filterJSON)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[collectionName]
	if !ok {
		return nil, fmt.Errorf("docstore: unknown collection %q", collectionName)
	}
	var out []*Document
	for _, id := range c.candidates(f) {
		d := c.docs[id]
		match, err := f.matches(d)
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, d)
		}
	}
	return out, nil
}

// queryRE matches the textual query form "<collection>.<verb>(<filter>)".
var queryRE = regexp.MustCompile(`(?s)^\s*([A-Za-z0-9_-]+)\.(find|count)\((.*)\)\s*$`)

// ParseQuery splits a textual query into collection, verb and filter.
// Exposed for the validator, which must classify queries (count is an
// aggregate and therefore not augmentable) without executing them.
func ParseQuery(q string) (collectionName, verb, filter string, err error) {
	m := queryRE.FindStringSubmatch(q)
	if m == nil {
		return "", "", "", fmt.Errorf("docstore: malformed query %q: want collection.find({...}) or collection.count({...})", q)
	}
	return m[1], m[2], strings.TrimSpace(m[3]), nil
}

// Query executes the textual query form: find returns the matching
// documents. count is parsed for the validator's refusal, not executed.
func (s *Store) Query(q string) ([]*Document, error) {
	defer s.tel.Query.Since(telemetry.Now())
	collectionName, verb, filter, err := ParseQuery(q)
	if err != nil {
		return nil, err
	}
	if verb != "find" {
		return nil, fmt.Errorf("docstore: %s() is parsed, not executed", verb)
	}
	return s.Find(collectionName, filter)
}
