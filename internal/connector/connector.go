// Package connector adapts each native storage engine to the core.Store
// interface so that the augmenters, the validator and the middleware
// baselines can reach every database of the polystore uniformly while each
// engine keeps its own query language (the paper's Connectors component,
// Section III-A: "each connector is able to communicate with a specific
// database system by sending queries in the local language and returning the
// result; data objects are parsed into an internal representation").
//
// That representation is a view, not a copy: every engine keeps an object's
// fields as name-sorted slices, and its connector wraps them with
// core.SortedFields, so a read allocates no per-object field storage
// (DESIGN §3.17).
package connector

import (
	"context"
	"fmt"

	"quepa/internal/core"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
)

// KeyResolver is implemented by connectors that can report the name of the
// column/field acting as object identifier for a collection. The validator
// uses it to rewrite queries so identifiers appear in the result. The context
// matters for remote resolvers (a wire client pays a round trip); local
// connectors only honor cancellation.
type KeyResolver interface {
	KeyField(ctx context.Context, collection string) (string, error)
}

// Relational adapts a relstore database.
type Relational struct{ db *relstore.Store }

// NewRelational wraps a relational engine.
func NewRelational(db *relstore.Store) *Relational { return &Relational{db: db} }

// Name returns the database name.
func (c *Relational) Name() string { return c.db.Name() }

// Kind reports the engine family.
func (c *Relational) Kind() core.StoreKind { return core.KindRelational }

// Collections lists the tables.
func (c *Relational) Collections() []string { return c.db.Tables() }

// KeyField returns the primary-key column of a table.
func (c *Relational) KeyField(ctx context.Context, collection string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return c.db.PrimaryKey(collection)
}

// Get retrieves one row as a data object.
func (c *Relational) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if err := ctx.Err(); err != nil {
		return core.Object{}, err
	}
	row, ok, err := c.db.Get(collection, key)
	if err != nil {
		return core.Object{}, err
	}
	if !ok {
		return core.Object{}, fmt.Errorf("%s.%s.%s: %w", c.Name(), collection, key, core.ErrNotFound)
	}
	return c.rowObject(row), nil
}

// GetBatch retrieves many rows in one round trip.
func (c *Relational) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := c.db.GetBatch(collection, keys)
	if err != nil {
		return nil, err
	}
	out := make([]core.Object, len(rows))
	for i, r := range rows {
		out[i] = c.rowObject(r)
	}
	return out, nil
}

// Query executes a SQL SELECT.
func (c *Relational) Query(ctx context.Context, query string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := c.db.Select(query)
	if err != nil {
		return nil, err
	}
	out := make([]core.Object, len(rows))
	for i, r := range rows {
		out[i] = c.rowObject(r)
	}
	return out, nil
}

func (c *Relational) rowObject(r relstore.Row) core.Object {
	return core.Object{GK: core.NewGlobalKey(c.Name(), r.Table, r.Key), Fields: core.SortedFields(r.Names, r.Values)}
}

// Document adapts a docstore database.
type Document struct{ db *docstore.Store }

// NewDocument wraps a document engine.
func NewDocument(db *docstore.Store) *Document { return &Document{db: db} }

// Name returns the database name.
func (c *Document) Name() string { return c.db.Name() }

// Kind reports the engine family.
func (c *Document) Kind() core.StoreKind { return core.KindDocument }

// Collections lists the document collections.
func (c *Document) Collections() []string { return c.db.Collections() }

// KeyField returns the identifier field of documents.
func (c *Document) KeyField(context.Context, string) (string, error) { return "_id", nil }

// Get retrieves one document as a data object.
func (c *Document) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if err := ctx.Err(); err != nil {
		return core.Object{}, err
	}
	d, ok := c.db.Get(collection, key)
	if !ok {
		return core.Object{}, fmt.Errorf("%s.%s.%s: %w", c.Name(), collection, key, core.ErrNotFound)
	}
	return c.docObject(collection, d), nil
}

// GetBatch retrieves many documents in one round trip.
func (c *Document) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	docs := c.db.GetBatch(collection, keys)
	out := make([]core.Object, len(docs))
	for i, d := range docs {
		out[i] = c.docObject(collection, d)
	}
	return out, nil
}

// Query executes a collection.find(...) query.
func (c *Document) Query(ctx context.Context, query string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	collection, _, _, err := docstore.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	docs, err := c.db.Query(query)
	if err != nil {
		return nil, err
	}
	out := make([]core.Object, len(docs))
	for i, d := range docs {
		out[i] = c.docObject(collection, d)
	}
	return out, nil
}

func (c *Document) docObject(collection string, d *docstore.Document) core.Object {
	return core.Object{GK: core.NewGlobalKey(c.Name(), collection, d.ID), Fields: core.SortedFields(d.Fields())}
}

// KeyValue adapts a kvstore database.
type KeyValue struct{ db *kvstore.Store }

// NewKeyValue wraps a key-value engine.
func NewKeyValue(db *kvstore.Store) *KeyValue { return &KeyValue{db: db} }

// Name returns the database name.
func (c *KeyValue) Name() string { return c.db.Name() }

// Kind reports the engine family.
func (c *KeyValue) Kind() core.StoreKind { return core.KindKeyValue }

// Collections lists the buckets.
func (c *KeyValue) Collections() []string { return c.db.Buckets() }

// Get retrieves one entry as a data object.
func (c *KeyValue) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if err := ctx.Err(); err != nil {
		return core.Object{}, err
	}
	v, ok := c.db.Get(collection, key)
	if !ok {
		return core.Object{}, fmt.Errorf("%s.%s.%s: %w", c.Name(), collection, key, core.ErrNotFound)
	}
	return c.entryObject(kvstore.Entry{Bucket: collection, Key: key, Value: v}, []string{v}), nil
}

// GetBatch retrieves many entries in one MGET round trip.
func (c *KeyValue) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.entryObjects(c.db.MGet(collection, keys)), nil
}

// Query executes one command of the kv command language.
func (c *KeyValue) Query(ctx context.Context, query string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := c.db.Do(query)
	if err != nil {
		return nil, err
	}
	return c.entryObjects(entries), nil
}

// valueNames is the one names slice every key-value object shares.
var valueNames = []string{core.ValueField}

// entryObjects turns entries into objects whose one-element value slices are
// cut from a single array, one allocation for the whole batch.
func (c *KeyValue) entryObjects(entries []kvstore.Entry) []core.Object {
	out := make([]core.Object, len(entries))
	values := make([]string, len(entries))
	for i, e := range entries {
		values[i] = e.Value
		out[i] = c.entryObject(e, values[i:i+1:i+1])
	}
	return out
}

func (c *KeyValue) entryObject(e kvstore.Entry, value []string) core.Object {
	return core.Object{GK: core.NewGlobalKey(c.Name(), e.Bucket, e.Key), Fields: core.SortedFields(valueNames, value)}
}

// Graph adapts a graphstore database. Node labels act as collections.
type Graph struct{ db *graphstore.Store }

// NewGraph wraps a graph engine.
func NewGraph(db *graphstore.Store) *Graph { return &Graph{db: db} }

// Name returns the database name.
func (c *Graph) Name() string { return c.db.Name() }

// Kind reports the engine family.
func (c *Graph) Kind() core.StoreKind { return core.KindGraph }

// Collections lists the node labels.
func (c *Graph) Collections() []string { return c.db.Labels() }

// Get retrieves one node as a data object. The node must carry the requested
// label (collection): global keys are collection-scoped.
func (c *Graph) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if err := ctx.Err(); err != nil {
		return core.Object{}, err
	}
	n, ok := c.db.GetNode(key)
	if !ok || n.Label != collection {
		return core.Object{}, fmt.Errorf("%s.%s.%s: %w", c.Name(), collection, key, core.ErrNotFound)
	}
	return c.nodeObject(n), nil
}

// GetBatch retrieves many nodes in one round trip.
func (c *Graph) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes := c.db.GetNodes(keys)
	out := make([]core.Object, 0, len(nodes))
	for _, n := range nodes {
		if n.Label == collection {
			out = append(out, c.nodeObject(n))
		}
	}
	return out, nil
}

// Query executes a MATCH or NEIGHBORS statement.
func (c *Graph) Query(ctx context.Context, query string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes, err := c.db.Query(query)
	if err != nil {
		return nil, err
	}
	out := make([]core.Object, len(nodes))
	for i, n := range nodes {
		out[i] = c.nodeObject(n)
	}
	return out, nil
}

func (c *Graph) nodeObject(n *graphstore.Node) core.Object {
	return core.Object{GK: core.NewGlobalKey(c.Name(), n.Label, n.ID), Fields: core.SortedFields(n.Names, n.Values)}
}

// Engine exposes the underlying relational engine (administration paths:
// DDL, bulk loads, deletes outside the augmentation flow).
func (c *Relational) Engine() *relstore.Store { return c.db }

// Engine exposes the underlying document engine.
func (c *Document) Engine() *docstore.Store { return c.db }

// Engine exposes the underlying key-value engine.
func (c *KeyValue) Engine() *kvstore.Store { return c.db }

// Engine exposes the underlying graph engine.
func (c *Graph) Engine() *graphstore.Store { return c.db }
