// Package validator implements the Validator component of the QUEPA
// architecture (Section III-A): before a query is executed in augmented
// mode, the validator (i) checks that the query can be augmented at all —
// aggregate queries cannot, because their results are not data objects with
// global keys — and (ii) rewrites the query, when necessary, so that the
// identifiers of the returned data objects are part of the result.
package validator

import (
	"context"
	"fmt"
	"strings"

	"quepa/internal/core"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/relstore"
)

// ErrNotAugmentable marks queries the store's language parses but that cannot
// participate in augmentation: writes, and reads whose results are values
// rather than data objects (aggregates, JOIN, DISTINCT, count(), LEN, EXISTS).
type ErrNotAugmentable struct{ Reason string }

func (e *ErrNotAugmentable) Error() string {
	return "validator: query cannot be augmented: " + e.Reason
}

// Validation is the outcome of validating a query.
type Validation struct {
	// Query is the query to execute: the original one, or its rewriting
	// when identifiers had to be added to the projection.
	Query string
	// Rewritten reports whether Query differs from the input.
	Rewritten bool
}

// keyResolver matches connectors that expose the identifier field of a
// collection (connector.KeyResolver, matched structurally to avoid a
// dependency cycle).
type keyResolver interface {
	KeyField(ctx context.Context, collection string) (string, error)
}

// Validate checks that the query can be executed in augmented mode against
// the given store and returns the (possibly rewritten) query to run. The
// context bounds key-field resolution, which is a remote round trip for
// wire-backed stores.
func Validate(ctx context.Context, s core.Store, query string) (Validation, error) {
	switch s.Kind() {
	case core.KindRelational:
		return validateRelational(ctx, s, query)
	case core.KindDocument:
		return validateDocument(query)
	case core.KindKeyValue:
		return validateKeyValue(query)
	case core.KindGraph:
		return validateGraph(query)
	default:
		return Validation{}, fmt.Errorf("validator: unknown store kind %v", s.Kind())
	}
}

func validateRelational(ctx context.Context, s core.Store, query string) (Validation, error) {
	st, err := relstore.Parse(query)
	if err != nil {
		return Validation{}, err
	}
	if !st.IsSelect() {
		return Validation{}, &ErrNotAugmentable{Reason: "only SELECT queries can be augmented"}
	}
	if st.HasAggregate() {
		return Validation{}, &ErrNotAugmentable{Reason: "queries with aggregate functions return values, not data objects"}
	}
	if st.HasJoin() {
		return Validation{}, &ErrNotAugmentable{Reason: "joined rows are not data objects with a global key"}
	}
	if st.HasDistinct() {
		return Validation{}, &ErrNotAugmentable{Reason: "DISTINCT returns column values, not data objects"}
	}
	// Rewrite so the key column appears in the projection (paper Fig. 2,
	// step 3). The engine reports row keys regardless, but the rewrite makes
	// identifiers visible in the user-facing result, as the paper requires.
	if kr, ok := s.(keyResolver); ok {
		keyField, err := kr.KeyField(ctx, st.Table())
		if err != nil {
			return Validation{}, fmt.Errorf("validator: resolving key column of %q: %w", st.Table(), err)
		}
		rewritten, changed := st.EnsureKeyColumn(keyField)
		return Validation{Query: rewritten, Rewritten: changed}, nil
	}
	return Validation{Query: query}, nil
}

func validateDocument(query string) (Validation, error) {
	_, verb, _, err := docstore.ParseQuery(query)
	if err != nil {
		return Validation{}, err
	}
	if verb == "count" {
		return Validation{}, &ErrNotAugmentable{Reason: "count() is an aggregate"}
	}
	// find() returns whole documents including _id: nothing to rewrite.
	return Validation{Query: query}, nil
}

func validateKeyValue(query string) (Validation, error) {
	fields := strings.Fields(query)
	if len(fields) == 0 {
		return Validation{}, fmt.Errorf("validator: empty key-value command")
	}
	switch strings.ToUpper(fields[0]) {
	case "GET", "MGET", "KEYS", "SCAN":
		return Validation{Query: query}, nil
	case "LEN":
		return Validation{}, &ErrNotAugmentable{Reason: "LEN is an aggregate"}
	case "EXISTS":
		return Validation{}, &ErrNotAugmentable{Reason: "EXISTS returns a boolean, not the stored entry"}
	case "SET", "DEL":
		return Validation{}, &ErrNotAugmentable{Reason: "writes cannot be augmented"}
	default:
		return Validation{}, fmt.Errorf("validator: unknown key-value command %q", fields[0])
	}
}

func validateGraph(query string) (Validation, error) {
	if _, ok := graphstore.ClassifyQuery(query); !ok {
		return Validation{}, fmt.Errorf("validator: malformed graph query %q", query)
	}
	// MATCH and NEIGHBORS both return nodes, which carry their ids.
	return Validation{Query: query}, nil
}
