package core

import (
	"fmt"
	"math"
)

// RelType is the type of a p-relation between two data objects.
type RelType int

const (
	// Identity (written o1 ~ o2) is an equivalence relation stating that the
	// two objects refer to the same real-world entity. It is reflexive,
	// symmetric and transitive.
	Identity RelType = iota
	// Matching (written o1 ≡ o2) states that the two objects share some
	// common information. It is reflexive and symmetric but not necessarily
	// transitive.
	Matching
)

// String returns the lowercase name of the relation type.
func (t RelType) String() string {
	switch t {
	case Identity:
		return "identity"
	case Matching:
		return "matching"
	default:
		return "unknown"
	}
}

// PRelation is a probabilistic relation between two data objects of a
// polystore (Definition 1 of the paper): the relation of the given type holds
// between From and To with probability Prob, 0 < Prob <= 1.
//
// P-relations are symmetric; a PRelation value represents the unordered pair
// {From, To}. The A' index normalizes direction on insertion.
type PRelation struct {
	From GlobalKey
	To   GlobalKey
	Type RelType
	Prob float64
}

// NewIdentity builds an identity p-relation with the given probability.
func NewIdentity(from, to GlobalKey, prob float64) PRelation {
	return PRelation{From: from, To: to, Type: Identity, Prob: prob}
}

// NewMatching builds a matching p-relation with the given probability.
func NewMatching(from, to GlobalKey, prob float64) PRelation {
	return PRelation{From: from, To: to, Type: Matching, Prob: prob}
}

// Validate checks the structural constraints of Definition 1: both endpoints
// must be valid, distinct global keys and the probability must lie in (0, 1].
func (r PRelation) Validate() error {
	if err := r.From.Validate(); err != nil {
		return fmt.Errorf("core: invalid p-relation source: %w", err)
	}
	if err := r.To.Validate(); err != nil {
		return fmt.Errorf("core: invalid p-relation target: %w", err)
	}
	if r.From == r.To {
		return fmt.Errorf("core: p-relation endpoints coincide: %v", r.From)
	}
	// NaN compares false against everything, so the range check alone would
	// wave it through; reject non-finite probabilities explicitly.
	if math.IsNaN(r.Prob) || math.IsInf(r.Prob, 0) || r.Prob <= 0 || r.Prob > 1 {
		return fmt.Errorf("core: p-relation probability %g outside (0, 1]", r.Prob)
	}
	if r.Type != Identity && r.Type != Matching {
		return fmt.Errorf("core: unknown p-relation type %d", int(r.Type))
	}
	return nil
}

// String renders the p-relation as "from ~(p) to" or "from ≡(p) to".
func (r PRelation) String() string {
	op := "~"
	if r.Type == Matching {
		op = "≡"
	}
	return fmt.Sprintf("%v %s(%.3g) %v", r.From, op, r.Prob, r.To)
}
