// Package collector implements the Collector component of QUEPA (Section
// III-D): it discovers p-relations between the data objects of a polystore
// and loads them into the A' index.
//
// The paper uses two off-the-shelf tools as black boxes — BLAST for
// unsupervised blocking and Duke for pairwise matching with a genetic
// configuration tuner. This package substitutes both with self-contained
// equivalents: token-based blocking with frequency-based stop tokens, and a
// weighted ensemble of string/numeric similarity comparators whose weights
// can be tuned by hill climbing on labeled pairs. Scores at or above the
// identity threshold become identity p-relations; scores in the matching
// band become matching p-relations; and the paper's local-deduplication rule
// (at most one identity partner per foreign dataset) is enforced at the end.
package collector

import (
	"strconv"
	"strings"

	"quepa/internal/core"
)

// Comparator scores the similarity of two data objects in [0, 1].
type Comparator interface {
	Name() string
	Compare(a, b core.Object) float64
}

// TokenJaccard compares the token sets of all field values.
type TokenJaccard struct{}

// Name implements Comparator.
func (TokenJaccard) Name() string { return "token-jaccard" }

// Compare implements Comparator.
func (TokenJaccard) Compare(a, b core.Object) float64 {
	ta := tokenSet(a)
	tb := tokenSet(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for tok := range ta {
		if tb[tok] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

// FieldOverlap measures how many exact field values the objects share,
// regardless of the field names (objects from different engines name their
// attributes differently).
type FieldOverlap struct{}

// Name implements Comparator.
func (FieldOverlap) Name() string { return "field-overlap" }

// Compare implements Comparator.
func (FieldOverlap) Compare(a, b core.Object) float64 {
	if a.Fields.Len() == 0 || b.Fields.Len() == 0 {
		return 0
	}
	values := map[string]bool{}
	a.Fields.All(func(_, v string) bool {
		if v = normalize(v); v != "" {
			values[v] = true
		}
		return true
	})
	shared := 0
	seen := map[string]bool{}
	b.Fields.All(func(_, v string) bool {
		if v = normalize(v); v != "" && values[v] && !seen[v] {
			shared++
			seen[v] = true
		}
		return true
	})
	return float64(shared) / float64(min(a.Fields.Len(), b.Fields.Len()))
}

// Levenshtein compares the best-matching field values by edit distance.
// For each field of the smaller object it finds the closest field of the
// other and averages the normalized similarities.
type Levenshtein struct{}

// Name implements Comparator.
func (Levenshtein) Name() string { return "levenshtein" }

// Compare implements Comparator.
func (Levenshtein) Compare(a, b core.Object) float64 {
	av := fieldValues(a)
	bv := fieldValues(b)
	if len(av) == 0 || len(bv) == 0 {
		return 0
	}
	// Average both directions so the comparator is symmetric.
	return (bestMatchAvg(av, bv, levenshteinSim) + bestMatchAvg(bv, av, levenshteinSim)) / 2
}

// bestMatchAvg matches each element of xs to its most similar element of ys
// and averages the similarities.
func bestMatchAvg[T any](xs, ys []T, sim func(T, T) float64) float64 {
	total := 0.0
	for _, x := range xs {
		best := 0.0
		for _, y := range ys {
			if s := sim(x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(xs))
}

// NumericProximity compares the numeric field values of the two objects:
// each number of the smaller set is matched to the closest number of the
// other, scored by relative distance.
type NumericProximity struct{}

// Name implements Comparator.
func (NumericProximity) Name() string { return "numeric-proximity" }

// Compare implements Comparator.
func (NumericProximity) Compare(a, b core.Object) float64 {
	na := numericValues(a)
	nb := numericValues(b)
	if len(na) == 0 || len(nb) == 0 {
		return 0
	}
	return (bestMatchAvg(na, nb, numericSim) + bestMatchAvg(nb, na, numericSim)) / 2
}

func numericSim(x, y float64) float64 {
	if x == y {
		return 1
	}
	ax, ay := x, y
	if ax < 0 {
		ax = -ax
	}
	if ay < 0 {
		ay = -ay
	}
	maxAbs := ax
	if ay > maxAbs {
		maxAbs = ay
	}
	if maxAbs == 0 {
		return 1
	}
	d := (x - y) / maxAbs
	if d < 0 {
		d = -d
	}
	if d > 1 {
		return 0
	}
	return 1 - d
}

func normalize(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// tokenSet extracts the lowercase alphanumeric tokens (length >= 3) of all
// field values of an object.
func tokenSet(o core.Object) map[string]bool {
	out := map[string]bool{}
	o.Fields.All(func(_, v string) bool {
		for _, tok := range tokenize(v) {
			out[tok] = true
		}
		return true
	})
	return out
}

func tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() >= 3 {
			out = append(out, strings.ToLower(cur.String()))
		}
		cur.Reset()
	}
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

func fieldValues(o core.Object) []string {
	out := make([]string, 0, o.Fields.Len())
	o.Fields.All(func(_, v string) bool {
		if v = normalize(v); v != "" {
			out = append(out, v)
		}
		return true
	})
	return out
}

func numericValues(o core.Object) []float64 {
	var out []float64
	o.Fields.All(func(_, v string) bool {
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out = append(out, f)
		}
		return true
	})
	return out
}

// levenshteinSim is 1 - dist/maxLen, with a two-row dynamic program.
func levenshteinSim(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(prev[lb])/float64(maxLen)
}
