package aindex

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"quepa/internal/core"
)

// randomRels generates a relation list with several connected components:
// keys are split into clusters, most relations stay inside a cluster and a
// few bridge clusters, so the bulk loader's component partitioning is
// exercised on both sides.
func randomRels(n int, seed int64) []core.PRelation {
	rng := rand.New(rand.NewSource(seed))
	const clusters, perCluster = 4, 6
	keys := make([][]core.GlobalKey, clusters)
	for c := range keys {
		keys[c] = make([]core.GlobalKey, perCluster)
		for i := range keys[c] {
			keys[c][i] = core.NewGlobalKey(fmt.Sprintf("db%d", c%3), "c", fmt.Sprintf("g%dk%d", c, i))
		}
	}
	var rels []core.PRelation
	for len(rels) < n {
		c := rng.Intn(clusters)
		a := keys[c][rng.Intn(perCluster)]
		var b core.GlobalKey
		if rng.Intn(8) == 0 { // occasional bridge between clusters
			b = keys[rng.Intn(clusters)][rng.Intn(perCluster)]
		} else {
			b = keys[c][rng.Intn(perCluster)]
		}
		if a == b {
			continue
		}
		typ := core.Matching
		if rng.Intn(3) == 0 {
			typ = core.Identity
		}
		rels = append(rels, core.PRelation{From: a, To: b, Type: typ, Prob: 0.5 + rng.Float64()/2})
	}
	return rels
}

// equalEdges compares two exported edge lists exactly — types, keys and
// float64 probabilities bit for bit.
func equalEdges(a, b []core.PRelation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBulkLoadMatchesSequential pins the build-path invariant: the
// closure computed by BulkLoad is byte-identical to replaying the relations
// through sequential Inserts, across random relation sets.
func TestBulkLoadMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rels := randomRels(40, seed)
		seq := New()
		for _, r := range rels {
			if err := seq.Insert(r); err != nil {
				return false
			}
		}
		bulk, err := BulkLoad(rels)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !equalEdges(seq.Edges(), bulk.Edges()) {
			t.Logf("seed %d: %d bulk edges vs %d sequential", seed, bulk.EdgeCount(), seq.EdgeCount())
			return false
		}
		if err := bulk.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBulkLoadReachMatchesSequential double-checks the equivalence at the
// query surface, not just the edge export.
func TestBulkLoadReachMatchesSequential(t *testing.T) {
	rels := randomRels(50, 11)
	seq := New()
	for _, r := range rels {
		if err := seq.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := BulkLoad(rels)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range seq.Keys() {
		for _, level := range []int{0, 1, 2} {
			a := seq.Reach(k, level)
			b := bulk.Reach(k, level)
			if len(a) != len(b) {
				t.Fatalf("key %v level %d: %d vs %d hits", k, level, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("key %v level %d hit %d: %+v vs %+v", k, level, i, b[i], a[i])
				}
			}
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	ix, err := BulkLoad(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NodeCount() != 0 || ix.EdgeCount() != 0 {
		t.Errorf("empty load produced %d nodes, %d edges", ix.NodeCount(), ix.EdgeCount())
	}
}

func TestBulkLoadRejectsInvalid(t *testing.T) {
	a := core.NewGlobalKey("db", "c", "a")
	b := core.NewGlobalKey("db", "c", "b")
	bad := []core.PRelation{
		core.NewMatching(a, b, 0.8),
		{From: a, To: b, Type: core.Identity, Prob: 1.5}, // out of range
	}
	if _, err := BulkLoad(bad); err == nil {
		t.Error("invalid relation accepted")
	}
}

// TestBulkLoadAfterLoadMutable: a bulk-loaded index is a normal index —
// subsequent Inserts keep enforcing the Consistency Condition.
func TestBulkLoadAfterLoadMutable(t *testing.T) {
	rels := randomRels(20, 3)
	ix, err := BulkLoad(rels)
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewGlobalKey("new", "c", "x")
	if err := ix.Insert(core.NewIdentity(rels[0].From, x, 0.9)); err != nil {
		t.Fatal(err)
	}
	if !ix.Contains(x) {
		t.Error("insert after bulk load lost")
	}
	if err := ix.Validate(); err != nil {
		t.Error(err)
	}
}

// forget is the cascading deletion of §III-C(b) as examples/oblivion runs
// it: the index rebuilt by BulkLoad from every asserted relation except the
// one between from and to.
func forget(t *testing.T, asserted []core.PRelation, from, to core.GlobalKey) *Index {
	t.Helper()
	var survivors []core.PRelation
	for _, r := range asserted {
		if r.From != from || r.To != to {
			survivors = append(survivors, r)
		}
	}
	if len(survivors) == len(asserted) {
		t.Fatalf("%v ~ %v was not asserted", from, to)
	}
	ix, err := BulkLoad(survivors)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestCascadingDeletion(t *testing.T) {
	ix := forget(t, []core.PRelation{
		core.NewIdentity(albumD1, invA32, 0.9),
		core.NewIdentity(albumD1, discount1, 0.8),
		core.NewMatching(salesS8, invA32, 0.7),
	}, albumD1, discount1)

	// Forget the d1~discount assertion: the inferred edges through it must
	// vanish (unlike the index's default lazy policy, which keeps them).
	if _, exists := ix.Relation(albumD1, discount1); exists {
		t.Error("deleted assertion still present")
	}
	if _, exists := ix.Relation(invA32, discount1); exists {
		t.Error("edge inferred via the deleted assertion survived the cascade")
	}
	if _, exists := ix.Relation(discount1, salesS8); exists {
		t.Error("matching propagated via the deleted assertion survived")
	}
	// Independent assertions survive.
	if _, exists := ix.Relation(albumD1, invA32); !exists {
		t.Error("independent assertion lost in cascade")
	}
	if _, exists := ix.Relation(salesS8, invA32); !exists {
		t.Error("independent matching lost in cascade")
	}
	// Matching propagation across the surviving identity is rebuilt.
	if _, exists := ix.Relation(salesS8, albumD1); !exists {
		t.Error("re-derivable inferred edge not rebuilt")
	}
	if err := ix.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCascadeKeepsIndependentlySupportedEdge(t *testing.T) {
	// The same edge asserted directly AND inferable via a chain.
	ix := forget(t, []core.PRelation{
		core.NewIdentity(albumD1, invA32, 0.9),
		core.NewIdentity(invA32, discount1, 0.85),
		core.NewIdentity(albumD1, discount1, 0.95), // direct assertion of the inferable edge
	}, invA32, discount1)

	// albumD1~discount1 was asserted on its own: it must survive with its
	// asserted probability.
	r, exists := ix.Relation(albumD1, discount1)
	if !exists {
		t.Fatal("directly asserted edge lost in cascade")
	}
	if r.Prob != 0.95 {
		t.Errorf("surviving probability = %g, want the asserted 0.95", r.Prob)
	}
	// And the closure re-derives invA32~discount1 through the two surviving
	// identities (0.9 × 0.95), replacing the forgotten direct assertion.
	r, exists = ix.Relation(invA32, discount1)
	if !exists {
		t.Fatal("re-derivable edge not rebuilt")
	}
	if r.Prob > 0.86 {
		t.Errorf("rebuilt probability %g still reflects the deleted assertion", r.Prob)
	}
}
