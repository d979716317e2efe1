package aindex

import (
	"bytes"
	"testing"

	"quepa/internal/core"
)

func TestLineageInsertAndRead(t *testing.T) {
	li := NewLineageIndex()
	if err := li.Insert(core.NewIdentity(albumD1, invA32, 0.9)); err != nil {
		t.Fatal(err)
	}
	if err := li.Insert(core.NewIdentity(albumD1, discount1, 0.8)); err != nil {
		t.Fatal(err)
	}
	// The underlying index behaves like a plain one, closure included.
	if _, ok := li.Index().Relation(invA32, discount1); !ok {
		t.Fatal("materialized edge missing")
	}
	if got := len(li.Asserted()); got != 2 {
		t.Errorf("Asserted = %d", got)
	}
	if err := li.Insert(core.NewIdentity(albumD1, albumD1, 0.5)); err == nil {
		t.Error("invalid assertion accepted")
	}
}

func TestLineageTracksDerivation(t *testing.T) {
	li := NewLineageIndex()
	li.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	li.Insert(core.NewIdentity(albumD1, discount1, 0.8))
	// The inferred invA32~discount1 edge derives from the second assertion.
	if !li.DerivedFrom(invA32, discount1, albumD1, discount1) {
		t.Error("inferred edge not linked to its triggering assertion")
	}
	if li.DerivedFrom(albumD1, invA32, salesS8, invA32) {
		t.Error("derivation from an unrelated assertion reported")
	}
}

func TestCascadingDeletion(t *testing.T) {
	li := NewLineageIndex()
	li.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	li.Insert(core.NewIdentity(albumD1, discount1, 0.8))
	li.Insert(core.NewMatching(salesS8, invA32, 0.7))

	// Forget the d1~discount assertion: the inferred edges through it must
	// vanish (unlike the index's default lazy policy, which keeps them).
	ok, err := li.DeleteCascading(albumD1, discount1)
	if err != nil || !ok {
		t.Fatalf("DeleteCascading = %v, %v", ok, err)
	}
	if _, exists := li.Index().Relation(albumD1, discount1); exists {
		t.Error("deleted assertion still present")
	}
	if _, exists := li.Index().Relation(invA32, discount1); exists {
		t.Error("edge inferred via the deleted assertion survived the cascade")
	}
	if _, exists := li.Index().Relation(discount1, salesS8); exists {
		t.Error("matching propagated via the deleted assertion survived")
	}
	// Independent assertions survive.
	if _, exists := li.Index().Relation(albumD1, invA32); !exists {
		t.Error("independent assertion lost in cascade")
	}
	if _, exists := li.Index().Relation(salesS8, invA32); !exists {
		t.Error("independent matching lost in cascade")
	}
	// Matching propagation across the surviving identity is rebuilt.
	if _, exists := li.Index().Relation(salesS8, albumD1); !exists {
		t.Error("re-derivable inferred edge not rebuilt")
	}
	if err := li.Index().Validate(); err != nil {
		t.Error(err)
	}
	// Deleting a non-assertion is a no-op.
	ok, err = li.DeleteCascading(albumD1, discount1)
	if err != nil || ok {
		t.Errorf("second delete = %v, %v", ok, err)
	}
}

func TestCascadeKeepsIndependentlySupportedEdge(t *testing.T) {
	li := NewLineageIndex()
	// The same edge asserted directly AND inferable via a chain.
	li.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	li.Insert(core.NewIdentity(invA32, discount1, 0.85))
	li.Insert(core.NewIdentity(albumD1, discount1, 0.95)) // direct assertion of the inferable edge

	ok, err := li.DeleteCascading(invA32, discount1)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// albumD1~discount1 was asserted on its own: it must survive with its
	// asserted probability.
	r, exists := li.Index().Relation(albumD1, discount1)
	if !exists {
		t.Fatal("directly asserted edge lost in cascade")
	}
	if r.Prob != 0.95 {
		t.Errorf("surviving probability = %g, want the asserted 0.95", r.Prob)
	}
	// And the closure re-derives invA32~discount1 through the two surviving
	// identities (0.9 × 0.95), replacing the forgotten direct assertion.
	r, exists = li.Index().Relation(invA32, discount1)
	if !exists {
		t.Fatal("re-derivable edge not rebuilt")
	}
	if r.Prob > 0.86 {
		t.Errorf("rebuilt probability %g still reflects the deleted assertion", r.Prob)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ix := New()
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	ix.Insert(core.NewIdentity(albumD1, discount1, 0.8))
	ix.Insert(core.NewMatching(salesS8, invA32, 0.7))

	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, ix.Edges(), 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NodeCount() != ix.NodeCount() || loaded.EdgeCount() != ix.EdgeCount() {
		t.Fatalf("loaded %d/%d, want %d/%d nodes/edges",
			loaded.NodeCount(), loaded.EdgeCount(), ix.NodeCount(), ix.EdgeCount())
	}
	for _, e := range ix.Edges() {
		got, ok := loaded.Relation(e.From, e.To)
		if !ok || got.Type != e.Type || got.Prob != e.Prob {
			t.Errorf("edge %v lost or changed: %v, %v", e, got, ok)
		}
	}
	if err := loaded.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPersistLargeIndex(t *testing.T) {
	ix := New()
	keys := make([]core.GlobalKey, 60)
	for i := range keys {
		keys[i] = core.NewGlobalKey("db", "c", string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	for i := 0; i+1 < len(keys); i++ {
		typ := core.Matching
		if i%3 == 0 {
			typ = core.Identity
		}
		if err := ix.Insert(core.PRelation{From: keys[i], To: keys[i+1], Type: typ, Prob: 0.7}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, ix.Edges(), 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.EdgeCount() != ix.EdgeCount() {
		t.Errorf("edges = %d, want %d", loaded.EdgeCount(), ix.EdgeCount())
	}
}
