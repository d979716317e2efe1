package aindex

import (
	"bytes"
	"testing"

	"quepa/internal/core"
)

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
