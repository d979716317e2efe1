package aindex

import (
	"context"
	"reflect"
	"testing"

	"quepa/internal/core"
)

// memJournal records LogCtx calls for assertions.
type memJournal struct {
	batches [][]JournalOp
	epochs  []uint64
}

func (j *memJournal) LogCtx(_ context.Context, ops []JournalOp, epoch uint64) {
	cp := make([]JournalOp, len(ops))
	copy(cp, ops)
	j.batches = append(j.batches, cp)
	j.epochs = append(j.epochs, epoch)
}

func TestJournalObservesMutationsInOrder(t *testing.T) {
	ix := New()
	j := &memJournal{}
	ix.SetJournal(j)

	r1 := prel("pg.users.1", "mongo.profiles.a", core.Identity, 0.9)
	r2 := prel("pg.users.2", "mongo.profiles.a", core.Matching, 0.7)
	if err := ix.Insert(r1); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertRaw(r2); err != nil {
		t.Fatal(err)
	}
	if !ix.RemoveObject(core.MustParseGlobalKey("pg.users.2")) {
		t.Fatal("remove missed")
	}
	// Removing an absent key must not be journaled: replay would succeed but
	// the batch is pure noise.
	if ix.RemoveObject(core.MustParseGlobalKey("pg.users.99")) {
		t.Fatal("phantom removal")
	}

	want := [][]JournalOp{
		{{Kind: OpInsert, Rel: r1}},
		{{Kind: OpInsertRaw, Rel: r2}},
		{{Kind: OpRemove, Key: core.MustParseGlobalKey("pg.users.2")}},
	}
	if !reflect.DeepEqual(j.batches, want) {
		t.Fatalf("journal batches:\n got %+v\nwant %+v", j.batches, want)
	}
	for i := 1; i < len(j.epochs); i++ {
		if j.epochs[i] <= j.epochs[i-1] {
			t.Fatalf("epochs not strictly increasing: %v", j.epochs)
		}
	}

	// Replaying the journal into a fresh index reproduces the edges exactly.
	replay := New()
	for _, batch := range j.batches {
		for _, op := range batch {
			switch op.Kind {
			case OpInsert:
				if err := replay.Insert(op.Rel); err != nil {
					t.Fatal(err)
				}
			case OpInsertRaw:
				if err := replay.InsertRaw(op.Rel); err != nil {
					t.Fatal(err)
				}
			case OpRemove:
				replay.RemoveObject(op.Key)
			}
		}
	}
	if !reflect.DeepEqual(replay.Edges(), ix.Edges()) {
		t.Fatalf("replay mismatch:\n got %v\nwant %v", replay.Edges(), ix.Edges())
	}
}

func TestAdvanceEpochIsForwardOnly(t *testing.T) {
	ix := New()
	ix.AdvanceEpoch(10)
	j := &memJournal{}
	ix.SetJournal(j)
	if err := ix.Insert(prel("a.b.1", "c.d.2", core.Identity, 0.9)); err != nil {
		t.Fatal(err)
	}
	if len(j.epochs) != 1 || j.epochs[0] != 11 {
		t.Fatalf("epoch after AdvanceEpoch(10) = %v, want [11]", j.epochs)
	}
	ix.AdvanceEpoch(5) // backwards: refused
	if err := ix.Insert(prel("a.b.3", "c.d.4", core.Identity, 0.9)); err != nil {
		t.Fatal(err)
	}
	if j.epochs[1] != 12 {
		t.Fatalf("epoch moved backwards: %v", j.epochs)
	}
}
