package workload

import (
	"context"
	"slices"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/core"
)

var ctx = context.Background()

func tinySpec() Spec {
	s := DefaultSpec()
	s.Artists = 10
	s.AlbumsPerArtist = 3
	s.Customers = 20
	return s
}

func TestBuildBasePolystore(t *testing.T) {
	b, err := Build(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	dbs := b.Databases()
	if len(dbs) != 4 {
		t.Fatalf("databases = %v", dbs)
	}
	if b.Poly.Size() != 4 {
		t.Errorf("polystore size = %d", b.Poly.Size())
	}
	// All four kinds present.
	kinds := map[core.StoreKind]bool{}
	for _, name := range dbs {
		s, err := b.Poly.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		kinds[s.Kind()] = true
	}
	if len(kinds) != 4 {
		t.Errorf("store kinds = %v", kinds)
	}
	if b.Index.NodeCount() == 0 || b.Index.EdgeCount() == 0 {
		t.Error("index empty")
	}
	if err := b.Index.Validate(); err != nil {
		t.Errorf("index invalid: %v", err)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{}, Colocated()); err == nil {
		t.Error("zero spec should fail")
	}
}

func TestReplication(t *testing.T) {
	spec := tinySpec()
	spec.ReplicaRounds = 2
	b, err := Build(spec, Colocated())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Databases()); got != 10 {
		t.Fatalf("databases with 2 replica rounds = %d, want 10", got)
	}
	if spec.Databases() != 10 {
		t.Errorf("Spec.Databases() = %d", spec.Databases())
	}
	// Only one discount store.
	count := 0
	for _, name := range b.Databases() {
		s, _ := b.Poly.Database(name)
		if s.Kind() == core.KindKeyValue {
			count++
		}
	}
	if count != 1 {
		t.Errorf("key-value stores = %d, want 1 (Redis stays single)", count)
	}
	// Replicas are reachable from the base objects through the index.
	hits := b.Index.Reach(core.NewGlobalKey("catalogue", "albums", "d0"), 0)
	replicaSeen := false
	for _, h := range hits {
		if h.Key.Database == "catalogue-2" || h.Key.Database == "catalogue-3" {
			replicaSeen = true
		}
	}
	if !replicaSeen {
		t.Error("replica objects not reachable from base album")
	}
}

func TestQueriesReturnExactSizes(t *testing.T) {
	b, err := Build(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []string{"catalogue", "transactions", "similar-items"} {
		for _, size := range []int{1, 5, 20} {
			q, err := b.Query(db, size)
			if err != nil {
				t.Fatalf("Query(%s, %d): %v", db, size, err)
			}
			objs, err := b.Poly.Query(ctx, db, q)
			if err != nil {
				t.Fatalf("running %q on %s: %v", q, db, err)
			}
			if len(objs) != size {
				t.Errorf("%s size %d: got %d objects", db, size, len(objs))
			}
		}
	}
	// Discount store: sizes bounded by generated discount keys.
	q, err := b.Query("discount", 5)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := b.Poly.Query(ctx, "discount", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 5 {
		t.Errorf("discount query returned %d objects", len(objs))
	}
}

func TestQueryErrors(t *testing.T) {
	b, err := Build(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query("catalogue", 0); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := b.Query("ghost", 5); err == nil {
		t.Error("unknown database should fail")
	}
	// Oversized queries cap at the data size.
	q, err := b.Query("catalogue", 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := b.Poly.Query(ctx, "catalogue", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != tinySpec().Albums() {
		t.Errorf("capped query returned %d objects", len(objs))
	}
}

func TestDeterministicBuilds(t *testing.T) {
	b1, err := Build(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Build(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	if b1.Index.EdgeCount() != b2.Index.EdgeCount() || b1.Index.NodeCount() != b2.Index.NodeCount() {
		t.Errorf("non-deterministic index: %d/%d vs %d/%d edges/nodes",
			b1.Index.EdgeCount(), b1.Index.NodeCount(), b2.Index.EdgeCount(), b2.Index.NodeCount())
	}
	o1, err := b1.Poly.Fetch(ctx, core.NewGlobalKey("catalogue", "albums", "d3"))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := b2.Poly.Fetch(ctx, core.NewGlobalKey("catalogue", "albums", "d3"))
	if err != nil {
		t.Fatal(err)
	}
	if !o1.Equal(o2) {
		t.Errorf("non-deterministic data: %v vs %v", o1, o2)
	}
}

func TestAugmentationOverWorkload(t *testing.T) {
	spec := tinySpec()
	spec.ReplicaRounds = 1
	b, err := Build(spec, Colocated())
	if err != nil {
		t.Fatal(err)
	}
	aug := augment.New(b.Poly, b.Index, augment.Config{Strategy: augment.OuterBatch, BatchSize: 16, ThreadsSize: 4})
	q, err := b.Query("transactions", 10)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := aug.Search(ctx, "transactions", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Original) != 10 {
		t.Fatalf("original = %d", len(answer.Original))
	}
	// Every inventory row has at least a catalogue identity, and replicas
	// multiply the augmentation.
	if len(answer.Augmented) < 10 {
		t.Errorf("augmented = %d, want >= original size", len(answer.Augmented))
	}
	// Augmentation grows with polystore size for the same query.
	base, err := Build(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	augBase := augment.New(base.Poly, base.Index, augment.Config{Strategy: augment.Sequential})
	answerBase, err := augBase.Search(ctx, "transactions", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Augmented) <= len(answerBase.Augmented) {
		t.Errorf("replicated polystore augmentation (%d) not larger than base (%d)",
			len(answer.Augmented), len(answerBase.Augmented))
	}
}

func TestScale(t *testing.T) {
	s := DefaultSpec().Scale(0.1)
	if s.Artists != 12 || s.Customers != 20 {
		t.Errorf("scaled spec = %+v", s)
	}
	tiny := DefaultSpec().Scale(0.0001)
	if tiny.Artists < 1 {
		t.Error("scale floor violated")
	}
}

func TestQueryTargets(t *testing.T) {
	b, err := Build(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range b.QueryTargets() {
		if _, err := b.Poly.Database(db); err != nil {
			t.Errorf("query target %s not registered", db)
		}
	}
}

func TestRelationsRecorded(t *testing.T) {
	b, rels, err := BuildWithRelations(tinySpec(), Colocated())
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("no relations recorded")
	}
	// Every asserted relation must be valid and present in the index.
	for _, r := range rels {
		if err := r.Validate(); err != nil {
			t.Fatalf("recorded relation invalid: %v", err)
		}
		if _, ok := b.Index.Relation(r.From, r.To); !ok {
			t.Fatalf("recorded relation %v missing from index", r)
		}
	}
	// The materialized index holds at least as many edges as assertions.
	if b.Index.EdgeCount() < len(rels) {
		t.Errorf("index %d edges < %d assertions", b.Index.EdgeCount(), len(rels))
	}
	// Every call returns a slice of its own.
	rels[0].Prob = -1
	if _, again, _ := BuildWithRelations(tinySpec(), Colocated()); again[0].Prob == -1 {
		t.Error("Relations returned inner slice")
	}
}

// TestBuildIndexMatchesInsertReplay: Build loads its index in one bulk load,
// and that index has exactly the edges of replaying its relations through
// Insert one by one — with and without replica rounds, whose identities
// join the base catalogue's classes.
func TestBuildIndexMatchesInsertReplay(t *testing.T) {
	for _, rounds := range []int{0, 2} {
		spec := tinySpec()
		spec.ReplicaRounds = rounds
		b, rels, err := BuildWithRelations(spec, Colocated())
		if err != nil {
			t.Fatal(err)
		}
		seq := aindex.New()
		for _, r := range rels {
			if err := seq.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := b.Index.Edges(), seq.Edges(); !slices.Equal(got, want) {
			t.Fatalf("%d replica rounds: Build's index has %d edges, the Insert replay %d, and they differ",
				rounds, len(got), len(want))
		}
		if err := b.Index.Validate(); err != nil {
			t.Fatalf("%d replica rounds: %v", rounds, err)
		}
	}
}
