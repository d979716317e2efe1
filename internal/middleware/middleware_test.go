package middleware

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/middleware/memlimit"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
)

var ctx = context.Background()

// fixture builds a small Polyphony-style polystore and index.
func fixture(t *testing.T) (*core.Polystore, *aindex.Index) {
	t.Helper()
	poly := core.NewPolystore()

	rel := relstore.New("transactions")
	for _, sql := range []string{
		`CREATE TABLE inventory (id TEXT PRIMARY KEY, artist TEXT, name TEXT)`,
		`INSERT INTO inventory VALUES ('a32', 'Cure', 'Wish'), ('a33', 'Cure', 'Disintegration'), ('a34', 'Radiohead', 'OK Computer')`,
	} {
		if _, err := rel.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	doc := docstore.New("catalogue")
	for _, d := range []string{
		`{"_id": "d1", "title": "Wish", "artist": "The Cure"}`,
		`{"_id": "d2", "title": "Disintegration", "artist": "The Cure"}`,
	} {
		if _, err := doc.Insert("albums", d); err != nil {
			t.Fatal(err)
		}
	}
	kv := kvstore.New("discount")
	kv.Set("drop", "k1", "40%")
	graph := graphstore.New("similar-items")
	graph.AddNode("n1", "items", map[string]string{"title": "Wish"})
	graph.AddNode("n2", "items", map[string]string{"title": "Disintegration"})
	graph.AddEdge("n1", "n2", "SIMILAR")

	for _, s := range []core.Store{
		connector.NewRelational(rel),
		connector.NewDocument(doc),
		connector.NewKeyValue(kv),
		connector.NewGraph(graph),
	} {
		if err := poly.Register(s); err != nil {
			t.Fatal(err)
		}
	}

	ix := aindex.New()
	gk := core.MustParseGlobalKey
	for _, r := range []core.PRelation{
		core.NewIdentity(gk("catalogue.albums.d1"), gk("transactions.inventory.a32"), 0.9),
		core.NewIdentity(gk("catalogue.albums.d1"), gk("discount.drop.k1"), 0.8),
		core.NewIdentity(gk("similar-items.items.n1"), gk("transactions.inventory.a32"), 0.85),
		core.NewMatching(gk("catalogue.albums.d2"), gk("transactions.inventory.a33"), 0.7),
		core.NewMatching(gk("similar-items.items.n2"), gk("transactions.inventory.a33"), 0.65),
	} {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return poly, ix
}

const wishQuery = `SELECT * FROM inventory WHERE name LIKE '%wish%'`

// signature renders an answer for set comparison.
func signature(a *augment.Answer) string {
	s := ""
	for _, ao := range a.Augmented {
		s += fmt.Sprintf("%s:%.4f;", ao.Object.GK, ao.Prob)
	}
	return s
}

func quepaReference(t *testing.T, poly *core.Polystore, ix *aindex.Index, level int) string {
	t.Helper()
	aug := augment.New(poly, ix, augment.Config{Strategy: augment.Sequential})
	answer, err := aug.Search(ctx, "transactions", wishQuery, level)
	if err != nil {
		t.Fatal(err)
	}
	return signature(answer)
}

func noSleep(time.Duration) {}

// allSupported makes a baseline integrate every engine kind (for answer
// equivalence checks against QUEPA).
var allSupported = []core.StoreKind{}

func TestMetamodelModesMatchQuepa(t *testing.T) {
	poly, ix := fixture(t)
	for _, level := range []int{0, 1} {
		want := quepaReference(t, poly, ix, level)
		for _, native := range []bool{false, true} {
			m := NewMetamodel(poly, ix, MetamodelConfig{Native: native, Sleep: noSleep, Unsupported: allSupported})
			answer, err := m.Augment(ctx, "transactions", wishQuery, level)
			if err != nil {
				t.Fatalf("%s level %d: %v", m.Name(), level, err)
			}
			if got := signature(answer); got != want {
				t.Errorf("%s level %d:\n got  %s\n want %s", m.Name(), level, got, want)
			}
		}
	}
}

func TestTalendMatchesQuepa(t *testing.T) {
	poly, ix := fixture(t)
	for _, level := range []int{0, 1} {
		want := quepaReference(t, poly, ix, level)
		tal := NewTalend(poly, ix, TalendConfig{Sleep: noSleep, Unsupported: allSupported})
		answer, err := tal.Augment(ctx, "transactions", wishQuery, level)
		if err != nil {
			t.Fatal(err)
		}
		if got := signature(answer); got != want {
			t.Errorf("TALEND level %d:\n got  %s\n want %s", level, got, want)
		}
	}
}

func TestArangoModesMatchQuepa(t *testing.T) {
	poly, ix := fixture(t)
	for _, level := range []int{0, 1} {
		want := quepaReference(t, poly, ix, level)
		for _, native := range []bool{false, true} {
			a := NewArango(poly, ix, ArangoConfig{Native: native, Sleep: noSleep, Unsupported: allSupported})
			answer, err := a.Augment(ctx, "transactions", wishQuery, level)
			if err != nil {
				t.Fatalf("%s level %d: %v", a.Name(), level, err)
			}
			if got := signature(answer); got != want {
				t.Errorf("%s level %d:\n got  %s\n want %s", a.Name(), level, got, want)
			}
		}
	}
}

func TestMetamodelDefaultExcludesKeyValue(t *testing.T) {
	poly, ix := fixture(t)
	m := NewMetamodel(poly, ix, MetamodelConfig{Sleep: noSleep})
	answer, err := m.Augment(ctx, "transactions", wishQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ao := range answer.Augmented {
		if ao.Object.GK.Database == "discount" {
			t.Errorf("unsupported kv object surfaced: %v", ao.Object.GK)
		}
	}
	// Querying an unsupported store fails outright.
	if _, err := m.Augment(ctx, "discount", "SCAN drop", 0); err == nil {
		t.Error("query on unsupported engine should fail")
	}
}

func TestArangoRejectsRelationalByDefault(t *testing.T) {
	poly, ix := fixture(t)
	a := NewArango(poly, ix, ArangoConfig{Sleep: noSleep})
	if _, err := a.Augment(ctx, "transactions", wishQuery, 0); err == nil {
		t.Error("relational query on default Arango should fail")
	}
	// Graph queries work, and relational objects are absent from answers.
	answer, err := a.Augment(ctx, "similar-items", `MATCH (n:items) RETURN n`, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ao := range answer.Augmented {
		if ao.Object.GK.Database == "transactions" {
			t.Errorf("unimported relational object surfaced: %v", ao.Object.GK)
		}
	}
}

func TestMetamodelNativeOOM(t *testing.T) {
	poly, ix := fixture(t)
	// Budget below the fixture's full-scan footprint: NAT dies, AUG lives.
	budget := int64(1200)
	nat := NewMetamodel(poly, ix, MetamodelConfig{Native: true, Mem: memlimit.New(budget), Sleep: noSleep, Unsupported: allSupported})
	if _, err := nat.Augment(ctx, "transactions", wishQuery, 0); !errors.Is(err, memlimit.ErrOutOfMemory) {
		t.Errorf("META-NAT with tiny budget: err = %v, want OOM", err)
	}
	aug := NewMetamodel(poly, ix, MetamodelConfig{Native: false, Mem: memlimit.New(budget), Sleep: noSleep, Unsupported: allSupported})
	if _, err := aug.Augment(ctx, "transactions", wishQuery, 0); err != nil {
		t.Errorf("META-AUG with same budget failed: %v", err)
	}
}

func TestTalendOOM(t *testing.T) {
	poly, ix := fixture(t)
	tal := NewTalend(poly, ix, TalendConfig{Mem: memlimit.New(500), Sleep: noSleep, Unsupported: allSupported})
	if _, err := tal.Augment(ctx, "transactions", wishQuery, 0); !errors.Is(err, memlimit.ErrOutOfMemory) {
		t.Errorf("TALEND with tiny budget: err = %v, want OOM", err)
	}
}

func TestArangoOOMOnImport(t *testing.T) {
	poly, ix := fixture(t)
	a := NewArango(poly, ix, ArangoConfig{Mem: memlimit.New(300), Sleep: noSleep, Unsupported: allSupported})
	if _, err := a.Augment(ctx, "transactions", wishQuery, 0); !errors.Is(err, memlimit.ErrOutOfMemory) {
		t.Errorf("ARANGO import with tiny budget: err = %v, want OOM", err)
	}
	// The failed import must not leak charged memory.
	if used := a.mem.Used(); used != 0 {
		t.Errorf("leaked %d bytes after failed import", used)
	}
}

func TestArangoImportsOnceAndColdStartReimports(t *testing.T) {
	poly, ix := fixture(t)
	var slept atomic.Int64
	sleeper := func(d time.Duration) { slept.Add(int64(d)) }
	a := NewArango(poly, ix, ArangoConfig{Sleep: sleeper, Unsupported: allSupported, PerImport: time.Millisecond})
	if _, err := a.Augment(ctx, "transactions", wishQuery, 0); err != nil {
		t.Fatal(err)
	}
	afterFirst := slept.Load()
	if afterFirst == 0 {
		t.Fatal("no warm-up cost charged")
	}
	if _, err := a.Augment(ctx, "transactions", wishQuery, 0); err != nil {
		t.Fatal(err)
	}
	warmDelta := slept.Load() - afterFirst
	if warmDelta >= afterFirst/2 {
		t.Errorf("second (warm) query cost %v vs first %v: import not amortized",
			time.Duration(warmDelta), time.Duration(afterFirst))
	}
	a.ColdStart()
	before := slept.Load()
	if _, err := a.Augment(ctx, "transactions", wishQuery, 0); err != nil {
		t.Fatal(err)
	}
	if slept.Load()-before < afterFirst/2 {
		t.Error("cold start did not pay the import again")
	}
}

func TestTalendStartupPaidPerColdStart(t *testing.T) {
	poly, ix := fixture(t)
	var slept atomic.Int64
	sleeper := func(d time.Duration) { slept.Add(int64(d)) }
	tal := NewTalend(poly, ix, TalendConfig{Sleep: sleeper, Startup: 50 * time.Millisecond, Unsupported: allSupported})
	tal.Augment(ctx, "transactions", wishQuery, 0)
	first := slept.Load()
	tal.Augment(ctx, "transactions", wishQuery, 0)
	second := slept.Load() - first
	if second >= first {
		t.Errorf("startup charged twice without cold start: %v then %v", time.Duration(first), time.Duration(second))
	}
	tal.ColdStart()
	before := slept.Load()
	tal.Augment(ctx, "transactions", wishQuery, 0)
	if slept.Load()-before < int64(50*time.Millisecond) {
		t.Error("startup not re-paid after cold start")
	}
}

func TestScanQuery(t *testing.T) {
	tests := []struct {
		kind core.StoreKind
		coll string
		want string
	}{
		{core.KindRelational, "inventory", "SELECT * FROM inventory"},
		{core.KindDocument, "albums", "albums.find({})"},
		{core.KindKeyValue, "drop", "SCAN drop"},
		{core.KindGraph, "items", "MATCH (n:items) RETURN n"},
	}
	for _, tt := range tests {
		got, err := ScanQuery(tt.kind, tt.coll)
		if err != nil || got != tt.want {
			t.Errorf("ScanQuery(%v, %s) = %q, %v", tt.kind, tt.coll, got, err)
		}
	}
	if _, err := ScanQuery(core.StoreKind(99), "x"); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestScanAll(t *testing.T) {
	poly, _ := fixture(t)
	s, err := poly.Database("transactions")
	if err != nil {
		t.Fatal(err)
	}
	objs, err := ScanAll(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Errorf("ScanAll(transactions) = %d objects", len(objs))
	}
}

func TestValidatorsAppliedByBaselines(t *testing.T) {
	poly, ix := fixture(t)
	systems := []System{
		NewMetamodel(poly, ix, MetamodelConfig{Sleep: noSleep, Unsupported: allSupported}),
		NewMetamodel(poly, ix, MetamodelConfig{Native: true, Sleep: noSleep, Unsupported: allSupported}),
		NewTalend(poly, ix, TalendConfig{Sleep: noSleep, Unsupported: allSupported}),
		NewArango(poly, ix, ArangoConfig{Sleep: noSleep, Unsupported: allSupported}),
	}
	for _, s := range systems {
		if _, err := s.Augment(ctx, "transactions", `SELECT COUNT(*) FROM inventory`, 0); err == nil {
			t.Errorf("%s accepted an aggregate query", s.Name())
		}
		if _, err := s.Augment(ctx, "ghostdb", `SELECT * FROM x`, 0); err == nil {
			t.Errorf("%s accepted an unknown database", s.Name())
		}
	}
}

func TestArangoConcurrentQueries(t *testing.T) {
	// Concurrent first queries must import exactly once and all succeed.
	poly, ix := fixture(t)
	var imports atomic.Int64
	sleeper := func(d time.Duration) {
		if d >= 10*time.Millisecond { // the import warm-up is the only big sleep
			imports.Add(1)
		}
	}
	a := NewArango(poly, ix, ArangoConfig{Sleep: sleeper, Unsupported: allSupported, PerImport: 10 * time.Millisecond})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Augment(ctx, "transactions", wishQuery, 0); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if imports.Load() != 1 {
		t.Errorf("import ran %d times under concurrency", imports.Load())
	}
}
