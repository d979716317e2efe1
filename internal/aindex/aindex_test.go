package aindex

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"quepa/internal/core"
)

func gk(s string) core.GlobalKey { return core.MustParseGlobalKey(s) }

// Running-example keys (paper Figs. 1, 3, 4).
var (
	albumD1   = gk("catalogue.albums.d1")
	discount1 = gk("discount.drop.k1:cure:wish")
	invA32    = gk("transactions.inventory.a32")
	salesS8   = gk("transactions.sales.s8")
	detailI1  = gk("transactions.sales_details.i1")
)

func TestInsertAndRelation(t *testing.T) {
	ix := New()
	if err := ix.Insert(core.NewIdentity(albumD1, invA32, 0.9)); err != nil {
		t.Fatal(err)
	}
	r, ok := ix.Relation(albumD1, invA32)
	if !ok || r.Type != core.Identity || r.Prob != 0.9 {
		t.Errorf("Relation = %+v, %v", r, ok)
	}
	// Symmetric access.
	r, ok = ix.Relation(invA32, albumD1)
	if !ok || r.Prob != 0.9 {
		t.Errorf("reverse Relation = %+v, %v", r, ok)
	}
	if ix.NodeCount() != 2 || ix.EdgeCount() != 1 {
		t.Errorf("counts = %d nodes, %d edges", ix.NodeCount(), ix.EdgeCount())
	}
	if err := ix.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInsertRejectsInvalid(t *testing.T) {
	ix := New()
	if err := ix.Insert(core.NewIdentity(albumD1, albumD1, 0.9)); err == nil {
		t.Error("self-relation should be rejected")
	}
	if err := ix.Insert(core.NewIdentity(albumD1, invA32, 1.5)); err == nil {
		t.Error("probability > 1 should be rejected")
	}
	if err := ix.Insert(core.NewIdentity(albumD1, invA32, 0)); err == nil {
		t.Error("probability 0 should be rejected")
	}
}

// TestIdentityTransitivity reproduces the paper's Fig. 4: inserting
// d1 ~0.8 k1 when k1 ~0.85 a32 exists materializes d1 ~0.68 a32.
func TestIdentityTransitivity(t *testing.T) {
	ix := New()
	if err := ix.Insert(core.NewIdentity(discount1, invA32, 0.85)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(core.NewIdentity(albumD1, discount1, 0.8)); err != nil {
		t.Fatal(err)
	}
	r, ok := ix.Relation(albumD1, invA32)
	if !ok || r.Type != core.Identity {
		t.Fatalf("inferred identity missing: %+v, %v", r, ok)
	}
	if math.Abs(r.Prob-0.68) > 1e-9 {
		t.Errorf("inferred probability = %g, want 0.68 (= 0.8 * 0.85)", r.Prob)
	}
	if err := ix.Validate(); err != nil {
		t.Error(err)
	}
}

// TestMatchingPropagation verifies the Consistency Condition: o1 ≡ o2 and
// o2 ~ o3 imply o1 ≡ o3, in both insertion orders.
func TestMatchingPropagation(t *testing.T) {
	// Order 1: matching first, then identity.
	ix := New()
	ix.Insert(core.NewMatching(salesS8, invA32, 0.7))
	ix.Insert(core.NewIdentity(invA32, albumD1, 0.9))
	r, ok := ix.Relation(salesS8, albumD1)
	if !ok || r.Type != core.Matching {
		t.Fatalf("order 1: inferred matching missing")
	}
	if math.Abs(r.Prob-0.63) > 1e-9 {
		t.Errorf("order 1: probability = %g, want 0.63", r.Prob)
	}
	if err := ix.Validate(); err != nil {
		t.Error(err)
	}

	// Order 2: identity first, then matching.
	ix2 := New()
	ix2.Insert(core.NewIdentity(invA32, albumD1, 0.9))
	ix2.Insert(core.NewMatching(salesS8, invA32, 0.7))
	r, ok = ix2.Relation(salesS8, albumD1)
	if !ok || r.Type != core.Matching {
		t.Fatalf("order 2: inferred matching missing")
	}
	if math.Abs(r.Prob-0.63) > 1e-9 {
		t.Errorf("order 2: probability = %g, want 0.63", r.Prob)
	}
	if err := ix2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestIdentityClassMergeSharesMatchings(t *testing.T) {
	// Two separate identity classes, each with a matching partner; inserting
	// the bridging identity must give every class member every matching.
	ix := New()
	a1, a2 := gk("da.c.1"), gk("da.c.2")
	b1, b2 := gk("db.c.1"), gk("db.c.2")
	m1, m2 := gk("dm.c.1"), gk("dm.c.2")
	ix.Insert(core.NewIdentity(a1, a2, 0.9))
	ix.Insert(core.NewIdentity(b1, b2, 0.8))
	ix.Insert(core.NewMatching(a1, m1, 0.7))
	ix.Insert(core.NewMatching(b1, m2, 0.6))
	ix.Insert(core.NewIdentity(a1, b1, 0.95))

	// Identity clique across the merged class.
	for _, pair := range [][2]core.GlobalKey{{a1, b1}, {a1, b2}, {a2, b1}, {a2, b2}} {
		r, ok := ix.Relation(pair[0], pair[1])
		if !ok || r.Type != core.Identity {
			t.Errorf("identity %v <-> %v missing after merge", pair[0], pair[1])
		}
	}
	// Matchings shared across the merged class.
	for _, member := range []core.GlobalKey{a1, a2, b1, b2} {
		for _, m := range []core.GlobalKey{m1, m2} {
			if r, ok := ix.Relation(member, m); !ok || r.Type != core.Matching {
				t.Errorf("matching %v ≡ %v missing after merge", member, m)
			}
		}
	}
	if err := ix.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEdgeUpgrade(t *testing.T) {
	ix := New()
	ix.Insert(core.NewMatching(albumD1, invA32, 0.7))
	// Identity replaces matching.
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	r, _ := ix.Relation(albumD1, invA32)
	if r.Type != core.Identity || r.Prob != 0.9 {
		t.Errorf("after upgrade: %+v", r)
	}
	// Matching does not downgrade identity.
	ix.Insert(core.NewMatching(albumD1, invA32, 0.99))
	r, _ = ix.Relation(albumD1, invA32)
	if r.Type != core.Identity {
		t.Errorf("matching downgraded identity: %+v", r)
	}
	// Same type keeps max probability.
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.5))
	r, _ = ix.Relation(albumD1, invA32)
	if r.Prob != 0.9 {
		t.Errorf("lower probability overwrote: %+v", r)
	}
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.95))
	r, _ = ix.Relation(albumD1, invA32)
	if r.Prob != 0.95 {
		t.Errorf("higher probability ignored: %+v", r)
	}
	if ix.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", ix.EdgeCount())
	}
}

// TestReachExample4 reproduces the paper's Example 4: the level-0
// augmentation of catalogue.albums.d1 returns the discount entry and the
// inventory tuple; level 1 additionally reaches the sales details.
func TestReachExample4(t *testing.T) {
	ix := New()
	ix.Insert(core.NewIdentity(albumD1, discount1, 0.8))
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	ix.Insert(core.NewMatching(invA32, detailI1, 0.75))

	hits := ix.Reach(albumD1, 0)
	// Note: the consistency materialization adds discount1~invA32 and
	// albumD1≡detailI1, so level 0 already reaches detailI1 through the
	// materialized edge — exactly what the index is for.
	if len(hits) != 3 {
		t.Fatalf("level 0 hits = %d, want 3 (2 direct + 1 materialized)", len(hits))
	}
	if hits[0].Key != invA32 || hits[0].Prob != 0.9 {
		t.Errorf("top hit = %+v, want inventory a32 at 0.9", hits[0])
	}
	if hits[1].Key != discount1 || hits[1].Prob != 0.8 {
		t.Errorf("second hit = %+v, want discount at 0.8", hits[1])
	}

	hits1 := ix.Reach(albumD1, 1)
	if len(hits1) < len(hits) {
		t.Errorf("level 1 reached fewer objects than level 0")
	}
}

func TestReachLevelMonotone(t *testing.T) {
	// Property: the reach at level n+1 contains the reach at level n, and
	// probabilities never decrease.
	ix := New()
	rng := rand.New(rand.NewSource(42))
	keys := make([]core.GlobalKey, 20)
	for i := range keys {
		keys[i] = core.NewGlobalKey("db", "c", string(rune('a'+i)))
	}
	for i := 0; i < 40; i++ {
		a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if a == b {
			continue
		}
		typ := core.Matching
		if rng.Intn(3) == 0 {
			typ = core.Identity
		}
		ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.5 + rng.Float64()/2})
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	for level := 0; level < 3; level++ {
		cur := ix.Reach(keys[0], level)
		next := ix.Reach(keys[0], level+1)
		curProbs := map[core.GlobalKey]float64{}
		for _, h := range cur {
			curProbs[h.Key] = h.Prob
		}
		nextProbs := map[core.GlobalKey]float64{}
		for _, h := range next {
			nextProbs[h.Key] = h.Prob
		}
		for k, p := range curProbs {
			np, ok := nextProbs[k]
			if !ok {
				t.Fatalf("level %d reached %v but level %d does not", level, k, level+1)
			}
			if np < p-1e-12 {
				t.Fatalf("probability of %v decreased from %g to %g", k, p, np)
			}
		}
	}
}

func TestReachOrdering(t *testing.T) {
	ix := New()
	ix.Insert(core.NewMatching(albumD1, salesS8, 0.6))
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	ix.Insert(core.NewMatching(albumD1, detailI1, 0.6)) // tie with salesS8
	hits := ix.Reach(albumD1, 0)
	if hits[0].Prob < hits[1].Prob || hits[1].Prob < hits[2].Prob {
		t.Errorf("hits not ordered by probability: %+v", hits)
	}
	// Deterministic tie-break by key.
	if hits[1].Key.Compare(hits[2].Key) >= 0 {
		t.Errorf("tie not broken by key order: %+v", hits)
	}
}

func TestReachEdgeCases(t *testing.T) {
	ix := New()
	if hits := ix.Reach(albumD1, 0); len(hits) != 0 {
		t.Errorf("reach on empty index = %v", hits)
	}
	if hits := ix.Reach(albumD1, -1); len(hits) != 0 {
		t.Errorf("negative level = %v", hits)
	}
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	if hits := ix.Reach(gk("no.such.key"), 0); len(hits) != 0 {
		t.Errorf("reach from unknown key = %v", hits)
	}
}

func TestRemoveObject(t *testing.T) {
	ix := New()
	ix.Insert(core.NewIdentity(albumD1, discount1, 0.8))
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	// Materialization added discount1 ~ invA32 too: 3 edges total.
	if ix.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d, want 3", ix.EdgeCount())
	}
	if !ix.RemoveObject(albumD1) {
		t.Fatal("RemoveObject returned false")
	}
	if ix.RemoveObject(albumD1) {
		t.Error("second RemoveObject returned true")
	}
	if ix.Contains(albumD1) {
		t.Error("removed key still present")
	}
	// The inferred edge between the survivors is kept (lazy deletion keeps
	// relations inferred via the deleted node).
	if _, ok := ix.Relation(discount1, invA32); !ok {
		t.Error("inferred edge lost on removal")
	}
	if ix.EdgeCount() != 1 {
		t.Errorf("EdgeCount after removal = %d, want 1", ix.EdgeCount())
	}
	if err := ix.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNeighbors(t *testing.T) {
	ix := New()
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	ix.Insert(core.NewMatching(albumD1, salesS8, 0.6))
	nbs := ix.Neighbors(albumD1)
	if len(nbs) != 2 {
		t.Fatalf("Neighbors = %d", len(nbs))
	}
	if nbs[0].To != invA32 || nbs[0].Type != core.Identity {
		t.Errorf("first neighbor = %+v", nbs[0])
	}
	if nbs[1].To != salesS8 || nbs[1].Type != core.Matching {
		t.Errorf("second neighbor = %+v", nbs[1])
	}
	if ix.Neighbors(gk("no.such.key")) == nil {
		// empty, not nil-checked: just must not panic
		t.Log("neighbors of unknown key is empty")
	}
}

func TestKeysSorted(t *testing.T) {
	ix := New()
	ix.Insert(core.NewIdentity(gk("b.c.1"), gk("a.c.1"), 0.9))
	keys := ix.Keys()
	if len(keys) != 2 || keys[0].Database != "a" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestConsistencyProperty(t *testing.T) {
	// Property: after any random insertion sequence, Validate passes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		keys := make([]core.GlobalKey, 8)
		for i := range keys {
			keys[i] = core.NewGlobalKey("db", "c", string(rune('a'+i)))
		}
		for i := 0; i < 15; i++ {
			a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
			if a == b {
				continue
			}
			typ := core.Matching
			if rng.Intn(2) == 0 {
				typ = core.Identity
			}
			if err := ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.5 + rng.Float64()/2}); err != nil {
				return false
			}
		}
		return ix.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentInsertAndReach(t *testing.T) {
	// The index must tolerate concurrent writers and readers (multiple
	// QUEPA instances share one process in tests; the paper's deployment
	// gives each instance a replica, but the structure must still be safe).
	ix := New()
	keys := make([]core.GlobalKey, 64)
	for i := range keys {
		keys[i] = core.NewGlobalKey("db", "c", fmt.Sprintf("k%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
				if a == b {
					continue
				}
				typ := core.Matching
				if rng.Intn(3) == 0 {
					typ = core.Identity
				}
				ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.5 + rng.Float64()/2})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix.Reach(keys[(r*13+i)%len(keys)], 1)
				ix.Neighbors(keys[i%len(keys)])
			}
		}(r)
	}
	wg.Wait()
	if err := ix.Validate(); err != nil {
		t.Errorf("index invalid after concurrent load: %v", err)
	}
}

func TestInsertIdempotent(t *testing.T) {
	ix := New()
	r := core.NewIdentity(albumD1, invA32, 0.9)
	for i := 0; i < 3; i++ {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if ix.EdgeCount() != 1 || ix.NodeCount() != 2 {
		t.Errorf("idempotence violated: %d edges, %d nodes", ix.EdgeCount(), ix.NodeCount())
	}
}

func TestReachSymmetry(t *testing.T) {
	// Property: the A' graph is undirected, so if a reaches b with the best
	// probability p within n hops, b reaches a with the same p.
	ix, keys := buildRandomIndexT(t, 30, 77)
	for _, level := range []int{0, 1} {
		fwd := map[[2]core.GlobalKey]float64{}
		for _, from := range keys {
			for _, h := range ix.Reach(from, level) {
				fwd[[2]core.GlobalKey{from, h.Key}] = h.Prob
			}
		}
		for pair, p := range fwd {
			back, ok := fwd[[2]core.GlobalKey{pair[1], pair[0]}]
			if !ok {
				t.Fatalf("level %d: %v reaches %v but not vice versa", level, pair[0], pair[1])
			}
			if diff := back - p; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("level %d: asymmetric probability %g vs %g", level, p, back)
			}
		}
	}
}

func buildRandomIndexT(t *testing.T, n int, seed int64) (*Index, []core.GlobalKey) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ix := New()
	keys := make([]core.GlobalKey, n)
	for i := range keys {
		keys[i] = core.NewGlobalKey("db", "c", fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 2*n; i++ {
		a, b := keys[rng.Intn(n)], keys[rng.Intn(n)]
		if a == b {
			continue
		}
		typ := core.Matching
		if rng.Intn(4) == 0 {
			typ = core.Identity
		}
		if err := ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.6 + 0.4*rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	return ix, keys
}

func TestInsertionOrderIndependence(t *testing.T) {
	// Property: the final index (edges, types, probabilities) is the same
	// for every insertion order of the same relation set. This is the
	// regression test for the matching-propagation path probability, which
	// once depended on whether the identity or the matching arrived first.
	rels := []core.PRelation{
		core.NewIdentity(albumD1, invA32, 0.9),
		core.NewIdentity(albumD1, discount1, 0.8),
		core.NewMatching(salesS8, invA32, 0.7),
		core.NewMatching(detailI1, albumD1, 0.65),
	}
	signature := func(perm []int) map[string]string {
		ix := New()
		for _, i := range perm {
			if err := ix.Insert(rels[i]); err != nil {
				t.Fatal(err)
			}
		}
		out := map[string]string{}
		for _, e := range ix.Edges() {
			out[e.From.String()+"|"+e.To.String()] = fmt.Sprintf("%v:%.9f", e.Type, e.Prob)
		}
		return out
	}
	var perms [][]int
	var permute func(cur, rest []int)
	permute = func(cur, rest []int) {
		if len(rest) == 0 {
			perms = append(perms, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest...)[:i], rest[i+1:]...)
			permute(append(cur, rest[i]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3})

	want := signature(perms[0])
	for _, perm := range perms[1:] {
		got := signature(perm)
		if len(got) != len(want) {
			t.Fatalf("order %v: %d edges, want %d", perm, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("order %v: edge %s = %s, want %s", perm, k, got[k], v)
			}
		}
	}
}

func TestClone(t *testing.T) {
	ix := New()
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	ix.Insert(core.NewMatching(salesS8, invA32, 0.7))
	replica := ix.Clone()
	if replica.EdgeCount() != ix.EdgeCount() || replica.NodeCount() != ix.NodeCount() {
		t.Fatalf("clone size mismatch: %d/%d vs %d/%d",
			replica.EdgeCount(), replica.NodeCount(), ix.EdgeCount(), ix.NodeCount())
	}
	// Replicas evolve independently: lazy deletion on one instance must not
	// affect the master.
	replica.RemoveObject(invA32)
	if !ix.Contains(invA32) {
		t.Error("mutating the replica changed the master")
	}
	fresh := gk("new.db.object")
	ix.Insert(core.NewMatching(albumD1, fresh, 0.6))
	if replica.Contains(fresh) {
		t.Error("mutating the master changed the replica")
	}
	if err := replica.Validate(); err != nil {
		t.Error(err)
	}
}

// TestReachWithStats verifies the instrumented traversal returns the same
// hits as Reach plus a faithful account of the index work performed.
func TestReachWithStats(t *testing.T) {
	ix := New()
	ix.Insert(core.NewIdentity(albumD1, discount1, 0.8))
	ix.Insert(core.NewIdentity(albumD1, invA32, 0.9))
	ix.Insert(core.NewMatching(invA32, detailI1, 0.75))

	for _, level := range []int{0, 1, 2} {
		plain := ix.Reach(albumD1, level)
		hits, st := ix.ReachWithStats(albumD1, level)
		if len(hits) != len(plain) {
			t.Fatalf("level %d: %d hits with stats, %d without", level, len(hits), len(plain))
		}
		for i := range hits {
			if hits[i] != plain[i] {
				t.Errorf("level %d hit %d: %+v != %+v", level, i, hits[i], plain[i])
			}
		}
		// The traversal expanded at least the origin, scanning an edge for
		// every hit it produced; deeper levels expand the hits too.
		if st.Nodes < 1 || st.Edges < len(hits) {
			t.Errorf("level %d stats = %+v for %d hits", level, st, len(hits))
		}
		if level > 0 && st.Nodes < len(hits) {
			t.Errorf("level %d: expanded %d nodes for %d hits", level, st.Nodes, len(hits))
		}
	}

	// Unknown origin: the origin itself is expanded, nothing else.
	hits, st := ix.ReachWithStats(gk("x.y.z"), 3)
	if len(hits) != 0 || st.Nodes != 1 || st.Edges != 0 {
		t.Errorf("unknown origin: hits=%v stats=%+v", hits, st)
	}
}

// TestValidateCatchesCorruptTables corrupts each table behind the rows in
// turn — counts, the id bijection, tombstones, row order — and requires
// Validate to name the damage.
func TestValidateCatchesCorruptTables(t *testing.T) {
	corruptions := []struct {
		name, want string
		corrupt    func(ix *Index)
	}{
		{"edge count", "edge count", func(ix *Index) { ix.edges++ }},
		{"live count", "live keys", func(ix *Index) { ix.live-- }},
		{"id of a key", "interned as", func(ix *Index) { ix.ids[ix.keys[0]] = 1 }},
		{"key of an id", "interned as", func(ix *Index) { ix.keys[0], ix.keys[1] = ix.keys[1], ix.keys[0] }},
		{"stray id", "id tables disagree", func(ix *Index) { ix.ids[core.NewGlobalKey("no", "such", "key")] = 0 }},
		{"tombstone keeps its row", "keeps", func(ix *Index) {
			id := firstRow(ix, 1)
			ix.dead[id] = true
			ix.live--
		}},
		{"row points at a tombstone", "to removed key", func(ix *Index) {
			id := firstRow(ix, 1)
			nb := ix.rows[id][0].to
			ix.dead[nb], ix.rows[nb] = true, nil
			ix.live--
		}},
		{"duplicate target", "two half-edges", func(ix *Index) {
			id := firstRow(ix, 1)
			ix.rows[id] = append(ix.rows[id], ix.rows[id][len(ix.rows[id])-1])
		}},
		{"unsorted row", "not sorted", func(ix *Index) {
			row := ix.rows[firstRow(ix, 2)]
			row[0], row[1] = row[1], row[0]
		}},
		{"split component", "not in one component", func(ix *Index) {
			for id := range ix.comp.parent {
				ix.comp.parent[id] = uint32(id)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			ix, _ := buildRandomIndexT(t, 40, 11)
			if err := ix.Validate(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			ix.mu.Lock()
			c.corrupt(ix)
			ix.mu.Unlock()
			err := ix.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// firstRow returns the lowest id whose row holds at least n half-edges.
// For n = 1 no row Validate reads before it has a half-edge, so a
// corruption there is the first one Validate meets.
func firstRow(ix *Index, n int) uint32 {
	for id, row := range ix.rows {
		if len(row) >= n {
			return uint32(id)
		}
	}
	panic("no row that long")
}

// TestIdentityMergeDeterministic: an identity Insert into an index that
// InsertRaw left unclosed rebuilds the same edges on every run. The merge
// reads links it may already have upgraded, so it must walk the classes in
// a fixed order for WAL replay to rebuild the index that was served.
func TestIdentityMergeDeterministic(t *testing.T) {
	keys := make([]core.GlobalKey, 8)
	for i := range keys {
		keys[i] = gk(fmt.Sprintf("db%d.c.k%d", i%3, i))
	}
	build := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		rel := func() core.PRelation {
			a := rng.Intn(len(keys))
			b := (a + 1 + rng.Intn(len(keys)-1)) % len(keys)
			typ := core.Matching
			if rng.Intn(2) == 0 {
				typ = core.Identity
			}
			return core.PRelation{From: keys[a], To: keys[b], Type: typ, Prob: 0.5 + 0.5*rng.Float64()}
		}
		for i := 0; i < 10; i++ {
			if err := ix.InsertRaw(rel()); err != nil {
				t.Fatal(err)
			}
		}
		r := rel()
		r.Type = core.Identity
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(ix.Edges())
	}
	for seed := int64(0); seed < 40; seed++ {
		want := build(seed)
		for run := 1; run < 30; run++ {
			if got := build(seed); got != want {
				t.Fatalf("seed %d run %d: edges\n%s\nwant\n%s", seed, run, got, want)
			}
		}
	}
}
