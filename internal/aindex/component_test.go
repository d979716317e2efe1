package aindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// stampView is what the stamp contract is checked against: every key's
// stamp, tracked component root and reach at levels 0..3. A key without an
// id has no root; keys share a root pointer exactly when they share a
// component.
type stampView struct {
	stamp map[core.GlobalKey]uint64
	root  map[core.GlobalKey]*uint32
	reach map[core.GlobalKey][4][]Hit
}

// rootOf returns the root id of gk's tracked component, if gk has an id.
func rootOf(ix *Index, gk core.GlobalKey) (uint32, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.ids[gk]
	if !ok {
		return 0, false
	}
	return ix.comp.root(id), true
}

func observeStamps(ix *Index, keys []core.GlobalKey) stampView {
	v := stampView{
		stamp: map[core.GlobalKey]uint64{},
		root:  map[core.GlobalKey]*uint32{},
		reach: map[core.GlobalKey][4][]Hit{},
	}
	roots := map[uint32]*uint32{}
	for _, k := range keys {
		v.stamp[k] = ix.Stamp(k)
		if rt, ok := rootOf(ix, k); ok {
			if roots[rt] == nil {
				roots[rt] = &rt
			}
			v.root[k] = roots[rt]
		}
		var r [4][]Hit
		for level := range r {
			r[level] = ix.Reach(k, level)
		}
		v.reach[k] = r
	}
	return v
}

// islandKeys returns n islands of size keys each plus two keys that never
// get an edge.
func islandKeys(n, size int) (islands [][]core.GlobalKey, all []core.GlobalKey) {
	for i := 0; i < n; i++ {
		var isl []core.GlobalKey
		for j := 0; j < size; j++ {
			isl = append(isl, core.NewGlobalKey(fmt.Sprintf("i%d", i), "c", fmt.Sprintf("k%d", j)))
		}
		islands = append(islands, isl)
		all = append(all, isl...)
	}
	all = append(all, core.NewGlobalKey("loose", "c", "x"), core.NewGlobalKey("loose", "c", "y"))
	return islands, all
}

// seedIslands chains every island so each starts as one component.
func seedIslands(t *testing.T, ix *Index, islands [][]core.GlobalKey) {
	t.Helper()
	for _, isl := range islands {
		for j := 0; j+1 < len(isl); j++ {
			if err := ix.Insert(core.NewMatching(isl[j], isl[j+1], 0.9)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkStampContract runs random mutations over ix and, after each, holds
// every key to the contract: an unchanged stamp means bitwise-unchanged
// reaches; a union that writes an edge moves both former components'
// stamps; a mutation leaves every other tracked component's stamps alone.
func checkStampContract(t *testing.T, ix *Index, islands [][]core.GlobalKey, all []core.GlobalKey, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func() core.GlobalKey {
		isl := islands[rng.Intn(len(islands))]
		return isl[rng.Intn(len(isl))]
	}
	before := observeStamps(ix, all)
	for step := 0; step < 100; step++ {
		a := pick()
		b := islands[0][0]
		var op string
		switch r := rng.Intn(10); {
		case r < 4: // inside a's island
			isl := islands[rng.Intn(len(islands))]
			a, b = isl[rng.Intn(len(isl))], isl[rng.Intn(len(isl))]
			op = "insert"
		case r < 5: // across islands
			a, b = pick(), pick()
			op = "insert"
		case r < 7: // re-insert an existing edge at a lower probability
			edges := ix.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			a, b = e.From, e.To
			op = "noop"
		case r < 8:
			op = "remove" // removes cut vertices of the seeded chains too
		default:
			a, b = pick(), pick()
			op = "raw"
		}
		if a == b && op != "remove" {
			continue
		}
		_, related := ix.Relation(a, b)
		distinct := before.root[a] == nil || before.root[a] != before.root[b]
		var err error
		switch op {
		case "insert":
			typ := core.Matching
			if rng.Intn(4) == 0 {
				typ = core.Identity
			}
			err = ix.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.5 + rng.Float64()/2})
		case "noop":
			rel, _ := ix.Relation(a, b)
			rel.Prob /= 2
			err = ix.InsertRaw(rel)
		case "remove":
			ix.RemoveObject(a)
		case "raw":
			err = ix.InsertRaw(core.NewMatching(a, b, 0.5+rng.Float64()/2))
		}
		if err != nil {
			t.Fatal(err)
		}
		after := observeStamps(ix, all)
		when := fmt.Sprintf("seed %d step %d (%s %v %v)", seed, step, op, a, b)

		for _, k := range all {
			if after.stamp[k] != before.stamp[k] {
				continue
			}
			for level := range after.reach[k] {
				if !slices.Equal(after.reach[k][level], before.reach[k][level]) {
					t.Fatalf("%s: Stamp(%v) stayed %d but Reach(level %d) changed:\n before %v\n  after %v",
						when, k, after.stamp[k], level, before.reach[k][level], after.reach[k][level])
				}
			}
		}
		if op == "noop" {
			for _, k := range all {
				if before.root[k] != nil && after.stamp[k] != before.stamp[k] {
					t.Fatalf("%s: a re-insert that changed no edge moved Stamp(%v)", when, k)
				}
			}
		}
		if (op == "insert" || op == "raw") && !related && distinct {
			for _, k := range []core.GlobalKey{a, b} {
				if after.stamp[k] == before.stamp[k] {
					t.Fatalf("%s: a union left Stamp(%v) at %d", when, k, before.stamp[k])
				}
			}
		}
		// Every tracked component the mutation did not touch keeps its
		// stamps. The touched ones are a's and b's before the mutation.
		for _, k := range all {
			r := before.root[k]
			if r == nil || r == before.root[a] || (op != "remove" && r == before.root[b]) {
				continue
			}
			if after.stamp[k] != before.stamp[k] {
				t.Fatalf("%s: Stamp(%v) of an untouched component moved %d -> %d", when, k, before.stamp[k], after.stamp[k])
			}
		}
		before = after
	}
}

// requireTrueComponents fails unless every edge's endpoints share a tracked
// root, and the tracked count is that of the graph's components (fresh
// loads have split nothing, so the two must agree exactly).
func requireTrueComponents(t *testing.T, ix *Index, when string) {
	t.Helper()
	roots := map[uint32]bool{}
	for _, e := range ix.Edges() {
		ra, okA := rootOf(ix, e.From)
		rb, okB := rootOf(ix, e.To)
		if !okA || !okB {
			t.Fatalf("%s: %v <-> %v has an endpoint without an id", when, e.From, e.To)
		}
		if ra != rb {
			t.Fatalf("%s: %v and %v are related but in different components", when, e.From, e.To)
		}
		roots[ra] = true
	}
	if n, _ := ix.Components(); n != len(roots) {
		t.Fatalf("%s: %d components tracked, %d in the graph", when, n, len(roots))
	}
}

// TestStampContract is the property behind component-scoped result caching:
// over random Insert/InsertRaw/RemoveObject sequences on a few small
// islands — unions of two islands, no-op re-inserts, removal of cut
// vertices and re-insertion of removed keys included — an unchanged Stamp
// implies bitwise-unchanged reaches, and mutations stay on their island.
// The same holds on indexes that BulkLoad, Clone and ReadSnapshot built.
func TestStampContract(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		islands, all := islandKeys(4, 5)
		ix := New()
		seedIslands(t, ix, islands)
		requireTrueComponents(t, ix, "seeded")
		checkStampContract(t, ix, islands, all, seed)

		var ckpt bytes.Buffer
		if _, err := WriteSnapshot(&ckpt, ix.Edges(), ix.Epoch()); err != nil {
			t.Fatal(err)
		}
		loaders := map[string]func() (*Index, error){
			"BulkLoad": func() (*Index, error) { return BulkLoad(ix.Edges()) },
			"Clone":    func() (*Index, error) { return ix.Clone(), nil },
			"ReadSnapshot": func() (*Index, error) {
				loaded, _, err := ReadSnapshot(bytes.NewReader(ckpt.Bytes()))
				return loaded, err
			},
		}
		for name, load := range loaders {
			loaded, err := load()
			if err != nil {
				t.Fatal(err)
			}
			when := fmt.Sprintf("seed %d %s", seed, name)
			requireTrueComponents(t, loaded, when)
			checkStampContract(t, loaded, islands, all, seed+100)
		}
	}
}

// TestStampKeylessReadsEpoch: a key that never had an edge has no id and
// reads the global epoch; its first edge gives it a component stamped with
// that mutation's epoch.
func TestStampKeylessReadsEpoch(t *testing.T) {
	ix := New()
	a, b := core.NewGlobalKey("d", "c", "a"), core.NewGlobalKey("d", "c", "b")
	if err := ix.InsertRaw(core.NewMatching(core.NewGlobalKey("d", "c", "p"), core.NewGlobalKey("d", "c", "q"), 0.5)); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Stamp(a), ix.Epoch(); got != want {
		t.Fatalf("keyless Stamp = %d, want the global epoch %d", got, want)
	}
	if err := ix.Insert(core.NewMatching(a, b, 0.7)); err != nil {
		t.Fatal(err)
	}
	if ix.Stamp(a) != ix.Epoch() || ix.Stamp(b) != ix.Epoch() {
		t.Fatalf("first edge stamped %d/%d, want epoch %d", ix.Stamp(a), ix.Stamp(b), ix.Epoch())
	}
	if n, max := ix.Components(); n != 2 || max != 2 {
		t.Fatalf("Components() = %d, %d; want 2, 2", n, max)
	}
}

// TestStampAllocs is the kill switch for the stamp read path: a warm Stamp
// allocates nothing.
func TestStampAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments sync.Pool and skews allocation counts")
	}
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	ix, keys := buildRandomIndexT(t, 500, 9)
	loose := core.NewGlobalKey("loose", "c", "x")
	for _, k := range []core.GlobalKey{keys[3], loose} {
		if avg := testing.AllocsPerRun(100, func() { ix.Stamp(k) }); avg != 0 {
			t.Errorf("Stamp(%v) allocates %.1f/op, want 0", k, avg)
		}
	}
}

// TestIslands: the carve a cluster shard is built from. On small islands
// joined by random Inserts, with a cut vertex lazily deleted, the copy holds
// exactly the tracked components with a key keep accepts — a deletion's
// split halves both, since components never split — and for every key of
// the copy Reach and ReachWithStats at levels 0–3 equal the source's
// bitwise. EdgeCount is the kept
// components' sum, and Stamp moves on the copy like on any index.
func TestIslands(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		islands, _ := islandKeys(10, 5)
		src := New()
		seedIslands(t, src, islands)
		// The test's own never-splitting view of the components: every
		// relation ever inserted joins its endpoints.
		label := map[core.GlobalKey]core.GlobalKey{}
		var find func(k core.GlobalKey) core.GlobalKey
		find = func(k core.GlobalKey) core.GlobalKey {
			if p, ok := label[k]; ok && p != k {
				return find(p)
			}
			return k
		}
		join := func(a, b core.GlobalKey) { label[find(a)] = find(b) }
		for _, isl := range islands {
			for j := 0; j+1 < len(isl); j++ {
				join(isl[j], isl[j+1])
			}
		}
		for i := 0; i < 3; i++ {
			a := islands[1+rng.Intn(9)][rng.Intn(5)]
			b := islands[1+rng.Intn(9)][rng.Intn(5)]
			if a == b {
				continue
			}
			typ := core.Matching
			if rng.Intn(2) == 0 {
				typ = core.Identity
			}
			if err := src.Insert(core.PRelation{From: a, To: b, Type: typ, Prob: 0.5 + rng.Float64()/2}); err != nil {
				t.Fatal(err)
			}
			join(a, b)
		}
		// Island 0 is a matching chain k0-k1-k2-k3-k4 no union touched:
		// deleting k2 really splits it, and only k0 is kept.
		src.RemoveObject(islands[0][2])
		keep := map[core.GlobalKey]bool{islands[0][0]: true}
		kept := map[core.GlobalKey]bool{find(islands[0][0]): true}
		for i := 1; i < len(islands); i += 2 {
			k := islands[i][rng.Intn(5)]
			keep[k], kept[find(k)] = true, true
		}
		isl := src.Islands(func(k core.GlobalKey) bool { return keep[k] })

		when := fmt.Sprintf("seed %d", seed)
		if !isl.Contains(islands[0][4]) {
			t.Fatalf("%s: the split-off half of a kept component was dropped", when)
		}
		edges := 0
		for _, e := range src.Edges() {
			if kept[find(e.From)] {
				edges++
			}
		}
		if isl.EdgeCount() != edges {
			t.Fatalf("%s: EdgeCount %d, want the kept components' %d", when, isl.EdgeCount(), edges)
		}
		dropped := 0
		for _, k := range src.Keys() {
			if !kept[find(k)] {
				dropped++
				if isl.Contains(k) {
					t.Fatalf("%s: %v of an unkept component is in the copy", when, k)
				}
				continue
			}
			if !isl.Contains(k) {
				t.Fatalf("%s: %v of a kept component is missing", when, k)
			}
			for level := 0; level <= 3; level++ {
				want, wantSt := src.ReachWithStats(k, level)
				got, gotSt := isl.ReachWithStats(k, level)
				if !slices.Equal(got, want) || gotSt != wantSt {
					t.Fatalf("%s: %v level %d:\n got %v %+v\nwant %v %+v", when, k, level, got, gotSt, want, wantSt)
				}
				if !slices.Equal(isl.Reach(k, level), want) {
					t.Fatalf("%s: %v level %d: Reach diverges from ReachWithStats", when, k, level)
				}
			}
		}
		if dropped == 0 {
			t.Fatalf("%s: every component was kept; the carve is untested", when)
		}
		if err := isl.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		// Stamp on the copy: a mutation moves its own component's stamp and
		// no other's.
		a, other := islands[0][0], islands[0][4]
		before := isl.Stamp(other)
		if err := isl.Insert(core.NewMatching(a, core.NewGlobalKey("i0", "c", "fresh"), 0.5)); err != nil {
			t.Fatal(err)
		}
		if isl.Stamp(a) != isl.Epoch() || isl.Stamp(other) != before {
			t.Fatalf("%s: after an insert Stamp(%v) = %d (epoch %d), Stamp(%v) %d -> %d",
				when, a, isl.Stamp(a), isl.Epoch(), other, before, isl.Stamp(other))
		}
	}
}

// TestIslandsLooseKeys: a key whose every neighbor was removed, once
// copied, is a component of its own, so a carve keeps it only if keep
// accepts it.
func TestIslandsLooseKeys(t *testing.T) {
	k := func(s string) core.GlobalKey { return core.NewGlobalKey("d", "c", s) }
	src := New()
	for _, r := range []core.PRelation{core.NewMatching(k("a"), k("b"), 0.5), core.NewMatching(k("c"), k("d"), 0.5)} {
		if err := src.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	src.RemoveObject(k("b"))
	src.RemoveObject(k("d"))
	clone := src.Clone()
	if n, _ := clone.Components(); n != 0 {
		t.Fatalf("a copy with no edge tracks %d components holding one", n)
	}
	isl := clone.Islands(func(gk core.GlobalKey) bool { return gk == k("a") })
	if !isl.Contains(k("a")) || isl.Contains(k("c")) {
		t.Fatalf("carving a from two loose keys kept %v", isl.Keys())
	}
}
