package augment

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/kvstore"
)

// refPlan is the map-based plan the slot layout replaced: one map of best
// hits, one origin set, and a separately grown key list per origin. It is
// kept here as the reference the slot-based plan must agree with.
type refPlan struct {
	hits     map[core.GlobalKey]aindex.Hit
	order    []core.GlobalKey
	byOrigin [][]core.GlobalKey
	skipped  int
	tieSwaps int // hits replaced by an equal probability at a smaller distance
}

func refBuildPlan(ix *aindex.Index, origins []core.Object, level int) *refPlan {
	p := &refPlan{hits: map[core.GlobalKey]aindex.Hit{}}
	originSet := map[core.GlobalKey]bool{}
	for _, o := range origins {
		originSet[o.GK] = true
	}
	for _, o := range origins {
		var mine []core.GlobalKey
		for _, h := range ix.Reach(o.GK, level) {
			if originSet[h.Key] {
				p.skipped++
				continue
			}
			old, seen := p.hits[h.Key]
			if !seen {
				p.order = append(p.order, h.Key)
				mine = append(mine, h.Key)
				p.hits[h.Key] = h
				continue
			}
			if h.Prob == old.Prob && h.Dist < old.Dist {
				p.tieSwaps++
			}
			if h.Prob > old.Prob || (h.Prob == old.Prob && h.Dist < old.Dist) {
				p.hits[h.Key] = h
			}
		}
		p.byOrigin = append(p.byOrigin, mine)
	}
	return p
}

// answer ranks every fetched object by the plan's hits, as the map-based
// sink did.
func (p *refPlan) answer(objects map[core.GlobalKey]core.Object) []AugmentedObject {
	out := make([]AugmentedObject, 0, len(objects))
	for gk, obj := range objects {
		h := p.hits[gk]
		out = append(out, AugmentedObject{Object: obj, Prob: h.Prob, Dist: h.Dist})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Object.GK.Compare(out[j].Object.GK) < 0
	})
	return out
}

// randomGraph builds three key-value databases of m keys each and a random
// A' over them whose edge probabilities come from {0.5, 1}, so products tie
// often: the same key reached at equal probability but different distances
// from different origins. It returns the keys too.
func randomGraph(t *testing.T, rng *rand.Rand, m int) (*core.Polystore, *aindex.Index, []core.GlobalKey) {
	t.Helper()
	poly := core.NewPolystore()
	var keys []core.GlobalKey
	for d := 0; d < 3; d++ {
		name := fmt.Sprintf("db%d", d)
		kv := kvstore.New(name)
		for k := 0; k < m; k++ {
			kv.Set("main", fmt.Sprintf("k%d", k), fmt.Sprintf("v%d-%d", d, k))
			keys = append(keys, core.NewGlobalKey(name, "main", fmt.Sprintf("k%d", k)))
		}
		if err := poly.Register(connector.NewKeyValue(kv)); err != nil {
			t.Fatal(err)
		}
	}
	ix := aindex.New()
	for i := 0; i < len(keys)*3/2; i++ {
		a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if a == b {
			continue
		}
		prob := 1.0
		if rng.Intn(2) == 0 {
			prob = 0.5
		}
		if err := ix.Insert(core.NewMatching(a, b, prob)); err != nil {
			t.Fatal(err)
		}
	}
	return poly, ix, keys
}

// TestPlanMatchesMapReference is the slot layout's equivalence property: on
// random multi-origin A' graphs (overlapping islands, origins reaching other
// origins, equal-probability ties at different distances), the slot-based
// plan holds the map-based plan's fetch order, per-origin partition, best
// hits and origins_skipped count, through a cold and a warm result cache,
// and every strategy answers what the map-based answer would.
func TestPlanMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var skipped, overlaps, tieSwaps int
	for trial := 0; trial < 40; trial++ {
		poly, ix, keys := randomGraph(t, rng, 12+rng.Intn(20))
		origins := make([]core.Object, 2+rng.Intn(8))
		for i := range origins {
			origins[i] = core.Object{GK: keys[rng.Intn(len(keys))]}
		}
		level := rng.Intn(3)
		ref := refBuildPlan(ix, origins, level)
		skipped += ref.skipped
		tieSwaps += ref.tieSwaps
		total := 0
		for _, o := range origins {
			total += len(ix.Reach(o.GK, level))
		}
		overlaps += total - ref.skipped - len(ref.order)

		// The second pass reuses the first one's sink, its hit buffer
		// and plan storage holding another request's keys until reset.
		aug := New(poly, ix, Config{})
		s := &sink{}
		for _, pass := range []string{"fresh", "reused"} {
			if !s.reset() {
				t.Fatal("a small plan's sink is not reusable")
			}
			p := aug.buildPlan(ctx, s, origins, level)
			what := fmt.Sprintf("trial %d (%d origins, level %d, %s sink)", trial, len(origins), level, pass)
			checkPlan(t, what, p, s, ref)
		}

		want := map[core.GlobalKey]core.Object{}
		for _, gk := range ref.order {
			obj, err := poly.Fetch(ctx, gk)
			if err != nil {
				t.Fatal(err)
			}
			want[gk] = obj
		}
		wantAnswer := ref.answer(want)
		for _, st := range Strategies {
			cfg := Config{Strategy: st, BatchSize: 1 + rng.Intn(8), ThreadsSize: 1 + rng.Intn(6), CacheSize: rng.Intn(2) * 16}
			got, _, err := New(poly, ix, cfg).AugmentObjects(ctx, origins, level)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(got, wantAnswer) {
				t.Errorf("trial %d %v: answer differs from the map-based reference\n got  %v\n want %v", trial, cfg, got, wantAnswer)
			}
		}
	}
	// The property is only as strong as the cases the graphs produced.
	t.Logf("%d origin hits, %d overlapping hits, %d distance tie-breaks", skipped, overlaps, tieSwaps)
	if skipped == 0 || overlaps == 0 || tieSwaps == 0 {
		t.Fatalf("random graphs missed a case: %d origin hits, %d overlapping hits, %d distance tie-breaks", skipped, overlaps, tieSwaps)
	}
}

func checkPlan(t *testing.T, what string, p *plan, s *sink, ref *refPlan) {
	t.Helper()
	if !slices.Equal(p.order, ref.order) {
		t.Fatalf("%s: order = %v, want %v", what, p.order, ref.order)
	}
	if len(p.byOrigin) != len(ref.byOrigin) {
		t.Fatalf("%s: %d origin partitions, want %d", what, len(p.byOrigin), len(ref.byOrigin))
	}
	for i := range ref.byOrigin {
		if !slices.Equal(p.byOrigin[i], ref.byOrigin[i]) {
			t.Fatalf("%s: byOrigin[%d] = %v, want %v", what, i, p.byOrigin[i], ref.byOrigin[i])
		}
		if cap(p.byOrigin[i]) != len(p.byOrigin[i]) {
			t.Fatalf("%s: byOrigin[%d] can grow into the next origin's keys", what, i)
		}
	}
	for i, gk := range p.order {
		if p.hits[i] != ref.hits[gk] {
			t.Fatalf("%s: slot %d holds %+v, want %+v", what, i, p.hits[i], ref.hits[gk])
		}
		if p.slot[gk] != int32(i) {
			t.Fatalf("%s: %v maps to slot %d, want %d", what, gk, p.slot[gk], i)
		}
	}
	if s.skipped != ref.skipped {
		t.Fatalf("%s: origins_skipped = %d, want %d", what, s.skipped, ref.skipped)
	}
}

func sameAnswer(got, want []AugmentedObject) bool {
	return slices.EqualFunc(got, want, func(a, b AugmentedObject) bool {
		return a.Object.Equal(b.Object) && a.Prob == b.Prob && a.Dist == b.Dist
	})
}

// fixedReacher serves preset reach results, so a plan can be built without
// the index's own allocations.
type fixedReacher [][]aindex.Hit

func (r fixedReacher) ReachScatterMany(context.Context, []core.GlobalKey, int) ([][]aindex.Hit, aindex.ReachStats, []Degradation) {
	return r, aindex.ReachStats{}, nil
}

// TestPlanAllocsFlatInKeys guards the slot layout's point: building a plan
// and binding its sink costs a fixed number of allocations, whatever the
// number of keys the origins reach.
func TestPlanAllocsFlatInKeys(t *testing.T) {
	const nOrigins = 5
	origins := make([]core.Object, nOrigins)
	for i := range origins {
		origins[i] = core.Object{GK: core.NewGlobalKey("o", "c", fmt.Sprint(i))}
	}
	allocs := func(nHits int) float64 {
		r := make(fixedReacher, nOrigins)
		for i := 0; i < nHits; i++ {
			r[i%nOrigins] = append(r[i%nOrigins], aindex.Hit{Key: core.NewGlobalKey("db", "c", fmt.Sprint(i)), Prob: 0.5, Dist: 1})
		}
		aug := New(core.NewPolystore(), aindex.New(), Config{})
		aug.SetReacher(r)
		return testing.AllocsPerRun(50, func() {
			s := &sink{}
			s.bind(aug.buildPlan(ctx, s, origins, 1))
		})
	}
	small, large := allocs(10), allocs(200)
	t.Logf("%v allocations for 10 hits, %v for 200", small, large)
	if small != large {
		t.Errorf("plan allocations grow with its keys: %v for 10 hits, %v for 200", small, large)
	}
}

// TestPlanAllocsFlatInOrigins: on a warm sink, building a plan from the
// local index allocates the same for 10 origins as for 50. Every origin's
// reach appends to the sink's one hit buffer, so no reach allocates a
// result of its own.
func TestPlanAllocsFlatInOrigins(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments sync.Pool, which holds the index's traversal scratch")
	}
	const nOrigins = 50
	ix := aindex.New()
	origins := make([]core.Object, nOrigins)
	for i := range origins {
		origins[i] = core.Object{GK: core.NewGlobalKey("o", "c", fmt.Sprint(i))}
		a, b := core.NewGlobalKey("a", "c", fmt.Sprint(i)), core.NewGlobalKey("b", "c", fmt.Sprint(i))
		for _, r := range []core.PRelation{core.NewMatching(origins[i].GK, a, 0.9), core.NewMatching(a, b, 0.8)} {
			if err := ix.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	aug := New(core.NewPolystore(), ix, Config{})
	s := &sink{}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			s.reset()
			s.bind(aug.buildPlan(ctx, s, origins[:n], 2))
		})
	}
	allocs(nOrigins) // size the sink for the largest plan
	small, large := allocs(10), allocs(nOrigins)
	t.Logf("%v allocations for 10 origins, %v for %d", small, large, nOrigins)
	if small != large {
		t.Errorf("plan allocations grow with its origins: %v for 10, %v for %d", small, large, nOrigins)
	}
}

// refEachGroup is the map-based grouping eachGroup replaced, kept as the
// reference its emit order must agree with. It returns each emitted group as
// "database.collection:keys".
func refEachGroup(p *plan, batchSize int) []string {
	var out []string
	emit := func(g group, keys []string) {
		out = append(out, fmt.Sprintf("%s.%s:%v", g.database, g.collection, keys))
	}
	groups := map[group][]string{}
	for _, gk := range p.order {
		g := group{database: gk.Database, collection: gk.Collection}
		keys := append(groups[g], gk.Key)
		if len(keys) < batchSize {
			groups[g] = keys
			continue
		}
		delete(groups, g)
		emit(g, keys)
	}
	for _, gk := range p.order {
		g := group{database: gk.Database, collection: gk.Collection}
		if keys, ok := groups[g]; ok {
			delete(groups, g)
			emit(g, keys)
		}
	}
	return out
}

// groupedPlan spreads n keys over pairs (database, collection) pairs in a
// random order; pairs may exceed openGroups.
func groupedPlan(rng *rand.Rand, n, pairs int) *plan {
	p := &plan{}
	for i := 0; i < n; i++ {
		c := rng.Intn(pairs)
		p.order = append(p.order, core.NewGlobalKey(fmt.Sprintf("db%d", c%3), fmt.Sprintf("c%d", c), fmt.Sprint(i)))
	}
	return p
}

// TestEachGroupMatchesReference: the open-group slice emits the same groups,
// in the same order, as the map it replaced, at every batch size and below
// and above the pairs it holds on the stack; and stopping the walk stops it.
func TestEachGroupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		p := groupedPlan(rng, rng.Intn(120), 1+rng.Intn(2*openGroups))
		batch := 1 + rng.Intn(20)
		var got []string
		p.eachGroup(batch, func(g group, keys []string) bool {
			if cap(keys) > batch {
				t.Fatalf("trial %d: a group's slice has capacity %d over the batch size %d", trial, cap(keys), batch)
			}
			got = append(got, fmt.Sprintf("%s.%s:%v", g.database, g.collection, keys))
			return true
		})
		if want := refEachGroup(p, batch); !slices.Equal(got, want) {
			t.Fatalf("trial %d (batch %d): groups\n got  %v\n want %v", trial, batch, got, want)
		}
		if len(got) > 1 {
			calls := 0
			p.eachGroup(batch, func(group, []string) bool { calls++; return false })
			if calls != 1 {
				t.Fatalf("trial %d: emit returned false but was called %d times", trial, calls)
			}
		}
	}
}

// TestEachGroupAllocsFlatInGroups: grouping a batched augmentation's keys
// allocates the emitted groups' key slices and nothing else, however many
// (database, collection) pairs the plan reaches, up to openGroups.
func TestEachGroupAllocsFlatInGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(4601))
	for pairs := 1; pairs <= openGroups; pairs++ {
		p := groupedPlan(rng, 300, pairs)
		groups := 0
		p.eachGroup(16, func(group, []string) bool { groups++; return true })
		allocs := testing.AllocsPerRun(50, func() {
			p.eachGroup(16, func(group, []string) bool { return true })
		})
		if allocs != float64(groups) {
			t.Errorf("%d pairs: %v allocations for %d groups, want one per group", pairs, allocs, groups)
		}
	}
}
