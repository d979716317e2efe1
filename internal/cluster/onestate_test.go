package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/resilience"
	"quepa/internal/stores/kvstore"
)

// oneStateFixture is a two-origin A' whose union promotion s–t changes
// the merged level-3 answer in a way a mixed read can be told apart from
// both states: before it, s is reached at 0.5 (o1–s); after it, o2 reaches
// s at 0.99⁴ ≈ 0.9606 over m1–m2–t–s and o1 reaches x over s–t–u–x. A read
// of o1 before the promotion and o2 after it has s at 0.9606 but no x. o1's
// island also holds a clique of pad keys, so o1's reach is slow enough for
// a writer to land between the two origins' reads.
type oneStateFixture struct {
	pre     *aindex.Index // the state before the promotion
	promote core.PRelation
	o1, o2  core.GlobalKey
}

const oneStatePad = 160

func oneStateKey(k string) core.GlobalKey { return core.NewGlobalKey("db", "c", k) }

func newOneStateFixture(t *testing.T) (*oneStateFixture, []core.GlobalKey) {
	t.Helper()
	m := func(a, b string, p float64) core.PRelation {
		return core.NewMatching(oneStateKey(a), oneStateKey(b), p)
	}
	rels := []core.PRelation{
		m("o1", "s", 0.5), m("o2", "m1", 0.99), m("m1", "m2", 0.99),
		m("m2", "t", 0.99), m("t", "u", 0.99), m("u", "x", 0.99),
	}
	for i := 0; i < oneStatePad; i++ {
		rels = append(rels, m("o1", fmt.Sprintf("p%d", i), 0.4))
		for j := 0; j < i; j++ {
			rels = append(rels, m(fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", j), 0.3))
		}
	}
	pre, err := aindex.BulkLoad(rels)
	if err != nil {
		t.Fatal(err)
	}
	return &oneStateFixture{pre: pre, promote: m("s", "t", 0.99), o1: oneStateKey("o1"), o2: oneStateKey("o2")}, pre.Keys()
}

// post returns a copy of the index after the promotion.
func (f *oneStateFixture) post(t *testing.T) *aindex.Index {
	t.Helper()
	ix := f.pre.Clone()
	if err := ix.Insert(f.promote); err != nil {
		t.Fatal(err)
	}
	return ix
}

// merged folds reach runs into the best probability per key.
func merged(runs ...[]aindex.Hit) map[core.GlobalKey]float64 {
	out := map[core.GlobalKey]float64{}
	for _, run := range runs {
		for _, h := range run {
			out[h.Key] = max(out[h.Key], h.Prob)
		}
	}
	return out
}

// checkFixture pins the three merged answers the fixture is built to tell
// apart.
func (f *oneStateFixture) checkFixture(t *testing.T) {
	t.Helper()
	post := f.post(t)
	s, x := oneStateKey("s"), oneStateKey("x")
	near := func(got, want float64) bool { return math.Abs(got-want) < 5e-5 }
	pre := merged(f.pre.Reach(f.o1, 3), f.pre.Reach(f.o2, 3))
	if _, ok := pre[x]; !near(pre[s], 0.5) || ok {
		t.Fatalf("pre-promotion: s %.4f, x present %v; want 0.5000, false", pre[s], ok)
	}
	after := merged(post.Reach(f.o1, 3), post.Reach(f.o2, 3))
	if _, ok := after[x]; !near(after[s], 0.9606) || !ok {
		t.Fatalf("post-promotion: s %.4f, x present %v; want 0.9606, true", after[s], ok)
	}
	mixed := merged(f.pre.Reach(f.o1, 3), post.Reach(f.o2, 3))
	if _, ok := mixed[x]; !near(mixed[s], 0.9606) || ok {
		t.Fatalf("mixed read: s %.4f, x present %v; want 0.9606, false", mixed[s], ok)
	}
}

// raceOneState runs read against a fresh copy of the pre-promotion index
// while a writer inserts the promotion, iters times. The writer starts
// after a delay swept over twice the duration of a quiet read, so some
// promotions land before the read, some after it and some inside o1's
// reach. It returns how many reads answered neither state.
func (f *oneStateFixture) raceOneState(t *testing.T, iters int, read func(ix *aindex.Index) string, pre, post string) int {
	t.Helper()
	var quiet time.Duration
	for i := 0; i < 5; i++ {
		ix := f.pre.Clone()
		t0 := time.Now()
		read(ix)
		quiet += time.Since(t0)
	}
	span := 2 * quiet / 5
	mixed := 0
	for i := 0; i < iters; i++ {
		ix := f.pre.Clone()
		done := make(chan error, 1)
		delay := span * time.Duration(i%20) / 20
		go func() {
			// Spin rather than sleep: a timer is too coarse to land a
			// write inside one reach.
			for t0 := time.Now(); time.Since(t0) < delay; {
			}
			done <- ix.Insert(f.promote)
		}()
		got := read(ix)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got != pre && got != post {
			mixed++
		}
	}
	return mixed
}

// TestScatterReadsOneIndexState: a two-origin reach racing a union
// promotion answers over one A' state, the one before the promotion or the
// one after it, never o1's reach from one and o2's from the other. The
// three ways a node reads its own index are raced: a one-node
// augmentation, the self leg of a coordinator's scatter, and an owner
// answering a reach frame.
func TestScatterReadsOneIndexState(t *testing.T) {
	const iters = 200
	ctx := context.Background()
	f, keys := newOneStateFixture(t)
	f.checkFixture(t)
	origins := []core.GlobalKey{f.o1, f.o2}
	race := func(t *testing.T, read func(ix *aindex.Index) string) {
		pre, post := read(f.pre.Clone()), read(f.post(t))
		if mixed := f.raceOneState(t, iters, read, pre, post); mixed > 0 {
			t.Errorf("%d of %d reads took o1 and o2 from different A' states", mixed, iters)
		}
	}

	t.Run("augment", func(t *testing.T) {
		kv := kvstore.New("db")
		for _, gk := range keys {
			kv.Set("c", gk.Key, gk.Key)
		}
		poly := core.NewPolystore()
		if err := poly.Register(connector.NewKeyValue(kv)); err != nil {
			t.Fatal(err)
		}
		objs := make([]core.Object, len(origins))
		for i, gk := range origins {
			o, err := poly.Fetch(ctx, gk)
			if err != nil {
				t.Fatal(err)
			}
			objs[i] = o
		}
		race(t, func(ix *aindex.Index) string {
			out, degraded, err := augment.New(poly, ix, augment.Config{}).AugmentObjects(ctx, objs, 3)
			if err != nil || degraded != nil {
				t.Fatalf("augment: %v, degraded %v", err, degraded)
			}
			sig := ""
			for _, ao := range out {
				sig += fmt.Sprintf("%v=%.6f/%d;", ao.Object.GK, ao.Prob, ao.Dist)
			}
			return sig
		})
	})

	t.Run("self-leg", func(t *testing.T) {
		ring, err := NewRing(1, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		race(t, func(ix *aindex.Index) string {
			coord, err := NewCoordinator(Config{Ring: ring, Peers: []string{"self"}, Node: NewNode(0, ix, nil),
				Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			got, _, degs := coord.ReachScatterMany(ctx, origins, 3)
			if degs != nil {
				t.Fatalf("degradations %v", degs)
			}
			return fmt.Sprint(got)
		})
	})

	t.Run("owner", func(t *testing.T) {
		wireOrigins := []string{f.o1.String(), f.o2.String()}
		race(t, func(ix *aindex.Index) string {
			hits, segs, _, err := NewNode(0, ix, nil).ReachMany(ctx, wireOrigins, 3)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(hits, segs)
		})
	})
}
