package aindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"quepa/internal/core"
)

// refIndex is the reference model of the A' index: the map-of-maps
// adjacency the index kept before it held id-addressed rows, with the same
// insert closure, lazy deletion and hop-synchronous reach. The differential
// test below drives it and an Index through the same operations and
// requires every answer to agree bitwise.
type refIndex struct {
	adj   map[core.GlobalKey]map[core.GlobalKey]refEdge
	edges int
	// parent is a never-splitting union-find over the keys that had an
	// edge written since the last wholesale load: the components Islands
	// carves by.
	parent map[core.GlobalKey]core.GlobalKey
}

type refEdge struct {
	typ  core.RelType
	prob float64
}

func newRefIndex() *refIndex {
	return &refIndex{
		adj:    map[core.GlobalKey]map[core.GlobalKey]refEdge{},
		parent: map[core.GlobalKey]core.GlobalKey{},
	}
}

func (m *refIndex) insert(r core.PRelation) {
	if r.Type == core.Matching {
		clsFrom, clsTo := m.identityClass(r.From), m.identityClass(r.To)
		for x, px := range clsFrom {
			for y, py := range clsTo {
				if x != y {
					m.setEdge(x, y, core.Matching, px*r.Prob*py)
				}
			}
		}
		return
	}
	clsFrom, clsTo := m.identityClass(r.From), m.identityClass(r.To)
	for x, px := range clsFrom {
		for y, py := range clsTo {
			if x != y {
				m.setEdge(x, y, core.Identity, px*r.Prob*py)
			}
		}
	}
	merged := m.identityClass(r.From)
	type match struct {
		owner, partner core.GlobalKey
		prob           float64
	}
	var matches []match
	for member := range merged {
		for nb, e := range m.adj[member] {
			if e.typ == core.Matching {
				matches = append(matches, match{member, nb, e.prob})
			}
		}
	}
	for _, mt := range matches {
		for member := range merged {
			if member == mt.partner || member == mt.owner {
				continue
			}
			if link, ok := m.adj[member][mt.owner]; ok {
				m.setEdge(member, mt.partner, core.Matching, link.prob*mt.prob)
			}
		}
	}
}

func (m *refIndex) identityClass(gk core.GlobalKey) map[core.GlobalKey]float64 {
	cls := map[core.GlobalKey]float64{gk: 1}
	frontier := map[core.GlobalKey]float64{gk: 1}
	for len(frontier) > 0 {
		next := map[core.GlobalKey]float64{}
		for cur, curProb := range frontier {
			for nb, e := range m.adj[cur] {
				if e.typ != core.Identity {
					continue
				}
				p := curProb * e.prob
				if old, seen := cls[nb]; !seen || p > old {
					cls[nb] = p
					if p > next[nb] {
						next[nb] = p
					}
				}
			}
		}
		frontier = next
	}
	return cls
}

func (m *refIndex) setEdge(a, b core.GlobalKey, typ core.RelType, prob float64) {
	if prob > 1 {
		prob = 1
	}
	if prob <= 0 {
		return
	}
	old, exists := m.adj[a][b]
	if exists {
		if old.typ == core.Identity && typ == core.Matching {
			return
		}
		if old.typ == typ && old.prob >= prob {
			return
		}
	}
	for _, k := range []core.GlobalKey{a, b} {
		if m.adj[k] == nil {
			m.adj[k] = map[core.GlobalKey]refEdge{}
		}
	}
	if !exists {
		m.edges++
	}
	m.adj[a][b] = refEdge{typ, prob}
	m.adj[b][a] = refEdge{typ, prob}
	m.union(a, b)
}

func (m *refIndex) remove(gk core.GlobalKey) bool {
	nbs, ok := m.adj[gk]
	if !ok {
		return false
	}
	for nb := range nbs {
		delete(m.adj[nb], gk)
		m.edges--
	}
	delete(m.adj, gk)
	return true
}

// root returns gk's component. A key no edge was written to since the
// last wholesale load is a component of its own, as its id is in the index.
func (m *refIndex) root(gk core.GlobalKey) core.GlobalKey {
	if _, ok := m.parent[gk]; !ok {
		return gk
	}
	for m.parent[gk] != gk {
		gk = m.parent[gk]
	}
	return gk
}

func (m *refIndex) union(a, b core.GlobalKey) {
	for _, k := range []core.GlobalKey{a, b} {
		if _, ok := m.parent[k]; !ok {
			m.parent[k] = k
		}
	}
	m.parent[m.root(a)] = m.root(b)
}

// copyRows is Clone (nil take) and Islands: the taken rows, verbatim, with
// the components rebuilt from what was copied.
func (m *refIndex) copyRows(take func(core.GlobalKey) bool) *refIndex {
	out := newRefIndex()
	ends := 0
	for a, nbs := range m.adj {
		if take != nil && !take(a) {
			continue
		}
		row := make(map[core.GlobalKey]refEdge, len(nbs))
		for b, e := range nbs {
			row[b] = e
			out.union(a, b)
		}
		out.adj[a] = row
		ends += len(row)
	}
	out.edges = ends / 2
	return out
}

func (m *refIndex) islands(keep func(core.GlobalKey) bool) *refIndex {
	kept := map[core.GlobalKey]bool{}
	for k := range m.adj {
		if keep(k) {
			kept[m.root(k)] = true
		}
	}
	return m.copyRows(func(k core.GlobalKey) bool { return kept[m.root(k)] })
}

func (m *refIndex) reach(gk core.GlobalKey, level int, stats *ReachStats) []Hit {
	best := map[core.GlobalKey]Hit{gk: {Key: gk, Prob: 1}}
	frontier := map[core.GlobalKey]float64{gk: 1}
	for hop := 1; hop <= level+1 && len(frontier) > 0; hop++ {
		next := map[core.GlobalKey]float64{}
		for cur, curProb := range frontier {
			stats.Nodes++
			stats.Edges += len(m.adj[cur])
			for nb, e := range m.adj[cur] {
				p := curProb * e.prob
				old, seen := best[nb]
				if !seen || p > old.Prob {
					dist := hop
					if seen && old.Dist < hop {
						dist = old.Dist
					}
					best[nb] = Hit{Key: nb, Prob: p, Dist: dist}
					if p > next[nb] {
						next[nb] = p
					}
				}
			}
		}
		frontier = next
	}
	out := make([]Hit, 0, len(best)-1)
	for k, h := range best {
		if k != gk {
			out = append(out, h)
		}
	}
	SortHits(out)
	return out
}

func (m *refIndex) neighbors(gk core.GlobalKey) []core.PRelation {
	out := []core.PRelation{}
	for nb, e := range m.adj[gk] {
		out = append(out, core.PRelation{From: gk, To: nb, Type: e.typ, Prob: e.prob})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].To.Compare(out[j].To) < 0
	})
	return out
}

func (m *refIndex) keys() []core.GlobalKey {
	out := make([]core.GlobalKey, 0, len(m.adj))
	for k := range m.adj {
		out = append(out, k)
	}
	slices.SortFunc(out, core.GlobalKey.Compare)
	return out
}

func (m *refIndex) edgeList() []core.PRelation {
	out := []core.PRelation{}
	for a, nbs := range m.adj {
		for b, e := range nbs {
			if a.Compare(b) < 0 {
				out = append(out, core.PRelation{From: a, To: b, Type: e.typ, Prob: e.prob})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].From.Compare(out[j].From); c != 0 {
			return c < 0
		}
		return out[i].To.Compare(out[j].To) < 0
	})
	return out
}

// requireMatchesModel fails unless ix answers every read as m does: reach
// hits and work counts at levels 0-3 from every key, Neighbors, Edges, Keys,
// NodeCount, EdgeCount and the persisted bytes — and the id tables are
// sound.
func requireMatchesModel(t *testing.T, ix *Index, m *refIndex, universe []core.GlobalKey, when string) {
	t.Helper()
	// InsertRaw leaves the closure open, so only the tables are checked.
	ix.mu.RLock()
	err := ix.validateTablesLocked()
	ix.mu.RUnlock()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if got, want := ix.NodeCount(), len(m.adj); got != want {
		t.Fatalf("%s: NodeCount %d, model %d", when, got, want)
	}
	if got, want := ix.EdgeCount(), m.edges; got != want {
		t.Fatalf("%s: EdgeCount %d, model %d", when, got, want)
	}
	if got, want := ix.Keys(), m.keys(); !slices.Equal(got, want) {
		t.Fatalf("%s: Keys\n got %v\nwant %v", when, got, want)
	}
	edges, want := ix.Edges(), m.edgeList()
	if !slices.Equal(edges, want) {
		t.Fatalf("%s: Edges\n got %v\nwant %v", when, edges, want)
	}
	var got, ref bytes.Buffer
	if _, err := WriteSnapshot(&got, edges, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(&ref, want, 9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("%s: persisted bytes differ", when)
	}
	for _, k := range universe {
		if got, want := ix.Contains(k), m.adj[k] != nil; got != want {
			t.Fatalf("%s: Contains(%v) = %v, model %v", when, k, got, want)
		}
		if got, want := ix.Neighbors(k), m.neighbors(k); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%v)\n got %v\nwant %v", when, k, got, want)
		}
		for level := 0; level <= 3; level++ {
			var ws ReachStats
			want := m.reach(k, level, &ws)
			served, ss := ix.ReachWithStats(k, level)
			if !slices.Equal(served, want) || ss != ws {
				t.Fatalf("%s: Reach(%v, %d)\n got %v %+v\nwant %v %+v", when, k, level, served, ss, want, ws)
			}
		}
	}
}

// TestIndexMatchesReferenceModel drives the index and the reference model
// through the same seeded random operations — inserts with and without the
// closure, lazy deletions (and revivals of deleted keys), Clone, Islands,
// BulkLoad and a persisted round trip — and compares every read
// after every operation.
//
// An Insert into an index that InsertRaw left unclosed depends on iteration
// order, in the reference as much as in the index: the closure may upgrade
// an edge it reads later. So once an InsertRaw opens the closure, inserts
// stay raw until a BulkLoad, which replays every edge through
// Insert from empty, closes it again.
func TestIndexMatchesReferenceModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	steps := 120
	if testing.Short() {
		seeds, steps = seeds[:2], 60
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		universe := make([]core.GlobalKey, 24)
		for i := range universe {
			universe[i] = core.NewGlobalKey(fmt.Sprintf("db%d", i%3), "c", fmt.Sprintf("k%02d", i))
		}
		ix, m := New(), newRefIndex()
		open := false
		for step := 0; step < steps; step++ {
			var op string
			switch n := rng.Intn(100); {
			case n < 60:
				a, b := universe[rng.Intn(len(universe))], universe[rng.Intn(len(universe))]
				if a == b {
					continue
				}
				r := core.PRelation{From: a, To: b, Type: core.Matching, Prob: 0.3 + 0.7*rng.Float64()}
				if rng.Intn(4) == 0 {
					r.Type = core.Identity
				}
				if n < 52 && !open {
					op = fmt.Sprintf("Insert(%v)", r)
					if err := ix.Insert(r); err != nil {
						t.Fatal(err)
					}
					m.insert(r)
				} else {
					op = fmt.Sprintf("InsertRaw(%v)", r)
					if err := ix.InsertRaw(r); err != nil {
						t.Fatal(err)
					}
					m.setEdge(r.From, r.To, r.Type, r.Prob)
					open = true
				}
			case n < 75:
				k := universe[rng.Intn(len(universe))]
				op = fmt.Sprintf("RemoveObject(%v)", k)
				if got, want := ix.RemoveObject(k), m.remove(k); got != want {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, got, want)
				}
			case n < 80:
				op = "Clone"
				ix, m = ix.Clone(), m.copyRows(nil)
			case n < 85:
				keep := map[core.GlobalKey]bool{}
				for _, k := range universe {
					if rng.Intn(4) == 0 {
						keep[k] = true
					}
				}
				op = fmt.Sprintf("Islands(%d keys)", len(keep))
				take := func(k core.GlobalKey) bool { return keep[k] }
				ix, m = ix.Islands(take), m.islands(take)
			case n < 90:
				op = "BulkLoad"
				rels := ix.Edges()
				next, err := BulkLoad(rels)
				if err != nil {
					t.Fatal(err)
				}
				ix, m, open = next, newRefIndex(), false
				for _, r := range rels {
					m.insert(r)
				}
			case n < 95:
				op = "WriteSnapshot/ReadSnapshot"
				var buf bytes.Buffer
				if _, err := WriteSnapshot(&buf, ix.Edges(), uint64(step)); err != nil {
					t.Fatal(err)
				}
				next, epoch, err := ReadSnapshot(&buf)
				if err != nil || epoch != uint64(step) {
					t.Fatalf("seed %d step %d: ReadSnapshot epoch %d, %v", seed, step, epoch, err)
				}
				rels := m.edgeList()
				ix, m = next, newRefIndex()
				for _, r := range rels {
					m.setEdge(r.From, r.To, r.Type, r.Prob)
				}
			default:
				op = "RefreshSnapshot"
				ix.RefreshSnapshot()
			}
			requireMatchesModel(t, ix, m, universe, fmt.Sprintf("seed %d step %d after %s", seed, step, op))
		}
	}
}
