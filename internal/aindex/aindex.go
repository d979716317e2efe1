// Package aindex implements the A' index of QUEPA (Section III-B/C): a graph
// whose nodes are the global keys of the polystore's data objects and whose
// edges are the identity and matching p-relations between them, each carrying
// a probability.
//
// The index enforces the paper's Consistency Condition at insertion time by
// materializing inferred p-relations:
//
//   - identity is transitive: inserting a ~ b merges the identity classes of
//     a and b, adding the missing identity edges with the product of the
//     probabilities along the connecting path (paper Fig. 4);
//   - matching propagates over identity (o1 ≡ o2 and o2 ~ o3 imply o1 ≡ o3):
//     every member of an identity class shares the class's matching edges.
//
// Deletion is lazy: an object is removed only when the augmenter discovers,
// during a fetch, that it no longer exists in the polystore. Because inferred
// edges are materialized, removing the node that induced them keeps them in
// place, matching the paper's chosen deletion strategy.
package aindex

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// Hot-path instrumentation handles, resolved once.
var (
	reachHist = telemetry.NewHistogram("quepa_aindex_reach_duration_seconds",
		"latency of A' index reachability lookups (one per origin object)", nil)
	reachHits = telemetry.NewCounter("quepa_aindex_reach_keys_total",
		"global keys returned by A' index reachability lookups")
	removals = telemetry.NewCounter("quepa_aindex_removals_total",
		"objects lazily removed from the A' index after a fetch miss")
)

// edge is one stored p-relation endpoint.
type edge struct {
	typ  core.RelType
	prob float64
}

// Index is the in-memory A' index. It is safe for concurrent use.
type Index struct {
	mu    sync.RWMutex
	adj   map[core.GlobalKey]map[core.GlobalKey]edge
	edges int

	// Read-optimized snapshot machinery (snapshot.go). epoch counts
	// mutations and is bumped inside the write critical section; snap holds
	// the latest frozen CSR view, stamped with the epoch it was built at.
	// The rebuild fields coordinate the single background rebuild goroutine.
	epoch          atomic.Uint64
	snap           atomic.Pointer[snapshot]
	rebuilds       atomic.Uint64 // snapshots installed, patches included
	patches        atomic.Uint64
	lastBuildNanos atomic.Int64
	lastFullNanos  atomic.Int64
	debounce       atomic.Int64 // rebuild debounce override, nanoseconds
	rebuildMu      sync.Mutex
	rebuildRunning bool

	// What separates adj from the installed snapshot. Mutators write both
	// under the write lock; RefreshSnapshot consumes them under the read
	// lock plus snapMu. dirty holds the keys whose rows changed; needFull
	// says the key set changed (or dirty overflowed) and only a full build
	// will do — atomic because the rebuild loop polls it without the lock.
	snapMu   sync.Mutex
	dirty    map[core.GlobalKey]struct{}
	needFull atomic.Bool

	// journal, when non-nil, observes every mutation inside the write
	// critical section (journal.go). The WAL manager installs itself here so
	// crash recovery can replay mutations in application order.
	journal Journal

	// invalidate, when non-nil, is called after component-level surgery
	// (ReplaceComponent) commits — the one mutation class whose effects a
	// purely epoch-keyed result cache must not wait out, because rebalances
	// swap whole shards at once. Ordinary mutations rely on the epoch bump
	// alone. Stored atomically so reads need no lock.
	invalidate atomic.Pointer[func()]
}

// New returns an empty index with a fresh (empty) snapshot installed, so
// reads on an unmutated index take the lock-free path from the start.
func New() *Index {
	ix := &Index{adj: map[core.GlobalKey]map[core.GlobalKey]edge{}, dirty: map[core.GlobalKey]struct{}{}}
	ix.snap.Store(buildSnapshot(ix.adj, 0, 0))
	return ix
}

// NodeCount returns the number of global keys present in the index.
func (ix *Index) NodeCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.adj)
}

// EdgeCount returns the number of (undirected) p-relations in the index,
// including materialized inferred ones.
func (ix *Index) EdgeCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.edges
}

// Insert adds a p-relation and materializes every p-relation inferable from
// it under the Consistency Condition. Inserting an edge that already exists
// keeps the higher probability; inserting an identity where a matching edge
// exists upgrades it.
func (ix *Index) Insert(r core.PRelation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	ix.mu.Lock()
	ix.insertLocked(r)
	e := ix.epoch.Add(1)
	if ix.journal != nil {
		ix.journal.Log([]JournalOp{{Kind: OpInsert, Rel: r}}, e)
	}
	ix.mu.Unlock()
	ix.scheduleRebuild()
	return nil
}

// insertLocked materializes r and its consistency-condition closure. The
// caller holds the write lock — or owns the index exclusively, as the bulk
// loader's per-component shards do — and is responsible for the epoch bump.
func (ix *Index) insertLocked(r core.PRelation) {
	if r.Type == core.Matching {
		// Matching propagates across the identity classes of both endpoints.
		clsFrom := ix.identityClassLocked(r.From) // includes r.From with prob 1
		clsTo := ix.identityClassLocked(r.To)
		for x, px := range clsFrom {
			for y, py := range clsTo {
				if x == y {
					continue
				}
				ix.setEdgeLocked(x, y, core.Matching, px*r.Prob*py)
			}
		}
		return
	}

	// Identity: merge the two classes into one clique (paper Fig. 4), then
	// share all matching edges across the merged class.
	clsFrom := ix.identityClassLocked(r.From)
	clsTo := ix.identityClassLocked(r.To)
	for x, px := range clsFrom {
		for y, py := range clsTo {
			if x == y {
				continue
			}
			ix.setEdgeLocked(x, y, core.Identity, px*r.Prob*py)
		}
	}
	// Collect the matching edges of every member of the merged class, then
	// propagate each to the members that miss it. The propagated probability
	// follows the path member ~ owner ≡ partner: the identity probability
	// between the receiving member and the member that owns the matching
	// edge, times the matching probability — independent of insertion order.
	merged := ix.identityClassLocked(r.From)
	type match struct {
		owner   core.GlobalKey
		partner core.GlobalKey
		prob    float64
	}
	var matches []match
	for member := range merged {
		for nb, e := range ix.adj[member] {
			if e.typ == core.Matching {
				matches = append(matches, match{owner: member, partner: nb, prob: e.prob})
			}
		}
	}
	for _, m := range matches {
		for member := range merged {
			if member == m.partner || member == m.owner {
				continue
			}
			link, ok := ix.edgeLocked(member, m.owner)
			if !ok {
				continue // not actually connected (defensive)
			}
			ix.setEdgeLocked(member, m.partner, core.Matching, link.prob*m.prob)
		}
	}
}

// identityClassLocked returns the identity class of gk as a map from member
// to the best path probability from gk (gk itself maps to 1). Identity
// classes are maintained as cliques, so direct neighbors suffice; the
// traversal is still transitive for robustness against partially built
// indexes (e.g. bulk loads that bypass materialization).
//
// The traversal is hop-synchronous with frozen frontier values and requeues
// a node whenever its probability improves, running to the fixed point: the
// result is the true maximum product over all connecting paths, independent
// of map iteration order. (An earlier version read the live probability of
// a frontier node and never requeued improved nodes, which made closure
// probabilities depend on iteration order — and insertion nondeterministic.)
// Termination: probabilities only increase strictly, and the achievable
// values are products over simple paths, a finite set.
func (ix *Index) identityClassLocked(gk core.GlobalKey) map[core.GlobalKey]float64 {
	cls := map[core.GlobalKey]float64{gk: 1}
	frontier := map[core.GlobalKey]float64{gk: 1}
	for len(frontier) > 0 {
		next := map[core.GlobalKey]float64{}
		for cur, curProb := range frontier {
			for nb, e := range ix.adj[cur] {
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

// setEdgeLocked installs an undirected edge, keeping the stronger of the old
// and new variants: identity beats matching, and within a type the higher
// probability wins.
func (ix *Index) setEdgeLocked(a, b core.GlobalKey, typ core.RelType, prob float64) {
	if prob > 1 {
		prob = 1
	}
	if prob <= 0 {
		return
	}
	old, exists := ix.edgeLocked(a, b)
	if exists {
		if old.typ == core.Identity && typ == core.Matching {
			return // identity subsumes matching
		}
		if old.typ == typ && old.prob >= prob {
			return
		}
	}
	newKey := false
	if ix.adj[a] == nil {
		ix.adj[a] = map[core.GlobalKey]edge{}
		newKey = true
	}
	if ix.adj[b] == nil {
		ix.adj[b] = map[core.GlobalKey]edge{}
		newKey = true
	}
	if newKey {
		ix.markAllDirtyLocked() // the snapshot's id tables are out
	} else {
		ix.markRowDirtyLocked(a)
		ix.markRowDirtyLocked(b)
	}
	if !exists {
		ix.edges++
	}
	e := edge{typ: typ, prob: prob}
	ix.adj[a][b] = e
	ix.adj[b][a] = e
}

func (ix *Index) edgeLocked(a, b core.GlobalKey) (edge, bool) {
	e, ok := ix.adj[a][b]
	return e, ok
}

// Relation reports the stored p-relation between two global keys, if any.
func (ix *Index) Relation(a, b core.GlobalKey) (core.PRelation, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	e, ok := ix.edgeLocked(a, b)
	if !ok {
		return core.PRelation{}, false
	}
	return core.PRelation{From: a, To: b, Type: e.typ, Prob: e.prob}, true
}

// Contains reports whether a global key is present in the index.
func (ix *Index) Contains(gk core.GlobalKey) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.adj[gk]
	return ok
}

// RemoveObject deletes a global key and its incident edges. It implements
// the lazy-deletion policy: the augmenter calls it when a fetch reveals the
// object no longer exists. Inferred edges between the remaining nodes stay.
func (ix *Index) RemoveObject(gk core.GlobalKey) bool {
	return ix.RemoveObjectCtx(context.Background(), gk)
}

// RemoveObjectCtx is RemoveObject with the triggering request's context, so a
// context-aware journal (the WAL) can hang its durability spans inside the
// trace of the request whose fetch revealed the stale object.
func (ix *Index) RemoveObjectCtx(ctx context.Context, gk core.GlobalKey) bool {
	ix.mu.Lock()
	if !ix.removeObjectLocked(gk) {
		ix.mu.Unlock()
		return false
	}
	e := ix.epoch.Add(1)
	if ix.journal != nil {
		ix.logCtxLocked(ctx, []JournalOp{{Kind: OpRemove, Key: gk}}, e)
	}
	ix.mu.Unlock()
	removals.Inc()
	ix.scheduleRebuild()
	return true
}

// removeObjectLocked deletes gk and its incident edges under the write lock,
// without touching the epoch or the journal; the caller owns both.
func (ix *Index) removeObjectLocked(gk core.GlobalKey) bool {
	nbs, ok := ix.adj[gk]
	if !ok {
		return false
	}
	for nb := range nbs {
		delete(ix.adj[nb], gk)
		ix.edges--
	}
	delete(ix.adj, gk)
	ix.markAllDirtyLocked() // a key left: the snapshot's id tables are out
	return true
}

// Hit is one global key reachable through the index, with the probability of
// the best path leading to it and the hop distance at which it was first
// reached.
type Hit struct {
	Key  core.GlobalKey
	Prob float64
	Dist int
}

// ReachStats summarizes the work of one reachability traversal: index nodes
// expanded (frontier entries processed, including the start) and adjacency
// edges scanned. The explain Recorder attributes them to the profiled query.
type ReachStats struct {
	Nodes int
	Edges int
	// Snapshot reports whether the traversal was served lock-free from the
	// CSR snapshot rather than the locked adjacency maps.
	Snapshot bool
}

// Reach returns the global keys reachable from gk within level+1 hops — the
// augmentation primitive α of Definition 2: level 0 reaches the direct
// p-relations of gk, each further level expands one hop more. The starting
// key is not included. Probabilities are the maximum product over all paths
// within the hop bound; results are ordered by decreasing probability (ties
// broken by key order) as Definition 3 requires.
func (ix *Index) Reach(gk core.GlobalKey, level int) []Hit {
	return ix.reach(gk, level, nil)
}

// ReachWithStats is Reach plus a count of the traversal work performed —
// the augmenter uses it when a query is being profiled.
func (ix *Index) ReachWithStats(gk core.GlobalKey, level int) ([]Hit, ReachStats) {
	var stats ReachStats
	hits := ix.reach(gk, level, &stats)
	return hits, stats
}

func (ix *Index) reach(gk core.GlobalKey, level int, stats *ReachStats) []Hit {
	if level < 0 {
		return nil
	}
	start := telemetry.Now()
	// Fast path: a snapshot stamped with the current mutation epoch serves
	// the traversal lock-free. The snapshot pointer is loaded before the
	// epoch, so a mutation between the two loads can only make the check
	// fail, never pass with stale data.
	if s := ix.snap.Load(); s != nil && s.epoch == ix.epoch.Load() {
		hits := s.reach(gk, level, stats)
		if stats != nil {
			stats.Snapshot = true
		}
		reachSnapshot.Inc()
		reachHits.Add(uint64(len(hits)))
		reachHist.Since(start)
		return hits
	}
	// The snapshot is behind the adjacency (a mutation's debounced rebuild
	// has not landed yet). Serve from the locked traversal so lazy deletions
	// take effect immediately, and make sure a rebuild is on its way.
	reachFallback.Inc()
	ix.scheduleRebuild()
	hits := ix.reachLocked(gk, level, stats)
	reachHits.Add(uint64(len(hits)))
	reachHist.Since(start)
	return hits
}

// reachLocked is the reference traversal over the mutable adjacency maps.
// The snapshot fast path (snapshot.go) replicates it operation for
// operation; TestSnapshotReachMatchesLocked pins the equivalence.
func (ix *Index) reachLocked(gk core.GlobalKey, level int, stats *ReachStats) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	maxHops := level + 1
	best := map[core.GlobalKey]Hit{gk: {Key: gk, Prob: 1, Dist: 0}}
	frontier := map[core.GlobalKey]float64{gk: 1}
	for hop := 1; hop <= maxHops && len(frontier) > 0; hop++ {
		next := map[core.GlobalKey]float64{}
		for cur, curProb := range frontier {
			if stats != nil {
				stats.Nodes++
				stats.Edges += len(ix.adj[cur])
			}
			for nb, e := range ix.adj[cur] {
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
		if k == gk {
			continue
		}
		out = append(out, h)
	}
	SortHits(out)
	return out
}

// Neighbors returns the direct p-relations of gk (its level-0 reach)
// together with their types, ordered by decreasing probability. Augmented
// exploration uses it to render clickable links.
func (ix *Index) Neighbors(gk core.GlobalKey) []core.PRelation {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nbs := ix.adj[gk]
	out := make([]core.PRelation, 0, len(nbs))
	for nb, e := range nbs {
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

// SortHits orders hits by decreasing probability, breaking ties by key.
// Keys within a reach result are unique, so the comparison is a strict
// total order and every correct sort yields the same permutation; the
// hand-rolled quicksort keeps the snapshot Reach fast path free of
// sort.Slice's reflection and closure allocations.
func SortHits(hits []Hit) { sortHits(hits) }

func hitLess(a, b Hit) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.Key.Compare(b.Key) < 0
}

func sortHits(h []Hit) {
	for len(h) > 12 {
		p := partitionHits(h)
		if p < len(h)-p-1 {
			sortHits(h[:p])
			h = h[p+1:]
		} else {
			sortHits(h[p+1:])
			h = h[:p]
		}
	}
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && hitLess(h[j], h[j-1]); j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}

func partitionHits(h []Hit) int {
	mid, last := len(h)/2, len(h)-1
	h[mid], h[last] = h[last], h[mid]
	pivot := h[last]
	i := 0
	for j := 0; j < last; j++ {
		if hitLess(h[j], pivot) {
			h[i], h[j] = h[j], h[i]
			i++
		}
	}
	h[i], h[last] = h[last], h[i]
	return i
}

// Keys returns every global key in the index, sorted. Intended for tools and
// tests; it copies the key set under the read lock.
func (ix *Index) Keys() []core.GlobalKey {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]core.GlobalKey, 0, len(ix.adj))
	for k := range ix.adj {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Validate checks the structural invariants of the index: symmetry of the
// adjacency, probability bounds, and the Consistency Condition. It is meant
// for tests and for integrity checks after bulk loads.
func (ix *Index) Validate() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for a, nbs := range ix.adj {
		for b, e := range nbs {
			back, ok := ix.adj[b][a]
			if !ok {
				return fmt.Errorf("aindex: edge %v -> %v has no reverse", a, b)
			}
			if back != e {
				return fmt.Errorf("aindex: asymmetric edge %v <-> %v", a, b)
			}
			if e.prob <= 0 || e.prob > 1 {
				return fmt.Errorf("aindex: edge %v <-> %v has probability %g", a, b, e.prob)
			}
		}
	}
	// Consistency Condition: o1 ≡ o2 and o2 ~ o3 imply o1 ≡ o3 (or stronger:
	// an identity between o1 and o3).
	for o2, nbs := range ix.adj {
		for o1, e12 := range nbs {
			if e12.typ != core.Matching {
				continue
			}
			for o3, e23 := range nbs {
				if e23.typ != core.Identity || o3 == o1 {
					continue
				}
				if _, ok := ix.adj[o1][o3]; !ok {
					return fmt.Errorf("aindex: consistency violation: %v ≡ %v, %v ~ %v, but no %v ≡ %v",
						o1, o2, o2, o3, o1, o3)
				}
			}
		}
	}
	return nil
}

// Edges exports every p-relation of the index exactly once (normalized so
// From <= To), in deterministic order. The middleware baselines use it to
// materialize the index as a join relation.
func (ix *Index) Edges() []core.PRelation {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.edgesLocked()
}

func (ix *Index) edgesLocked() []core.PRelation {
	out := make([]core.PRelation, 0, ix.edges)
	for a, nbs := range ix.adj {
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

// InsertRaw installs a p-relation WITHOUT enforcing the Consistency
// Condition: no transitive identities, no matching propagation. It exists
// for bulk loads of already-closed dumps (ReadSnapshot) and for the ablation
// experiment that quantifies what materialization buys (bench "ablation").
// Regular callers should use Insert.
func (ix *Index) InsertRaw(r core.PRelation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	ix.mu.Lock()
	ix.setEdgeLocked(r.From, r.To, r.Type, r.Prob)
	e := ix.epoch.Add(1)
	if ix.journal != nil {
		ix.journal.Log([]JournalOp{{Kind: OpInsertRaw, Rel: r}}, e)
	}
	ix.mu.Unlock()
	ix.scheduleRebuild()
	return nil
}

// Clone returns a deep copy of the index. The paper's deployment gives each
// QUEPA instance "its own A' index replica"; Clone produces such replicas
// from a master index built once (by the collector or a ReadSnapshot load).
func (ix *Index) Clone() *Index {
	ix.mu.RLock()
	out := New()
	out.edges = ix.edges
	for a, nbs := range ix.adj {
		m := make(map[core.GlobalKey]edge, len(nbs))
		for b, e := range nbs {
			m[b] = e
		}
		out.adj[a] = m
	}
	ix.mu.RUnlock()
	// The empty snapshot New installed does not describe the copied
	// adjacency; freeze a real one so the replica reads lock-free at once.
	out.markAllDirtyLocked()
	out.RefreshSnapshot()
	return out
}
