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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// Hot-path instrumentation handles, resolved once.
var (
	reachHist = telemetry.NewHistogram("quepa_aindex_reach_duration_seconds",
		"latency of A' index reachability lookups (one per call, over all of its origins)", nil)
	reachHits = telemetry.NewCounter("quepa_aindex_reach_keys_total",
		"global keys returned by A' index reachability lookups")
	removals = telemetry.NewCounter("quepa_aindex_removals_total",
		"objects lazily removed from the A' index after a fetch miss")
)

// halfEdge is one stored p-relation endpoint: the edge as the row of one
// endpoint holds it, pointing at the other endpoint's id. It holds no
// pointer, so the garbage collector never scans a row.
type halfEdge struct {
	to   uint32
	typ  core.RelType
	prob float64
}

// Index is the in-memory A' index. It is safe for concurrent use.
type Index struct {
	mu sync.RWMutex
	// The adjacency, addressed by id. Every key the index ever held is
	// interned once: keys[id] is its key, ids[key] its id, and both tables
	// only grow. rows[id] holds the key's half-edges sorted by target id.
	// A removed key is tombstoned (dead[id]) with an empty row and keeps its
	// id, which a later edge revives; a live key may have an empty row too,
	// once its last neighbor was removed. live counts the keys not dead.
	keys  []core.GlobalKey
	ids   map[core.GlobalKey]uint32
	rows  [][]halfEdge
	dead  []bool
	live  int
	edges int

	// epoch counts mutations; every mutator bumps it inside the write
	// critical section.
	epoch atomic.Uint64

	// scratch pools the *reachScratch of Reach. A scratch is sized by
	// len(keys) when it is made and grown when keys were interned since.
	scratch sync.Pool

	// journal, when non-nil, observes every mutation inside the write
	// critical section (journal.go). The WAL manager installs itself here so
	// crash recovery can replay mutations in application order.
	journal Journal

	// comp tracks the connected components behind Stamp (component.go),
	// one entry per interned id, under mu like the rows.
	comp components
}

// New returns an empty index.
func New() *Index {
	return &Index{ids: map[core.GlobalKey]uint32{}}
}

// NodeCount returns the number of global keys present in the index.
func (ix *Index) NodeCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.live
}

// EdgeCount returns the number of (undirected) p-relations in the index,
// including materialized inferred ones.
func (ix *Index) EdgeCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.edges
}

// idLocked returns the id of a live key. The caller holds the lock.
func (ix *Index) idLocked(gk core.GlobalKey) (uint32, bool) {
	id, ok := ix.ids[gk]
	return id, ok && !ix.dead[id]
}

// internLocked returns gk's id, interning gk or reviving its tombstone.
// Callers intern only the endpoints of an edge they are about to write.
func (ix *Index) internLocked(gk core.GlobalKey) uint32 {
	id, ok := ix.ids[gk]
	switch {
	case !ok:
		id = uint32(len(ix.keys))
		ix.keys = append(ix.keys, gk)
		ix.ids[gk] = id
		ix.rows = append(ix.rows, nil)
		ix.dead = append(ix.dead, false)
		ix.comp.add(ix.epoch.Load() + 1)
	case ix.dead[id]:
		ix.dead[id] = false
	default:
		return id
	}
	ix.live++
	return id
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
		ix.journal.LogCtx(context.Background(), []JournalOp{{Kind: OpInsert, Rel: r}}, e)
	}
	ix.mu.Unlock()
	return nil
}

// insertLocked materializes r and its consistency-condition closure. The
// caller holds the write lock — or owns the index exclusively, as BulkLoad
// does — and bumps the epoch once afterwards.
// r is valid, so the edge between its endpoints is always written and
// interning them up front adds no key the closure would not.
func (ix *Index) insertLocked(r core.PRelation) {
	from, to := ix.internLocked(r.From), ix.internLocked(r.To)
	if r.Type == core.Matching {
		// Matching propagates across the identity classes of both endpoints.
		clsFrom := ix.identityClassLocked(from) // includes from with prob 1
		clsTo := ix.identityClassLocked(to)
		ys := sortedIDs(clsTo)
		for _, x := range sortedIDs(clsFrom) {
			for _, y := range ys {
				if x == y {
					continue
				}
				ix.setEdgeLocked(x, y, core.Matching, clsFrom[x]*r.Prob*clsTo[y])
			}
		}
		return
	}

	// Identity: merge the two classes into one clique (paper Fig. 4), then
	// share all matching edges across the merged class. Every class is
	// walked in ascending id order: the propagation below reads links it
	// may already have upgraded, so only a fixed order makes the result a
	// function of the relations (and lets WAL replay rebuild the index that
	// was served).
	clsFrom := ix.identityClassLocked(from)
	clsTo := ix.identityClassLocked(to)
	ys := sortedIDs(clsTo)
	for _, x := range sortedIDs(clsFrom) {
		for _, y := range ys {
			if x == y {
				continue
			}
			ix.setEdgeLocked(x, y, core.Identity, clsFrom[x]*r.Prob*clsTo[y])
		}
	}
	// Collect the matching edges of every member of the merged class, then
	// propagate each to the members that miss it. The propagated probability
	// follows the path member ~ owner ≡ partner: the identity probability
	// between the receiving member and the member that owns the matching
	// edge, times the matching probability — independent of insertion order.
	merged := sortedIDs(ix.identityClassLocked(from))
	type match struct {
		owner   uint32
		partner uint32
		prob    float64
	}
	var matches []match
	for _, member := range merged {
		for _, e := range ix.rows[member] {
			if e.typ == core.Matching {
				matches = append(matches, match{owner: member, partner: e.to, prob: e.prob})
			}
		}
	}
	for _, m := range matches {
		for _, member := range merged {
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

// sortedIDs returns the members of an identity class in ascending id order.
func sortedIDs(cls map[uint32]float64) []uint32 {
	ids := make([]uint32, 0, len(cls))
	for id := range cls {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// identityClassLocked returns the identity class of id as a map from member
// to the best path probability from id (id itself maps to 1). Identity
// classes are maintained as cliques, so direct neighbors suffice; the
// traversal is still transitive for robustness against indexes whose edges
// bypassed materialization (InsertRaw, ReadSnapshot).
//
// The traversal is hop-synchronous with frozen frontier values and requeues
// a node whenever its probability improves, running to the fixed point: the
// result is the true maximum product over all connecting paths, independent
// of iteration order. (An earlier version read the live probability of a
// frontier node and never requeued improved nodes, which made closure
// probabilities depend on iteration order — and insertion nondeterministic.)
// Termination: probabilities only increase strictly, and the achievable
// values are products over simple paths, a finite set.
func (ix *Index) identityClassLocked(id uint32) map[uint32]float64 {
	cls := map[uint32]float64{id: 1}
	frontier := map[uint32]float64{id: 1}
	for len(frontier) > 0 {
		next := map[uint32]float64{}
		for cur, curProb := range frontier {
			for _, e := range ix.rows[cur] {
				if e.typ != core.Identity {
					continue
				}
				p := curProb * e.prob
				if old, seen := cls[e.to]; !seen || p > old {
					cls[e.to] = p
					if p > next[e.to] {
						next[e.to] = p
					}
				}
			}
		}
		frontier = next
	}
	return cls
}

// setEdgeLocked installs an undirected edge between two interned ids,
// keeping the stronger of the old and new variants: identity beats
// matching, and within a type the higher probability wins. A written edge
// unions its endpoints' components, stamped with the epoch the caller bumps
// to once its edges are written.
func (ix *Index) setEdgeLocked(a, b uint32, typ core.RelType, prob float64) {
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
	} else {
		ix.edges++
	}
	ix.rows[a] = setHalfEdge(ix.rows[a], halfEdge{to: b, typ: typ, prob: prob})
	ix.rows[b] = setHalfEdge(ix.rows[b], halfEdge{to: a, typ: typ, prob: prob})
	ix.comp.unionLocked(a, b, ix.epoch.Load()+1)
}

// findHalfEdge returns the position of the half-edge to id in a row, or
// where it would go.
func findHalfEdge(row []halfEdge, to uint32) (int, bool) {
	return slices.BinarySearchFunc(row, to, func(e halfEdge, to uint32) int { return cmp.Compare(e.to, to) })
}

// setHalfEdge writes e into row, replacing the half-edge to the same target.
func setHalfEdge(row []halfEdge, e halfEdge) []halfEdge {
	i, ok := findHalfEdge(row, e.to)
	if ok {
		row[i] = e
		return row
	}
	return slices.Insert(row, i, e)
}

func (ix *Index) edgeLocked(a, b uint32) (halfEdge, bool) {
	row := ix.rows[a]
	if i, ok := findHalfEdge(row, b); ok {
		return row[i], true
	}
	return halfEdge{}, false
}

// Relation reports the stored p-relation between two global keys, if any.
func (ix *Index) Relation(a, b core.GlobalKey) (core.PRelation, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ia, okA := ix.idLocked(a)
	ib, okB := ix.idLocked(b)
	if !okA || !okB {
		return core.PRelation{}, false
	}
	e, ok := ix.edgeLocked(ia, ib)
	if !ok {
		return core.PRelation{}, false
	}
	return core.PRelation{From: a, To: b, Type: e.typ, Prob: e.prob}, true
}

// Contains reports whether a global key is present in the index.
func (ix *Index) Contains(gk core.GlobalKey) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.idLocked(gk)
	return ok
}

// RemoveObject deletes a global key and its incident edges. It implements
// the lazy-deletion policy: the augmenter calls it when a fetch reveals the
// object no longer exists. Inferred edges between the remaining nodes stay.
func (ix *Index) RemoveObject(gk core.GlobalKey) bool {
	return ix.RemoveObjectCtx(context.Background(), gk)
}

// RemoveObjectCtx is RemoveObject with the triggering request's context, so
// the journal (the WAL) can hang its durability spans inside the trace of the
// request whose fetch revealed the stale object.
func (ix *Index) RemoveObjectCtx(ctx context.Context, gk core.GlobalKey) bool {
	ix.mu.Lock()
	id, ok := ix.idLocked(gk)
	if !ok {
		ix.mu.Unlock()
		return false
	}
	for _, e := range ix.rows[id] {
		nb := ix.rows[e.to]
		i, _ := findHalfEdge(nb, id)
		copy(nb[i:], nb[i+1:])
		ix.rows[e.to] = nb[:len(nb)-1]
		ix.edges--
	}
	ix.rows[id] = nil
	ix.dead[id] = true
	ix.live--
	e := ix.epoch.Add(1)
	// gk keeps its id in the component: components never split.
	ix.comp.stamp[ix.comp.findLocked(id)] = e
	if ix.journal != nil {
		ix.journal.LogCtx(ctx, []JournalOp{{Kind: OpRemove, Key: gk}}, e)
	}
	ix.mu.Unlock()
	removals.Inc()
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

// ReachStats summarizes the work of one or more reaches: index nodes
// expanded (frontier entries processed, including the start) and adjacency
// edges scanned. The augmenter reports them on its augment.objects span.
type ReachStats struct {
	Nodes int
	Edges int
}

// Reach returns the global keys reachable from gk within level+1 hops — the
// augmentation primitive α of Definition 2: level 0 reaches the direct
// p-relations of gk, each further level expands one hop more. The starting
// key is not included. Probabilities are the maximum product over all paths
// within the hop bound; results are ordered by decreasing probability (ties
// broken by key order) as Definition 3 requires.
func (ix *Index) Reach(gk core.GlobalKey, level int) []Hit {
	hits, _ := ix.ReachWithStats(gk, level)
	return hits
}

// ReachWithStats is Reach plus a count of the traversal work performed.
func (ix *Index) ReachWithStats(gk core.GlobalKey, level int) ([]Hit, ReachStats) {
	var (
		stats ReachStats
		run   [1][]Hit
	)
	hits, _ := ix.AppendReachMany(nil, run[:0], []core.GlobalKey{gk}, level, &stats)
	return hits, stats
}

// AppendReachMany appends Reach(origins[i], level) for every origin to dst,
// and to runs the subslice of dst holding each origin's hits, and returns
// both extended. It is the one traversal entry point. Every origin is read
// under one read lock, so all runs answer over one A' state: a mutation
// lands before every origin's reach or after all of them. Each run is in
// Reach order, and its capacity is capped at its length so an append to
// one never runs into the next. A non-nil stats accumulates the traversal
// work.
func (ix *Index) AppendReachMany(dst []Hit, runs [][]Hit, origins []core.GlobalKey, level int, stats *ReachStats) ([]Hit, [][]Hit) {
	n, first := len(dst), len(runs)
	runs = slices.Grow(runs, len(origins))
	if level < 0 {
		for range origins {
			runs = append(runs, dst[n:n:n])
		}
		return dst, runs
	}
	start := telemetry.Now()
	ix.mu.RLock()
	sc := ix.getScratchLocked()
	for _, gk := range origins {
		m := len(dst)
		dst = ix.appendReachLocked(dst, sc, gk, level, stats)
		runs = append(runs, dst[m:])
	}
	ix.scratch.Put(sc)
	ix.mu.RUnlock()
	// An append may have moved dst: cut every run from its final array.
	m := n
	for i := first; i < len(runs); i++ {
		end := m + len(runs[i])
		runs[i] = dst[m:end:end]
		sortHits(runs[i])
		m = end
	}
	reachHits.Add(uint64(len(dst) - n))
	reachHist.Since(start)
	return dst, runs
}

// reachScratch is the reusable visited table of one traversal. Stamps make
// clearing O(1): an entry of mark/nmark is live only while it equals the
// current stamp, so consecutive traversals reuse the dense arrays without
// zeroing them.
type reachScratch struct {
	prob     []float64 // best path probability per node
	dist     []int32   // hop at which the node was first reached
	mark     []uint32  // visited stamp
	nmark    []uint32  // next-frontier membership stamp
	npos     []int32   // position in the next frontier, valid under nmark
	frontier []int32
	fprob    []float64
	next     []int32
	nprob    []float64
	seen     []int32 // visited nodes in discovery order (excludes the start)
	stamp    uint32
	nstamp   uint32
}

// getScratchLocked returns a pooled scratch covering every interned id. One
// pooled before keys were interned is replaced by a larger one, with a
// quarter of headroom so a stream of new keys does not replace it on every
// reach. The caller holds the read lock, so len(ix.keys) is stable, and
// puts the scratch back into ix.scratch when its traversals are done.
func (ix *Index) getScratchLocked() *reachScratch {
	n := len(ix.keys)
	sc, ok := ix.scratch.Get().(*reachScratch)
	if ok && len(sc.mark) >= n {
		return sc
	}
	if ok {
		n += n / 4
	}
	// frontier/next/seen never exceed n entries (frontier membership is
	// deduplicated per hop), so capacity n means no append ever grows them.
	return &reachScratch{
		prob:     make([]float64, n),
		dist:     make([]int32, n),
		mark:     make([]uint32, n),
		nmark:    make([]uint32, n),
		npos:     make([]int32, n),
		frontier: make([]int32, 0, n),
		fprob:    make([]float64, 0, n),
		next:     make([]int32, 0, n),
		nprob:    make([]float64, 0, n),
		seen:     make([]int32, 0, n),
	}
}

// appendReachLocked runs the hop-synchronous best-path traversal over the
// rows and appends its hits, unsorted, to dst. A node's probability is the
// best product over paths within the hop bound; it rejoins the next
// frontier whenever that improves, and keeps the hop it was first reached
// at as its distance. The caller holds the read lock, passes a scratch
// from getScratchLocked taken under it, and guarantees level >= 0.
func (ix *Index) appendReachLocked(dst []Hit, sc *reachScratch, gk core.GlobalKey, level int, stats *ReachStats) []Hit {
	origin, ok := ix.idLocked(gk)
	if !ok {
		// An unknown origin is still expanded: one node, zero edges.
		if stats != nil {
			stats.Nodes++
		}
		return dst
	}
	start := int32(origin)

	if sc.stamp == math.MaxUint32 {
		clear(sc.mark)
		sc.stamp = 0
	}
	sc.stamp++
	sc.seen = sc.seen[:0]
	sc.prob[start] = 1
	sc.dist[start] = 0
	sc.mark[start] = sc.stamp

	frontier, fprob := sc.frontier[:0], sc.fprob[:0]
	next, nprob := sc.next[:0], sc.nprob[:0]
	frontier = append(frontier, start)
	fprob = append(fprob, 1)

	maxHops := level + 1
	for hop := 1; hop <= maxHops && len(frontier) > 0; hop++ {
		if sc.nstamp == math.MaxUint32 {
			clear(sc.nmark)
			sc.nstamp = 0
		}
		sc.nstamp++
		next, nprob = next[:0], nprob[:0]
		for k, cur := range frontier {
			curProb := fprob[k]
			row := ix.rows[cur]
			if stats != nil {
				stats.Nodes++
				stats.Edges += len(row)
			}
			for _, e := range row {
				nb := int32(e.to)
				p := curProb * e.prob
				if sc.mark[nb] != sc.stamp {
					sc.mark[nb] = sc.stamp
					sc.prob[nb] = p
					sc.dist[nb] = int32(hop)
					sc.seen = append(sc.seen, nb)
				} else if p > sc.prob[nb] {
					sc.prob[nb] = p
					// dist keeps the first hop the node was seen at.
				} else {
					continue
				}
				// The node's best probability improved this hop: (re)join
				// the next frontier carrying the current best.
				if sc.nmark[nb] == sc.nstamp {
					nprob[sc.npos[nb]] = sc.prob[nb]
				} else {
					sc.nmark[nb] = sc.nstamp
					sc.npos[nb] = int32(len(next))
					next = append(next, nb)
					nprob = append(nprob, sc.prob[nb])
				}
			}
		}
		frontier, next = next, frontier
		fprob, nprob = nprob, fprob
	}
	sc.frontier, sc.fprob, sc.next, sc.nprob = frontier, fprob, next, nprob

	dst = slices.Grow(dst, len(sc.seen))
	for _, id := range sc.seen {
		dst = append(dst, Hit{Key: ix.keys[id], Prob: sc.prob[id], Dist: int(sc.dist[id])})
	}
	return dst
}

// Neighbors returns the direct p-relations of gk (its level-0 reach)
// together with their types, ordered by decreasing probability. Augmented
// exploration uses it to render clickable links.
func (ix *Index) Neighbors(gk core.GlobalKey) []core.PRelation {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.idLocked(gk)
	if !ok {
		return []core.PRelation{}
	}
	row := ix.rows[id]
	out := make([]core.PRelation, 0, len(row))
	for _, e := range row {
		out = append(out, core.PRelation{From: gk, To: ix.keys[e.to], Type: e.typ, Prob: e.prob})
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
// hand-rolled quicksort keeps Reach free of sort.Slice's reflection and
// closure allocations.
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
	out := make([]core.GlobalKey, 0, ix.live)
	for id, k := range ix.keys {
		if !ix.dead[id] {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, core.GlobalKey.Compare)
	return out
}

// Validate checks the structural invariants of the index: the id tables,
// symmetry of the adjacency, probability bounds, and the Consistency
// Condition. It is meant for tests and for integrity checks after bulk
// loads.
func (ix *Index) Validate() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if err := ix.validateTablesLocked(); err != nil {
		return err
	}
	for a, row := range ix.rows {
		for _, e := range row {
			back, ok := ix.edgeLocked(e.to, uint32(a))
			if !ok {
				return fmt.Errorf("aindex: edge %v -> %v has no reverse", ix.keys[a], ix.keys[e.to])
			}
			if back.typ != e.typ || back.prob != e.prob {
				return fmt.Errorf("aindex: asymmetric edge %v <-> %v", ix.keys[a], ix.keys[e.to])
			}
			if e.prob <= 0 || e.prob > 1 {
				return fmt.Errorf("aindex: edge %v <-> %v has probability %g", ix.keys[a], ix.keys[e.to], e.prob)
			}
		}
	}
	// Consistency Condition: o1 ≡ o2 and o2 ~ o3 imply o1 ≡ o3 (or stronger:
	// an identity between o1 and o3).
	for o2, row := range ix.rows {
		for _, e12 := range row {
			if e12.typ != core.Matching {
				continue
			}
			for _, e23 := range row {
				if e23.typ != core.Identity || e23.to == e12.to {
					continue
				}
				if _, ok := ix.edgeLocked(e12.to, e23.to); !ok {
					o1, o3 := ix.keys[e12.to], ix.keys[e23.to]
					return fmt.Errorf("aindex: consistency violation: %v ≡ %v, %v ~ %v, but no %v ≡ %v",
						o1, ix.keys[o2], ix.keys[o2], o3, o1, o3)
				}
			}
		}
	}
	return nil
}

// validateTablesLocked checks the id tables behind the rows: ids and keys
// are a bijection, the live and edge counts match the rows, tombstoned rows
// are empty, every row is sorted by target with no duplicate and no target
// that is out of range or tombstoned, and every edge lies in one component.
func (ix *Index) validateTablesLocked() error {
	n := len(ix.keys)
	if len(ix.ids) != n || len(ix.rows) != n || len(ix.dead) != n || len(ix.comp.parent) != n {
		return fmt.Errorf("aindex: id tables disagree: %d keys, %d ids, %d rows, %d tombstone flags, %d components",
			n, len(ix.ids), len(ix.rows), len(ix.dead), len(ix.comp.parent))
	}
	live, ends := 0, 0
	for id, k := range ix.keys {
		if got, ok := ix.ids[k]; !ok || got != uint32(id) {
			return fmt.Errorf("aindex: key %v has id %d, interned as %d", k, id, got)
		}
		row := ix.rows[id]
		if ix.dead[id] {
			if len(row) != 0 {
				return fmt.Errorf("aindex: removed key %v keeps %d half-edges", k, len(row))
			}
			continue
		}
		live++
		ends += len(row)
		for i, e := range row {
			switch {
			case int(e.to) >= n:
				return fmt.Errorf("aindex: %v has a half-edge to id %d of %d", k, e.to, n)
			case ix.dead[e.to]:
				return fmt.Errorf("aindex: %v has a half-edge to removed key %v", k, ix.keys[e.to])
			case e.to == uint32(id):
				return fmt.Errorf("aindex: %v has a half-edge to itself", k)
			case i > 0 && e.to == row[i-1].to:
				return fmt.Errorf("aindex: %v holds two half-edges to %v", k, ix.keys[e.to])
			case i > 0 && e.to < row[i-1].to:
				return fmt.Errorf("aindex: row of %v is not sorted by target", k)
			case ix.comp.root(uint32(id)) != ix.comp.root(e.to):
				return fmt.Errorf("aindex: %v and %v are related but not in one component", k, ix.keys[e.to])
			}
		}
	}
	if live != ix.live {
		return fmt.Errorf("aindex: %d live keys, counted %d", live, ix.live)
	}
	if ends != 2*ix.edges {
		return fmt.Errorf("aindex: %d half-edges stored, edge count %d", ends, ix.edges)
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
	for a, row := range ix.rows {
		from := ix.keys[a]
		for _, e := range row {
			if to := ix.keys[e.to]; from.Compare(to) < 0 {
				out = append(out, core.PRelation{From: from, To: to, Type: e.typ, Prob: e.prob})
			}
		}
	}
	slices.SortFunc(out, func(x, y core.PRelation) int {
		if c := x.From.Compare(y.From); c != 0 {
			return c
		}
		return x.To.Compare(y.To)
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
	ix.setEdgeLocked(ix.internLocked(r.From), ix.internLocked(r.To), r.Type, r.Prob)
	e := ix.epoch.Add(1)
	if ix.journal != nil {
		ix.journal.LogCtx(context.Background(), []JournalOp{{Kind: OpInsertRaw, Rel: r}}, e)
	}
	ix.mu.Unlock()
	return nil
}

// Clone returns a deep copy of the index. The paper's deployment gives each
// QUEPA instance "its own A' index replica"; Clone produces such replicas
// from a master index built once (by the collector or a ReadSnapshot load).
func (ix *Index) Clone() *Index {
	ix.mu.RLock()
	out := ix.copyRowsLocked(nil)
	ix.mu.RUnlock()
	return out.freeze()
}

// copyRowsLocked copies every live row whose id take accepts (every live
// row for a nil take) into a new index with the edge count the copied rows
// hold. The copy interns the taken keys in id order, so its rows stay sorted
// by target, packs them into one array and unions its components from them.
// Every target of a taken row must be taken too: take accepts whole
// components. The caller holds at least the read lock; freeze stamps the
// copy's components before it serves.
func (ix *Index) copyRowsLocked(take func(id uint32) bool) *Index {
	out := New()
	var taken []uint32
	remap := make([]uint32, len(ix.keys))
	ends := 0
	for id, k := range ix.keys {
		if ix.dead[id] || (take != nil && !take(uint32(id))) {
			continue
		}
		remap[id] = uint32(len(out.keys))
		out.keys = append(out.keys, k)
		out.ids[k] = remap[id]
		out.comp.add(0)
		taken = append(taken, uint32(id))
		ends += len(ix.rows[id])
	}
	back := make([]halfEdge, 0, ends)
	for a, id := range taken {
		lo := len(back)
		for _, e := range ix.rows[id] {
			e.to = remap[e.to]
			back = append(back, e)
			if uint32(a) < e.to {
				out.comp.unionLocked(uint32(a), e.to, 0)
			}
		}
		out.rows = append(out.rows, back[lo:len(back):len(back)])
	}
	out.dead = make([]bool, len(out.keys))
	out.live = len(out.keys)
	out.edges = ends / 2 // every edge is stored at both endpoints
	return out
}

// packLocked moves every row into one backing array: one allocation in
// place of one per row, with no spare capacity. Each row is capped at its
// length, so a later insert reallocates only that row. The caller owns the
// index exclusively, as a loader does before the index serves.
func (ix *Index) packLocked() {
	total := 0
	for _, row := range ix.rows {
		total += len(row)
	}
	back := make([]halfEdge, 0, total)
	for id, row := range ix.rows {
		lo := len(back)
		back = append(back, row...)
		ix.rows[id] = back[lo:len(back):len(back)]
	}
}

// freeze readies a loaded index to serve: every component is stamped with
// the epoch, and every id left one hop from its root.
func (ix *Index) freeze() *Index {
	ix.comp.freeze(ix.epoch.Load())
	return ix
}

// RefreshSnapshot does nothing: reaches traverse the rows themselves, so no
// second copy of the adjacency needs refreshing. It exists only because
// benchmark/stack.go calls it, like SetInvalidationHook, until the ledger
// assembles its stack through server.New.
func (ix *Index) RefreshSnapshot() {}
