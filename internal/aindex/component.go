// Component stamps: the unit of result-cache invalidation.
//
// A' changes while serving only on one island at a time: a promotion adds
// a shortcut between two keys of the walked path, a lazy deletion removes
// one key, and both leave every other connected component exactly as it
// was. Stamp(gk) exposes that locality. It returns the epoch of the last
// mutation that changed an edge of gk's component, so a cache that stamps
// an entry for gk with Stamp(gk) loses only that island's entries to a
// mutation instead of all of them.
//
// Contract: if Stamp(gk) reads the same value at two instants, no
// Reach(gk, L) changed in between, for any L. Only edges of gk's component
// can change a reach from gk, and every mutation that writes one moves the
// component's stamp.
//
// The components are a union-find over global keys, kept beside the rows:
//
//   - setEdgeLocked queues a union of a and b only when it actually writes an
//     edge, so a no-op insert (a re-promotion at the same probability) moves
//     no stamp;
//   - union by size, and the surviving root is stamped with the mutation's
//     epoch — so a union moves the stamps of both former components;
//   - RemoveObject stamps the removed key's component. Components never
//     split: the tracked component is a superset of the true one, which may
//     move a stamp no reach depended on but never leaves one in place that
//     should have moved;
//   - a key that never had an edge has no cell and reads the global epoch,
//     which every mutation moves.
//
// Read path: zero allocations and no lock a mutator holds across more than
// O(1) work. The cells sit in 64 map shards, each under its
// own RWMutex, and a shard is written only when a key gets its first edge.
// Cells hold an atomic parent pointer and an atomic stamp. Union by size
// bounds the parent walk at log₂ n hops, and mutators compress the paths
// they walk, so a reader's walk is one or two hops in practice.
package aindex

import (
	"sync"
	"sync/atomic"

	"quepa/internal/core"
)

const componentShards = 64

// compCell is one key's union-find node. parent is nil at a root; a root's
// stamp is its component's. size is only read and written by mutators.
type compCell struct {
	parent atomic.Pointer[compCell]
	stamp  atomic.Uint64
	size   int
}

type compShard struct {
	mu    sync.RWMutex
	cells map[core.GlobalKey]*compCell
}

// components is the union-find behind Stamp. Mutators serialize on the
// index write lock (or own the index exclusively); readers take only a
// shard's read lock, for one map probe.
type components struct {
	shards [componentShards]compShard
	// pending are the edges written since the last publish; see publish.
	pending [][2]core.GlobalKey
	// Writer-maintained series: the component count and the largest
	// component's key count.
	count   atomic.Int64
	maxKeys atomic.Int64
}

func newComponents() *components {
	c := &components{}
	for i := range c.shards {
		c.shards[i].cells = map[core.GlobalKey]*compCell{}
	}
	return c
}

// shard places gk on its shard.
func (c *components) shard(gk core.GlobalKey) *compShard {
	return &c.shards[gk.Hash()%componentShards]
}

// lookup returns gk's cell, or nil if gk never had an edge.
func (c *components) lookup(gk core.GlobalKey) *compCell {
	sh := c.shard(gk)
	sh.mu.RLock()
	cell := sh.cells[gk]
	sh.mu.RUnlock()
	return cell
}

func root(cell *compCell) *compCell {
	for {
		p := cell.parent.Load()
		if p == nil {
			return cell
		}
		cell = p
	}
}

// rootLocked is root for mutators: it also points every cell on the walk
// straight at the root. A reader racing it follows either the old parent or
// the root, both in the same component, so it reads the same stamp.
func rootLocked(cell *compCell) *compCell {
	r := root(cell)
	for cell != r {
		next := cell.parent.Load()
		cell.parent.Store(r)
		cell = next
	}
	return r
}

// cellLocked returns gk's cell, creating a singleton component stamped e
// for a key's first edge. Only mutators call it, and they are serialized,
// so the unlocked probe races no map write.
func (c *components) cellLocked(gk core.GlobalKey, e uint64) *compCell {
	sh := c.shard(gk)
	if cell := sh.cells[gk]; cell != nil {
		return cell
	}
	cell := &compCell{size: 1}
	cell.stamp.Store(e)
	sh.mu.Lock()
	sh.cells[gk] = cell
	sh.mu.Unlock()
	c.count.Add(1)
	if c.maxKeys.Load() < 1 {
		c.maxKeys.Store(1)
	}
	return cell
}

// unionLocked joins the components of a and b and stamps the result e.
// The survivor is stamped before the other root links under it, so a reader
// walking from the absorbed side sees its old stamp or e, never the
// survivor's old one.
func (c *components) unionLocked(a, b core.GlobalKey, e uint64) {
	ra, rb := rootLocked(c.cellLocked(a, e)), rootLocked(c.cellLocked(b, e))
	if ra == rb {
		ra.stamp.Store(e)
		return
	}
	if ra.size < rb.size {
		ra, rb = rb, ra
	}
	ra.size += rb.size
	ra.stamp.Store(e)
	rb.parent.Store(ra)
	c.count.Add(-1)
	if int64(ra.size) > c.maxKeys.Load() {
		c.maxKeys.Store(int64(ra.size))
	}
}

// publish applies the queued unions with stamp e. Mutators call it after
// epoch.Add, inside the write lock: a reader that sees a new stamp must also
// see the mutation's rows, or it would cache pre-mutation hits under the
// post-mutation stamp. A reach takes the read lock, which the mutator
// releases only after publishing.
func (c *components) publish(e uint64) {
	for _, p := range c.pending {
		c.unionLocked(p[0], p[1], e)
	}
	clear(c.pending)
	c.pending = c.pending[:0]
}

// rebuild recreates the cells from wholesale-written rows, every component
// stamped e, and leaves every cell one hop from its root. Loaders that fill
// the rows directly (BulkLoadWorkers' merge, Clone, ReadSnapshot) call it in
// the same pass, before the index serves.
func (c *components) rebuild(keys []core.GlobalKey, rows [][]halfEdge, e uint64) {
	for a, row := range rows {
		for _, he := range row {
			if uint32(a) < he.to {
				c.unionLocked(keys[a], keys[he.to], e)
			}
		}
	}
	for i := range c.shards {
		for _, cell := range c.shards[i].cells {
			rootLocked(cell)
		}
	}
}

// Stamp returns the epoch of the last mutation that changed an edge in gk's
// connected component — the global epoch for a key that never had an edge.
// If it reads the same value twice, no Reach(gk, L) changed in between. The
// augmenter stamps its cached reach results and outcomes with it, so a
// mutation invalidates only its own island. Lock-free apart from one shard
// read lock that writers hold for a single map insert; no allocation.
func (ix *Index) Stamp(gk core.GlobalKey) uint64 {
	cell := ix.comp.lookup(gk)
	if cell == nil {
		return ix.epoch.Load()
	}
	return root(cell).stamp.Load()
}

// Components reports how many connected components the index tracks and how
// many keys the largest holds. Components never split, so after lazy
// deletions both describe a coarsening of the live graph. One giant
// component means per-component stamps buy nothing.
func (ix *Index) Components() (count, maxKeys int) {
	return int(ix.comp.count.Load()), int(ix.comp.maxKeys.Load())
}

// rootOf returns the root of gk's tracked component, or nil for a key that
// never had an edge. The caller holds the index lock, so no union is half
// applied.
func (c *components) rootOf(gk core.GlobalKey) *compCell {
	if cell := c.lookup(gk); cell != nil {
		return root(cell)
	}
	return nil
}

// Islands returns a copy of every connected component that holds a key keep
// accepts. A cluster peer's shard is Islands(owned by the peer): the owner
// of an origin then holds the origin's whole island and answers any reach
// from it with one local traversal.
//
// Rows are copied wholesale, as Clone copies them, and the copy's
// components are rebuilt before it is returned. Reach(gk, L)
// only follows edges of gk's component, and the copy holds all of them with
// the same rows, so for every key of the copy its hits, probabilities,
// distances and ReachStats equal this index's bitwise.
//
// The tracked components never split, so after lazy deletions a carved
// component may be the union of several true ones: the carve is
// conservative, never short.
func (ix *Index) Islands(keep func(core.GlobalKey) bool) *Index {
	ix.mu.RLock()
	kept := map[*compCell]bool{}
	for id, k := range ix.keys {
		if !ix.dead[id] && keep(k) {
			kept[ix.comp.rootOf(k)] = true
		}
	}
	out := ix.copyRowsLocked(func(k core.GlobalKey) bool { return kept[ix.comp.rootOf(k)] })
	ix.mu.RUnlock()
	return out.freeze()
}
