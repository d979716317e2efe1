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
// The components are a union-find over the index's ids, held in three
// arrays beside the rows and guarded by the same lock:
//
//   - internLocked gives every new id a singleton component;
//   - setEdgeLocked unions a and b only when it actually writes an edge, so
//     a no-op insert (a re-promotion at the same probability) moves no
//     stamp;
//   - union by size, and the surviving root is stamped with the mutation's
//     epoch (the epoch the mutator bumps to once its edges are written) —
//     so a union moves the stamps of both former components;
//   - RemoveObject stamps the removed key's component. Components never
//     split: the tracked component is a superset of the true one, which may
//     move a stamp no reach depended on but never leaves one in place that
//     should have moved;
//   - a key without an id never had an edge and reads the global epoch,
//     which every mutation moves.
//
// Read path: Stamp takes the index read lock, walks to the root without
// writing and allocates nothing. Union by size bounds the walk at log₂ n
// hops; loaders leave every id one hop from its root and mutators compress
// the paths they walk, so a reader's walk is one or two hops in practice.
package aindex

import "quepa/internal/core"

// components is the union-find behind Stamp, addressed by id: parent[id] is
// id at a root, and a root's size and stamp are its component's.
type components struct {
	parent []uint32
	size   []uint32
	stamp  []uint64
	// count is the number of components holding an edge (a singleton holds
	// none), maxKeys the key count of the largest.
	count   int
	maxKeys int
}

// add appends a singleton component for the next id, stamped e.
func (c *components) add(e uint64) {
	c.parent = append(c.parent, uint32(len(c.parent)))
	c.size = append(c.size, 1)
	c.stamp = append(c.stamp, e)
}

// root returns id's root without writing, for readers.
func (c *components) root(id uint32) uint32 {
	for c.parent[id] != id {
		id = c.parent[id]
	}
	return id
}

// findLocked is root for mutators: it also points every id on the walk
// straight at the root.
func (c *components) findLocked(id uint32) uint32 {
	r := c.root(id)
	for id != r {
		id, c.parent[id] = c.parent[id], r
	}
	return r
}

// unionLocked joins the components of a and b and stamps the result e.
func (c *components) unionLocked(a, b uint32, e uint64) {
	ra, rb := c.findLocked(a), c.findLocked(b)
	if ra != rb {
		if c.size[ra] < c.size[rb] {
			ra, rb = rb, ra
		}
		switch {
		case c.size[ra] > 1 && c.size[rb] > 1:
			c.count--
		case c.size[ra] == 1 && c.size[rb] == 1:
			c.count++
		}
		c.size[ra] += c.size[rb]
		c.parent[rb] = ra
		c.maxKeys = max(c.maxKeys, int(c.size[ra]))
	}
	c.stamp[ra] = e
}

// freeze leaves every id one hop from its root and stamps every component
// e. Loaders call it once the rows are written, before the index serves.
func (c *components) freeze(e uint64) {
	for id := range c.parent {
		if c.findLocked(uint32(id)) == uint32(id) {
			c.stamp[id] = e
		}
	}
}

// Stamp returns the epoch of the last mutation that changed an edge in gk's
// connected component — the global epoch for a key that never had an edge.
// If it reads the same value twice, no Reach(gk, L) changed in between. The
// augmenter stamps its cached reach results and outcomes with it, so a
// mutation invalidates only its own island. It takes the index read lock
// and allocates nothing. A caller must not hold the index lock itself: a
// nested read lock deadlocks against a waiting writer.
func (ix *Index) Stamp(gk core.GlobalKey) uint64 {
	ix.mu.RLock()
	id, ok := ix.ids[gk]
	var s uint64
	if ok {
		s = ix.comp.stamp[ix.comp.root(id)]
	} else {
		s = ix.epoch.Load()
	}
	ix.mu.RUnlock()
	return s
}

// Components reports how many connected components holding an edge the
// index tracks and how many keys the largest holds. Components never split,
// so after lazy deletions both describe a coarsening of the live graph. One
// giant component means per-component stamps buy nothing.
func (ix *Index) Components() (count, maxKeys int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.comp.count, ix.comp.maxKeys
}

// Islands returns a copy of every connected component that holds a key keep
// accepts. A cluster peer's shard is Islands(owned by the peer): the owner
// of an origin then holds the origin's whole island and answers any reach
// from it with one local traversal.
//
// Rows are copied wholesale, as Clone copies them, with the copy's
// components unioned from its rows. Reach(gk, L)
// only follows edges of gk's component, and the copy holds all of them with
// the same rows, so for every key of the copy its hits, probabilities,
// distances and ReachStats equal this index's bitwise.
//
// The tracked components never split, so after lazy deletions a carved
// component may be the union of several true ones: the carve is
// conservative, never short.
func (ix *Index) Islands(keep func(core.GlobalKey) bool) *Index {
	ix.mu.RLock()
	kept := make([]bool, len(ix.keys))
	for id, k := range ix.keys {
		if !ix.dead[id] && keep(k) {
			kept[ix.comp.root(uint32(id))] = true
		}
	}
	out := ix.copyRowsLocked(func(id uint32) bool { return kept[ix.comp.root(id)] })
	ix.mu.RUnlock()
	return out.freeze()
}
