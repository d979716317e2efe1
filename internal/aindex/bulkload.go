// Offline bulk construction of the A' index.
//
// Insert materializes the consistency-condition closure of each relation
// under the global write lock, so building an index from N collector
// relations costs N lock acquisitions with closure work serialized inside
// each. BulkLoad computes the same closure offline: relations are grouped
// into connected components (closure never crosses a component — both the
// identity-clique merge and matching propagation only touch keys already
// connected to the inserted relation), each component is replayed into a
// private unshared shard by a pool of workers, and the finished rows are
// re-interned into the result index before it serves.
//
// Replaying a component in input order performs exactly the multiplications
// and max-comparisons the sequential Insert loop performs for that
// component's relations — operations on disjoint components commute because
// they share no state — so the loaded index is byte-identical to one built
// by N sequential Inserts (TestBulkLoadMatchesSequential pins this).
package aindex

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"quepa/internal/core"
)

// BulkLoad builds a fresh index from a relation set, materializing the
// consistency-condition closure offline with GOMAXPROCS workers. The result
// is identical to inserting the relations in order with Insert, with its
// rows packed into one array.
func BulkLoad(rels []core.PRelation) (*Index, error) {
	return BulkLoadWorkers(rels, 0)
}

// BulkLoadWorkers is BulkLoad with an explicit worker count (0 selects
// GOMAXPROCS). The worker count never affects the result, only the wall
// time.
func BulkLoadWorkers(rels []core.PRelation, workers int) (*Index, error) {
	for i := range rels {
		if err := rels[i].Validate(); err != nil {
			return nil, fmt.Errorf("aindex: bulk load relation %d: %w", i, err)
		}
	}

	// Union-find over the relation endpoints. Matching relations join their
	// endpoints too: inserting a matching edge reads the identity classes of
	// both sides, so a component's closure depends on every relation whose
	// endpoints connect to it, identity or matching.
	parent := make(map[core.GlobalKey]core.GlobalKey)
	var find func(core.GlobalKey) core.GlobalKey
	find = func(k core.GlobalKey) core.GlobalKey {
		p, ok := parent[k]
		if !ok || p == k {
			if !ok {
				parent[k] = k
			}
			return k
		}
		root := find(p)
		parent[k] = root
		return root
	}
	for _, r := range rels {
		ra, rb := find(r.From), find(r.To)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Partition the relations by component, as positions in rels, preserving
	// input order within each: that order is what makes the per-component
	// replay literally the sequential replay restricted to the component.
	groups := make(map[core.GlobalKey][]int32)
	var roots []core.GlobalKey
	for i, r := range rels {
		root := find(r.From)
		if _, ok := groups[root]; !ok {
			roots = append(roots, root)
		}
		groups[root] = append(groups[root], int32(i))
	}

	out := New()
	if len(roots) == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(roots) {
		workers = len(roots)
	}

	// Workers claim whole components off a shared cursor and replay them
	// into a private shard index — unshared, so insertLocked needs no lock.
	// Shards touch disjoint key sets, so the merge appends each shard's id
	// table to the result's and shifts its rows' targets by the offset.
	shards := make([]*Index, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := New()
			shard.comp = nil // the merge rebuilds the cells from the rows
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(roots) {
					break
				}
				for _, j := range groups[roots[i]] {
					shard.insertLocked(rels[j])
				}
			}
			shards[w] = shard
		}(w)
	}
	wg.Wait()

	// Size the result's tables once: appending would leave each outgrown
	// array to the collector, at the point of a load where the heap peaks.
	n := 0
	for _, shard := range shards {
		n += len(shard.keys)
	}
	out.keys = make([]core.GlobalKey, 0, n)
	out.ids = make(map[core.GlobalKey]uint32, n)
	out.rows = make([][]halfEdge, 0, n)
	out.dead = make([]bool, 0, n)
	for _, shard := range shards {
		offset := uint32(len(out.keys))
		for id, k := range shard.keys {
			out.ids[k] = offset + uint32(id)
		}
		for _, row := range shard.rows {
			for i := range row {
				row[i].to += offset
			}
		}
		out.keys = append(out.keys, shard.keys...)
		out.rows = append(out.rows, shard.rows...)
		out.dead = append(out.dead, shard.dead...)
		out.live += shard.live
		out.edges += shard.edges
	}
	out.packLocked()
	out.epoch.Add(1)
	return out.freeze(), nil
}
