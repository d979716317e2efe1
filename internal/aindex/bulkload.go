// Offline construction of the A' index.
//
// BulkLoad replays the relations through the same closure Insert runs, in
// order, into an index no reader can see yet: no lock is taken per
// relation, the epoch moves once, and the rows are packed into one array
// before the index serves. The loaded index is the one N sequential
// Inserts build (TestBulkLoadMatchesSequential pins this).
package aindex

import (
	"fmt"

	"quepa/internal/core"
)

// BulkLoad builds a fresh index from a relation set. The result is
// identical to inserting the relations in order with Insert, with its rows
// packed into one array and its epoch at 1.
func BulkLoad(rels []core.PRelation) (*Index, error) {
	for i := range rels {
		if err := rels[i].Validate(); err != nil {
			return nil, fmt.Errorf("aindex: bulk load relation %d: %w", i, err)
		}
	}
	ix := New()
	for _, r := range rels {
		ix.insertLocked(r)
	}
	ix.packLocked()
	ix.epoch.Add(1)
	return ix.freeze(), nil
}
