// Mutation journal hook.
//
// The durability subsystem (internal/wal) needs to observe every mutation of
// the A' index — explicit inserts, path promotions, lazy deletions triggered
// by the augmenter — in exactly the order they were applied, because crash
// recovery replays the journal and the result must be byte-identical to the
// pre-crash index. Rather than threading a log through every caller, the
// index itself exposes a Journal: mutators invoke it inside their write
// critical section, so the journal order IS the application order, and the
// epoch passed along is the one the mutation produced — the WAL's batch
// fences align with the index's epochs by construction.
package aindex

import (
	"context"

	"quepa/internal/core"
)

// OpKind discriminates journal operations.
type OpKind uint8

const (
	// OpInsert is a full Insert: replay materializes the consistency-
	// condition closure again, which is deterministic, so logging the logical
	// relation suffices.
	OpInsert OpKind = iota + 1
	// OpInsertRaw installs a relation verbatim (closure already materialized
	// by the writer — snapshot loads, the ablation's raw index).
	OpInsertRaw
	// OpRemove deletes a global key and its incident edges.
	OpRemove
)

// JournalOp is one logged index mutation. Inserts carry Rel; removes carry
// Key.
type JournalOp struct {
	Kind OpKind
	Rel  core.PRelation
	Key  core.GlobalKey
}

// Journal observes index mutations. LogCtx is invoked while the index write
// lock is held, with the mutating request's context, the operations of one
// atomic mutation and the mutation epoch after applying it; epochs are
// therefore strictly increasing across calls. The WAL manager uses ctx to
// attach its append/fsync spans to the trace of the request that paid for
// the durability work; mutations arriving through ctx-less entry points pass
// context.Background(). Implementations must be fast, must not call back
// into the index, and must not retain the ops slice.
type Journal interface {
	LogCtx(ctx context.Context, ops []JournalOp, epoch uint64)
}

// SetJournal installs (or, with nil, removes) the mutation journal. Existing
// state is not replayed: callers snapshot the index first (checkpoint) and
// journal only what changes afterwards.
func (ix *Index) SetJournal(j Journal) {
	ix.mu.Lock()
	ix.journal = j
	ix.mu.Unlock()
}

// Epoch returns the current mutation epoch: every mutation bumps it. WAL
// fences and checkpoints read it; the augmenter's result cache reads the
// finer Stamp, which moves only for the component a mutation touched.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// SetInvalidationHook does nothing. No mutation needs an explicit flush of a
// derived cache: every one moves the epoch and the stamp of the component it
// touched, and entries stamped with either stop validating at once. It exists
// only because benchmark/stack.go calls it, like cluster.RoutePolystore, until
// the ledger assembles its stack through server.New.
func (ix *Index) SetInvalidationHook(func()) {}

// EdgesWithEpoch returns the canonical edge list together with the mutation
// epoch it corresponds to, read atomically under the lock. Checkpoints use
// it to stamp a snapshot with the exact epoch fence that separates the edges
// already inside it from the journal batches that still need replaying.
func (ix *Index) EdgesWithEpoch() ([]core.PRelation, uint64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.edgesLocked(), ix.epoch.Load()
}

// AdvanceEpoch moves the mutation epoch forward to at least e. Crash
// recovery calls it after replaying the journal tail, so that post-recovery
// mutations produce epochs strictly greater than anything already fenced in
// the log. Moving the epoch backwards is refused.
func (ix *Index) AdvanceEpoch(e uint64) {
	ix.mu.Lock()
	if ix.epoch.Load() < e {
		ix.epoch.Store(e)
	}
	ix.mu.Unlock()
}
