// Read-optimized reachability snapshots.
//
// The mutable Index guards its id-addressed rows with an RWMutex, and the
// original Reach retook that lock and allocated per-hop maps on every call.
// This file freezes the rows into a compressed-sparse-row (CSR) view — the
// index's own ids, one offsets slice, neighbor/probability columns sorted
// within each row — stamped with the mutation epoch it was built from.
// Readers load the snapshot through an atomic pointer and traverse it
// lock-free with a pooled, stamp-cleared visited table; the only allocation
// on the fast path is the result slice.
//
// Mutations (Insert, InsertRaw, RemoveObject) bump the epoch inside their
// critical section, which makes the current snapshot stale: Reach then falls
// back to the locked traversal — so lazy deletions take effect
// immediately — and a single background goroutine refreshes the snapshot
// after a bounded debounce, coalescing mutation bursts into one refresh.
//
// A refresh is incremental when it can be: mutators record which adjacency
// rows they changed, and as long as the key set is the installed snapshot's,
// the successor shares its id tables and scratch pool, block-copies the
// clean row ranges and re-reads only the dirty rows (patch). A key-set
// change (a new key, a tombstone or a revived one), a loader that wrote the
// rows directly, or a dirty set past maxDirtyRows takes the full build.
package aindex

import (
	"math"
	"slices"
	"sync"
	"time"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// Snapshot-path instrumentation handles, resolved once.
var (
	snapshotRebuilds = telemetry.NewCounter("quepa_aindex_snapshot_rebuilds_total",
		"CSR reachability snapshots installed after index mutations (full builds and patches)")
	snapshotPatches = telemetry.NewCounter("quepa_aindex_snapshot_patches_total",
		"CSR reachability snapshots installed by patching the dirty rows of their predecessor")
	reachSnapshot = telemetry.NewCounter("quepa_aindex_reach_snapshot_total",
		"reachability lookups served lock-free from the CSR snapshot")
	reachFallback = telemetry.NewCounter("quepa_aindex_reach_fallback_total",
		"reachability lookups served by the locked traversal (snapshot stale)")

	snapshotFullSeconds  = snapshotBuildSeconds("full")
	snapshotPatchSeconds = snapshotBuildSeconds("patch")
)

func snapshotBuildSeconds(kind string) *telemetry.Histogram {
	return telemetry.NewHistogram("quepa_aindex_snapshot_build_seconds",
		"time to build one CSR reachability snapshot, read lock held throughout", nil, telemetry.L("kind", kind))
}

// defaultRebuildDebounce bounds how long a mutated index keeps serving
// fallback traversals before the asynchronous rebuild freezes a fresh
// snapshot. Long enough to coalesce a burst of inserts or lazy deletions
// into one rebuild, short enough that read traffic is back on the lock-free
// path almost immediately.
const defaultRebuildDebounce = 2 * time.Millisecond

// maxDirtyRows caps the dirty set a patch will take; past it the next
// refresh is a full build and mutators stop recording rows. At 52,847 keys /
// 110,635 relations a patch costs one flat copy of the CSR columns (2.9 MB,
// 1-2 ms) plus ~2 µs per dirty row, so at the cap it is ~12 ms against ~115 ms
// for the full build (BenchmarkSnapshotPatch/4096 vs BenchmarkSnapshotFull):
// the cap bounds the dirty set's memory under a bulk mutator, it is not where
// patching stops paying off.
const maxDirtyRows = 4096

// fullRebuildStaleness is how many multiples of the last full build's
// duration an index under continuous mutation may stay stale before the
// rebuild loop stops waiting for a quiet debounce window. A full build holds
// the read lock, so a bulk mutator loses at most 1/(1+8) of its wall time to
// rebuilds it invalidates at once: workload.Build at scale 16 (110k single
// Inserts) took 4.2-4.8 s and 80-88 full builds when every debounce window
// started one, 0.6-0.9 s with the loop silenced, and takes 0.8-1.0 s and 4-7
// full builds at this setting.
const fullRebuildStaleness = 8

// snapshot is a frozen CSR view of the adjacency at one mutation epoch.
// Every field is immutable after construction; readers share the snapshot
// through Index.snap with no synchronization beyond the atomic load. Node
// ids are the index's: a row of the CSR is the row of the same id.
type snapshot struct {
	epoch uint64
	// ids finds the id of each live key. It is the snapshot's own table —
	// mutators write the index's — and holds no pointer.
	ids idTable
	// keys maps ids to keys. The index's table only grows and never
	// rewrites an entry, so the snapshot shares its prefix.
	keys  []core.GlobalKey
	nodes int       // live keys
	off   []int32   // CSR row offsets, len(keys)+1
	nbr   []int32   // neighbor ids, sorted within each row
	prob  []float64 // edge probabilities, parallel to nbr
	// pool holds *reachScratch sized by len(keys). Patched successors share
	// it along with ids and keys: node ids mean the same across them.
	pool *sync.Pool
}

// buildSnapshot freezes the rows into CSR form. The caller must hold at
// least the index read lock so the rows and the epoch are a consistent pair.
func buildSnapshot(ix *Index, epoch uint64) *snapshot {
	n := len(ix.keys)
	s := &snapshot{
		epoch: epoch,
		ids:   newIDTable(ix.keys, ix.dead, ix.live),
		keys:  ix.keys[:n:n],
		nodes: ix.live,
		off:   make([]int32, n+1),
		nbr:   make([]int32, 0, 2*ix.edges),
		prob:  make([]float64, 0, 2*ix.edges),
		pool:  new(sync.Pool),
	}
	for id, row := range ix.rows {
		for _, e := range row {
			s.nbr = append(s.nbr, int32(e.to))
			s.prob = append(s.prob, e.prob)
		}
		s.off[id+1] = int32(len(s.nbr))
	}
	return s
}

// idTable maps the live keys of a snapshot to their ids: an immutable
// open-addressing table probed linearly from the key's hash, each slot the
// id plus one (zero is empty). It compares against the snapshot's keys, so
// unlike a map from key to id it holds no pointer for the collector to
// scan.
type idTable []uint32

// newIDTable indexes the live keys of an index's tables at load <= 1/2.
func newIDTable(keys []core.GlobalKey, dead []bool, live int) idTable {
	size := 1
	for size < 2*live {
		size <<= 1
	}
	t := make(idTable, size)
	mask := uint32(size - 1)
	for id, k := range keys {
		if dead[id] {
			continue
		}
		i := k.Hash() & mask
		for t[i] != 0 {
			i = (i + 1) & mask
		}
		t[i] = uint32(id) + 1
	}
	return t
}

// lookup returns the id of gk, if gk is a live key of the table.
func (t idTable) lookup(keys []core.GlobalKey, gk core.GlobalKey) (uint32, bool) {
	mask := uint32(len(t) - 1)
	for i := gk.Hash() & mask; t[i] != 0; i = (i + 1) & mask {
		if id := t[i] - 1; keys[id] == gk {
			return id, true
		}
	}
	return 0, false
}

// patch builds the successor of s over the same key set: rows outside
// ix.dirty are block-copied, dirty rows are re-read from ix.rows. The result
// equals buildSnapshot(ix, epoch) field for field
// (TestSnapshotPatchMatchesFull). The caller holds the index read lock and
// guarantees that the key set is s's and every row that differs from s is
// in ix.dirty.
//
// With nothing dirty — a mutation that changed no edge, such as a
// re-promotion at the same probability, still bumps the epoch — the
// successor shares every column and only restamps the epoch.
func (s *snapshot) patch(ix *Index, epoch uint64) *snapshot {
	if len(ix.dirty) == 0 {
		out := *s
		out.epoch = epoch
		return &out
	}
	rows := make([]int32, 0, len(ix.dirty))
	total := len(s.nbr)
	for id := range ix.dirty {
		rows = append(rows, int32(id))
		total += len(ix.rows[id]) - int(s.off[id+1]-s.off[id])
	}
	slices.Sort(rows)

	out := &snapshot{
		epoch: epoch,
		ids:   s.ids,
		keys:  s.keys,
		nodes: s.nodes,
		off:   make([]int32, len(s.off)),
		nbr:   make([]int32, total),
		prob:  make([]float64, total),
		pool:  s.pool,
	}
	// copyClean carries rows [from, to) over unchanged, shifted by the
	// length changes of the dirty rows before them.
	copyClean := func(from, to int32, at int) int {
		lo, hi := s.off[from], s.off[to]
		copy(out.nbr[at:], s.nbr[lo:hi])
		copy(out.prob[at:], s.prob[lo:hi])
		shift := int32(at) - lo
		for i := from; i < to; i++ {
			out.off[i] = s.off[i] + shift
		}
		return at + int(hi-lo)
	}
	next, at := int32(0), 0
	for _, id := range rows {
		at = copyClean(next, id, at)
		out.off[id] = int32(at)
		for _, e := range ix.rows[id] {
			out.nbr[at] = int32(e.to)
			out.prob[at] = e.prob
			at++
		}
		next = id + 1
	}
	at = copyClean(next, int32(len(s.keys)), at)
	out.off[len(s.keys)] = int32(at)
	return out
}

// reachScratch is the reusable visited table of one snapshot traversal.
// Stamps make clearing O(1): an entry of mark/nmark is live only while it
// equals the current stamp, so consecutive traversals reuse the dense
// arrays without zeroing them.
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

func (s *snapshot) getScratch() *reachScratch {
	if sc, ok := s.pool.Get().(*reachScratch); ok {
		return sc
	}
	n := len(s.keys)
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

// reach is appendReach into a fresh slice.
func (s *snapshot) reach(gk core.GlobalKey, level int, stats *ReachStats) []Hit {
	return s.appendReach(nil, gk, level, stats)
}

// appendReach runs the hop-synchronous best-path traversal over the frozen
// CSR rows and appends its hits, sorted, to dst. It mirrors
// Index.reachLocked operation for operation — same hop bound, same
// strict-improvement rule, same first-hop distance — so a query answered
// from the snapshot is indistinguishable from one answered under the lock.
// The caller guarantees level >= 0.
func (s *snapshot) appendReach(dst []Hit, gk core.GlobalKey, level int, stats *ReachStats) []Hit {
	origin, ok := s.ids.lookup(s.keys, gk)
	if !ok {
		// The locked traversal still expands the unknown origin (one node,
		// zero edges); keep the accounting identical.
		if stats != nil {
			stats.Nodes++
		}
		return dst
	}
	start := int32(origin)
	sc := s.getScratch()

	if sc.stamp == math.MaxUint32 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
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
			for i := range sc.nmark {
				sc.nmark[i] = 0
			}
			sc.nstamp = 0
		}
		sc.nstamp++
		next, nprob = next[:0], nprob[:0]
		for k, cur := range frontier {
			curProb := fprob[k]
			lo, hi := s.off[cur], s.off[cur+1]
			if stats != nil {
				stats.Nodes++
				stats.Edges += int(hi - lo)
			}
			for e := lo; e < hi; e++ {
				nb := s.nbr[e]
				p := curProb * s.prob[e]
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

	n := len(dst)
	dst = slices.Grow(dst, len(sc.seen))
	for _, id := range sc.seen {
		dst = append(dst, Hit{Key: s.keys[id], Prob: sc.prob[id], Dist: int(sc.dist[id])})
	}
	s.pool.Put(sc)
	sortHits(dst[n:])
	return dst
}

// SnapshotInfo reports the state of the read-optimized snapshot for
// diagnostics and tests: whether it is current with the mutation epoch,
// its size, how many snapshots this index has installed (Rebuilds), how many
// of those were patches, and what the latest one took to build.
type SnapshotInfo struct {
	Fresh       bool    `json:"fresh"`
	Epoch       uint64  `json:"epoch"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	Rebuilds    uint64  `json:"rebuilds"`
	Patches     uint64  `json:"patches"`
	LastBuildMs float64 `json:"last_build_ms"`
}

// SnapshotInfo returns the current snapshot diagnostics.
func (ix *Index) SnapshotInfo() SnapshotInfo {
	info := SnapshotInfo{
		Rebuilds:    ix.rebuilds.Load(),
		Patches:     ix.patches.Load(),
		LastBuildMs: float64(ix.lastBuildNanos.Load()) / 1e6,
	}
	if s := ix.snap.Load(); s != nil {
		info.Epoch = s.epoch
		info.Nodes = s.nodes
		info.Edges = len(s.nbr) / 2
		info.Fresh = s.epoch == ix.epoch.Load()
	}
	return info
}

// markRowDirtyLocked records that the row of id no longer matches the
// installed snapshot. The caller holds the write lock.
func (ix *Index) markRowDirtyLocked(id uint32) {
	if ix.needFull.Load() {
		return
	}
	ix.dirty[id] = struct{}{}
	if len(ix.dirty) > maxDirtyRows {
		ix.markAllDirtyLocked()
	}
}

// markAllDirtyLocked sends the next refresh down the full build: the key set
// changed, the rows were written wholesale, or the dirty set overflowed.
// The caller holds the write lock or owns the index exclusively.
func (ix *Index) markAllDirtyLocked() {
	ix.needFull.Store(true)
	clear(ix.dirty)
}

// RefreshSnapshot synchronously freezes a fresh CSR snapshot from the
// current rows — by patching the installed one when only recorded rows
// changed, by a full build otherwise. Bulk loaders call it once after
// installing everything; the asynchronous rebuild loop calls it after the
// debounce. Concurrent readers keep using the previous snapshot (or the
// locked fallback) until the atomic store lands.
func (ix *Index) RefreshSnapshot() {
	ix.mu.RLock()
	// Mutators are excluded by the read lock; snapMu orders concurrent
	// refreshers, which both consume the dirty set and install against it.
	ix.snapMu.Lock()
	start := time.Now()
	epoch := ix.epoch.Load() // under the lock: no mutator between this and the row read
	base := ix.snap.Load()
	full := base == nil || ix.needFull.Load()
	var s *snapshot
	if full {
		s = buildSnapshot(ix, epoch)
	} else {
		s = base.patch(ix, epoch)
	}
	took := time.Since(start)
	clear(ix.dirty)
	ix.needFull.Store(false)
	ix.snap.Store(s)
	ix.snapMu.Unlock()
	ix.mu.RUnlock()

	ix.lastBuildNanos.Store(int64(took))
	ix.rebuilds.Add(1)
	snapshotRebuilds.Inc()
	if full {
		ix.lastFullNanos.Store(int64(took))
		snapshotFullSeconds.Observe(took)
	} else {
		ix.patches.Add(1)
		snapshotPatches.Inc()
		snapshotPatchSeconds.Observe(took)
	}
}

// SetRebuildDebounce overrides the delay between a mutation and the
// asynchronous snapshot rebuild. d <= 0 restores the default. Tests use
// tiny values to force rebuild churn under load.
func (ix *Index) SetRebuildDebounce(d time.Duration) {
	ix.debounce.Store(int64(d))
}

func (ix *Index) rebuildDebounce() time.Duration {
	if d := ix.debounce.Load(); d > 0 {
		return time.Duration(d)
	}
	return defaultRebuildDebounce
}

// scheduleRebuild makes sure an asynchronous rebuild is on its way by
// starting the single rebuild goroutine unless it is already working.
// Callers made the snapshot stale (mutators, after releasing the write lock)
// or just saw it stale (the fallback read path).
func (ix *Index) scheduleRebuild() {
	ix.rebuildMu.Lock()
	running := ix.rebuildRunning
	ix.rebuildRunning = true
	ix.rebuildMu.Unlock()
	if !running {
		go ix.rebuildLoop()
	}
}

// rebuildLoop waits out the debounce (coalescing a burst of mutations into
// one refresh), freezes a fresh snapshot, and exits once the snapshot has
// caught up with the mutation epoch. No wakeup is lost: a mutator bumps the
// epoch before it calls scheduleRebuild, so either the staleness check below
// sees the bump, or the mutator takes rebuildMu after this loop cleared
// rebuildRunning and starts a new one.
func (ix *Index) rebuildLoop() {
	for {
		ix.awaitDebounce()
		ix.RefreshSnapshot()
		ix.rebuildMu.Lock()
		if !ix.snapshotStale() {
			ix.rebuildRunning = false
			ix.rebuildMu.Unlock()
			return
		}
		ix.rebuildMu.Unlock()
	}
}

// awaitDebounce sleeps one debounce window before a patch. Before a full
// build it keeps sleeping while the epoch moves inside each window — the
// build would hold the read lock against the very mutator that is about to
// invalidate it — until the index has been stale for fullRebuildStaleness
// times the last full build. Readers are on the locked fallback meanwhile.
func (ix *Index) awaitDebounce() {
	d := ix.rebuildDebounce()
	limit := fullRebuildStaleness * time.Duration(ix.lastFullNanos.Load())
	for staleSince := time.Now(); ; {
		epoch := ix.epoch.Load()
		time.Sleep(d)
		if !ix.needFull.Load() || ix.epoch.Load() == epoch || time.Since(staleSince) >= limit {
			return
		}
	}
}

func (ix *Index) snapshotStale() bool {
	s := ix.snap.Load()
	return s == nil || s.epoch != ix.epoch.Load()
}
