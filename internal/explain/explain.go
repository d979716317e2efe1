// Package explain assembles per-query execution profiles: a structured
// record of everything QUEPA decided and did while answering one augmented
// query. Where the telemetry package aggregates (counters, histograms,
// slow-query spans), explain attributes — the optimizer's decision
// provenance, the A' index work, the per-store fan-out and the cache traffic
// of one specific request, returned to the caller as a JSON artifact.
//
// A Recorder travels through the stack on the context, next to the telemetry
// span (WithRecorder / FromContext). The contract mirrors the telemetry kill
// switch: when instrumentation is disabled — or no recorder was attached —
// every hook is a nil-receiver no-op and the hot path neither allocates nor
// branches beyond a context lookup. Instrumented layers therefore call the
// Recorder unconditionally for cheap attributions (cache hits) and guard
// with `rec != nil` only where they would otherwise touch the clock.
//
// The Recorder is safe for concurrent use: the outer/inner augmenter
// strategies fetch from worker goroutines, all funneling into one profile.
package explain

import (
	"context"
	"sort"
	"sync"
	"time"

	"quepa/internal/telemetry"
)

// recorderKey carries the active Recorder on the context.
type recorderKey struct{}

// WithRecorder attaches a fresh Recorder for one query to ctx and returns
// both. When telemetry is globally disabled it returns ctx unchanged and a
// nil Recorder, honoring the kill-switch contract: no allocation, nothing
// recorded downstream.
func WithRecorder(ctx context.Context, route string) (context.Context, *Recorder) {
	if !telemetry.Enabled() {
		return ctx, nil
	}
	r := &Recorder{start: time.Now()}
	r.p.Route = route
	r.p.Start = r.start
	return context.WithValue(ctx, recorderKey{}, r), r
}

// FromContext returns the Recorder carried by ctx, or nil. The miss path —
// the common case for un-profiled queries — performs a context walk and
// nothing else: no allocation, no locks.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// Recorder accumulates one query's Profile as the query descends through the
// augmenter, the A' index, the cache and the stores. All methods are safe on
// a nil receiver (no-ops) and safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	p        Profile
	start    time.Time
	cur      *AugmentationTrace // open augmentation; nil between calls
	finished bool
}

// SetQuery records the query identity. The first non-empty writer wins, so
// an exploration step that triggers a nested search keeps its own identity.
func (r *Recorder) SetQuery(database, query string, level int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.p.Database == "" {
		r.p.Database = database
	}
	if r.p.Query == "" {
		r.p.Query = query
		r.p.Level = level
	}
	r.mu.Unlock()
}

// SetOptimizer attaches the optimizer's decision provenance.
func (r *Recorder) SetOptimizer(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.p.Optimizer = &d
	r.mu.Unlock()
}

// LocalQuery records the native-language query that produced the original
// (pre-augmentation) result.
func (r *Recorder) LocalQuery(store string, objects int, d time.Duration, failed bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f := newFanout(store, "query", objects, objects, d, failed)
	if r.p.LocalQuery == nil {
		r.p.LocalQuery = &f
	} else {
		r.p.LocalQuery.merge(objects, objects, d, failed)
	}
	r.p.Totals.StoreCalls++
	if failed {
		r.p.Totals.StoreErrors++
	}
	r.mu.Unlock()
}

// BeginAugmentation opens the trace of one AugmentObjects call. A still-open
// trace (a caller that never reached EndAugmentation) is flushed first.
func (r *Recorder) BeginAugmentation(level, origins int, strategy string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.flushLocked()
	}
	r.cur = &AugmentationTrace{Level: level, Origins: origins, Strategy: strategy}
	r.mu.Unlock()
}

// PlanStats records the A' index work of plan building: unique candidate
// keys to fetch, index nodes expanded and edges scanned by the reachability
// traversals, and hits dropped because they were origins themselves.
func (r *Recorder) PlanStats(candidates, nodes, edges, skipped int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.CandidateKeys = candidates
		r.cur.IndexNodes += nodes
		r.cur.IndexEdges += edges
		r.cur.OriginsSkipped += skipped
	}
	r.mu.Unlock()
}

// SnapshotReaches records how many of the plan's reachability lookups were
// served from the A' index's read-optimized snapshot.
func (r *Recorder) SnapshotReaches(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.SnapshotReaches += n
	}
	r.mu.Unlock()
}

// RcacheHits attributes n result-cache hits to this query: reach sets or
// whole augmentation outcomes served from the epoch-consistent cache.
func (r *Recorder) RcacheHits(n int) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.RcacheHits += n
	}
	r.p.Totals.RcacheHits += n
	r.mu.Unlock()
}

// DeltaFrontierKeys attributes n frontier keys shipped to peers by a
// scatter traversal.
func (r *Recorder) DeltaFrontierKeys(n int) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.p.Totals.DeltaFrontierKeys += n
	r.mu.Unlock()
}

// CacheHits attributes n object-cache hits to this query.
func (r *Recorder) CacheHits(n int) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.CacheHits += n
	}
	r.p.Totals.CacheHits += n
	r.mu.Unlock()
}

// CacheMisses attributes n object-cache misses to this query.
func (r *Recorder) CacheMisses(n int) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.CacheMisses += n
	}
	r.p.Totals.CacheMisses += n
	r.mu.Unlock()
}

// CoalescedHits attributes n coalesced fetches to this query: lookups that
// joined another request's in-flight store round trip instead of paying
// their own.
func (r *Recorder) CoalescedHits(n int) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.CoalescedHits += n
	}
	r.p.Totals.CoalescedHits += n
	r.mu.Unlock()
}

// NegativeHits attributes n negative-cache hits to this query: lookups
// answered "missing" from the recent-miss memory without a store round trip.
func (r *Recorder) NegativeHits(n int) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.NegativeHits += n
	}
	r.p.Totals.NegativeHits += n
	r.mu.Unlock()
}

// StoreOp records one round trip to a store: keys requested, objects that
// came back, latency, and whether the call failed. Ops inside an open
// augmentation land in its per-store fan-out; ops outside (an exploration
// step fetching its origin) land on the profile directly.
func (r *Recorder) StoreOp(store, op string, keys, objects int, d time.Duration, failed bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Stores = mergeFanout(r.cur.Stores, store, op, keys, objects, d, failed)
	} else {
		r.p.Fetches = mergeFanout(r.p.Fetches, store, op, keys, objects, d, failed)
	}
	r.p.Totals.StoreCalls++
	if failed {
		r.p.Totals.StoreErrors++
	}
	r.mu.Unlock()
}

// ShardScatter records one scatter-gather leg to a cluster peer: frontier
// keys shipped, hits gathered back, latency, and whether the call failed
// (an open per-peer breaker counts as a failed call with zero wall time).
// Legs are merged per shard within the open augmentation trace.
func (r *Recorder) ShardScatter(shard int, peer string, keys, hits int, d time.Duration, failed bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		merged := false
		for i := range r.cur.Scatter {
			if r.cur.Scatter[i].Shard == shard {
				f := &r.cur.Scatter[i]
				f.Calls++
				f.Keys += keys
				f.Hits += hits
				if failed {
					f.Errors++
				}
				f.WallMS += durMS(d)
				merged = true
				break
			}
		}
		if !merged {
			f := ShardFanout{Shard: shard, Peer: peer, Calls: 1, Keys: keys, Hits: hits, WallMS: durMS(d)}
			if failed {
				f.Errors = 1
			}
			r.cur.Scatter = append(r.cur.Scatter, f)
		}
	}
	r.p.Totals.ScatterCalls++
	r.mu.Unlock()
}

// EndAugmentation closes the open trace: objects it contributed, wall time,
// and the error that aborted it (nil for success).
func (r *Recorder) EndAugmentation(objects int, d time.Duration, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.cur != nil {
		r.cur.Fetched = objects
		r.cur.WallMS = durMS(d)
		if err != nil {
			r.cur.Error = err.Error()
		}
		r.flushLocked()
	}
	r.mu.Unlock()
}

// RankPruned records augmented objects dropped by the presentation ranking
// (minp / topk).
func (r *Recorder) RankPruned(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	r.p.Totals.RankPruned += n
	r.mu.Unlock()
}

// maxRetryTraces caps the per-profile retry trace list; the totals keep
// counting past it.
const maxRetryTraces = 32

// WireRetry records one retried wire round trip: the attempt that failed,
// why, and the backoff chosen before the next try.
func (r *Recorder) WireRetry(store, op string, attempt int, backoff time.Duration, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.p.Totals.WireRetries++
	if len(r.p.Retries) < maxRetryTraces {
		t := RetryTrace{Store: store, Op: op, Attempt: attempt, BackoffMS: durMS(backoff)}
		if err != nil {
			t.Error = err.Error()
		}
		r.p.Retries = append(r.p.Retries, t)
	}
	r.mu.Unlock()
}

// Degraded records one store dropped from the result: the augmenter kept
// going without it. Inside an open augmentation the entry lands on its trace;
// outside it lands on the profile.
func (r *Recorder) Degraded(store, reason string, level int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	d := DegradedStore{Store: store, Reason: reason, Level: level}
	if r.cur != nil {
		r.cur.Degraded = append(r.cur.Degraded, d)
	} else {
		r.p.Degraded = append(r.p.Degraded, d)
	}
	r.p.Totals.Degraded++
	r.mu.Unlock()
}

// WireBytes adds one wire round trip's frame sizes to the totals.
func (r *Recorder) WireBytes(sent, received int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.p.Totals.BytesSent += int64(sent)
	r.p.Totals.BytesReceived += int64(received)
	r.mu.Unlock()
}

// Finish seals the profile — wall time, objects returned — and returns it.
// Finish is idempotent; later calls return the same profile unchanged. A nil
// Recorder returns nil.
func (r *Recorder) Finish(objects int) *Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.finished {
		r.finished = true
		if r.cur != nil {
			r.flushLocked()
		}
		r.p.WallMS = durMS(time.Since(r.start))
		r.p.Totals.Objects = objects
	}
	return &r.p
}

// flushLocked appends the open trace to the profile with its store fan-out
// in deterministic order. Callers hold r.mu.
func (r *Recorder) flushLocked() {
	sortFanout(r.cur.Stores)
	sort.Slice(r.cur.Scatter, func(i, j int) bool { return r.cur.Scatter[i].Shard < r.cur.Scatter[j].Shard })
	r.p.Augmentations = append(r.p.Augmentations, *r.cur)
	r.cur = nil
}

func newFanout(store, op string, keys, objects int, d time.Duration, failed bool) StoreFanout {
	f := StoreFanout{Store: store, Op: op, Calls: 1, Keys: keys, Objects: objects, MaxBatch: keys, WallMS: durMS(d)}
	if failed {
		f.Errors = 1
	}
	return f
}

func (f *StoreFanout) merge(keys, objects int, d time.Duration, failed bool) {
	f.Calls++
	f.Keys += keys
	f.Objects += objects
	if failed {
		f.Errors++
	}
	if keys > f.MaxBatch {
		f.MaxBatch = keys
	}
	f.WallMS += durMS(d)
}

func mergeFanout(list []StoreFanout, store, op string, keys, objects int, d time.Duration, failed bool) []StoreFanout {
	for i := range list {
		if list[i].Store == store && list[i].Op == op {
			list[i].merge(keys, objects, d, failed)
			return list
		}
	}
	return append(list, newFanout(store, op, keys, objects, d, failed))
}

func sortFanout(list []StoreFanout) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].Store != list[j].Store {
			return list[i].Store < list[j].Store
		}
		return list[i].Op < list[j].Op
	})
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
